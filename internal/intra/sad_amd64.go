package intra

// sadLinesAVX2 is Scorer.SAD's line loop for n = 8 (XMM), 16 or 32 (YMM)
// over the int16 arrays: ref is ref16's array, src line16's lines. It returns
// the SAD of the mode of the given angle, or the running sum at the end of
// the first line where it exceeds bound.
//
//go:noescape
func sadLinesAVX2(ref, src *int16, n, angle int, bound int64) int64
