package intra

// The int16 lane kernels of sad_amd64.s, for the n = 8, 16 and 32 blocks
// cpufeat.Lanes8 admits; each states its contract there.

//go:noescape
func sadLinesAVX2(ref, src *int16, n, angle int, bound int64) int64

//go:noescape
func predLinesAVX2(ref *int16, dst *int32, n, angle int, columns bool)

//go:noescape
func planarLinesAVX2(form, src *int16, dst *int32, n, shift int, bound int64) int64

//go:noescape
func packLinesAVX2(src *int32, dst *int16, n int, columns bool)
