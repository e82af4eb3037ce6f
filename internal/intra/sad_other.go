//go:build !amd64

package intra

func sadLinesAVX2(ref, src *int16, n, angle int, bound int64) int64      { panic("intra: no SIMD") }
func sadLines8AVX2(t1, t2, src *int16, lines *lines8, bound int64) int64 { panic("intra: no SIMD") }
func predLinesAVX2(ref *int16, dst *int32, n, angle int, columns bool)   { panic("intra: no SIMD") }
func planarLinesAVX2(form, src *int16, dst *int32, n, shift int, bound int64) int64 {
	panic("intra: no SIMD")
}
func packLinesAVX2(src *int32, dst *int16, n int, columns bool) { panic("intra: no SIMD") }
func packSamplesAVX2(src *int32, dst *int16, count int)         { panic("intra: no SIMD") }
