//go:build !amd64

package intra

func sadLinesAVX2(ref, src *int16, n, angle int, bound int64) int64 {
	panic("intra: no SIMD scorer on this GOARCH")
}
