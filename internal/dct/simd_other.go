//go:build !amd64

package dct

const noSIMD = "dct: no SIMD kernels on this GOARCH"

func widenAVX2(dst *float64, src *int32, count int) int32 { panic(noSIMD) }

func foldAVX2(c, b, p *float64, n int) { panic(noSIMD) }

func unfoldAVX2(c, b, p *float64, n int) { panic(noSIMD) }

func narrowAVX2(dst *int32, src *float64, count int, half, scale float64) { panic(noSIMD) }

func quantDeqAVX2(levels, deq, coef *int32, nz *uint32, n int, inv float64, recon *int32) (uint32, bool) {
	panic(noSIMD)
}

func dequantAVX2(dst, levels *int32, nz *uint32, n int, recon *int32) (uint32, bool) {
	panic(noSIMD)
}
