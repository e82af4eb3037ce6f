//go:build !amd64

package quant

const noSIMD = "quant: no SIMD kernels on this GOARCH"

func minMaxAVX2(data *float32, count int) (float32, float32) { panic(noSIMD) }

func toUint8AVX2(pix *uint8, data *float32, count int, lo, inv float64) { panic(noSIMD) }
