//go:build !amd64

package dct

const noGEMM = "dct: no float64 kernels on this GOARCH"

func widenAVX2(dst *float64, src *int32, count int) int32 { panic(noGEMM) }

func gemmAVX2(c, a, b *float64, n int) { panic(noGEMM) }

func narrowAVX2(dst *int32, src *float64, count int, half, scale float64) { panic(noGEMM) }
