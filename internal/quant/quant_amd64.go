package quant

//go:noescape
func minMaxAVX2(data *float32, count int) (lo, hi float32)

//go:noescape
func toUint8AVX2(pix *uint8, data *float32, count int, lo, inv float64)
