package dct

//go:noescape
func widenAVX2(dst *float64, src *int32, count int) (scan int32)

//go:noescape
func foldAVX2(c, b, p *float64, n int)

//go:noescape
func unfoldAVX2(c, b, p *float64, n int)

//go:noescape
func narrowAVX2(dst *int32, src *float64, count int, half, scale float64)

//go:noescape
func quantDeqAVX2(levels, deq, coef *int32, nz *uint32, n int, inv float64, recon *int32) (rows uint32, large bool)

//go:noescape
func dequantAVX2(dst, levels *int32, nz *uint32, n int, recon *int32) (rows uint32, ok bool)
