package codec

//go:noescape
func subAVX2(dst, a, b *int32, count int)

//go:noescape
func addClipSSEAVX2(rec, pred, orig *int32, count int) (sse int64)

//go:noescape
func storeAVX2(pix *uint8, stride int, pred, res *int32, n int)

//go:noescape
func levelBitsAVX2(lev, rank *int32, count int) (sum, last int32, ok bool)
