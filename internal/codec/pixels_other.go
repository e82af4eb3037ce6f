//go:build !amd64

package codec

const noSIMD = "codec: no SIMD kernels on this GOARCH"

func subAVX2(dst, a, b *int32, count int) { panic(noSIMD) }

func addClipSSEAVX2(rec, pred, orig *int32, count int) int64 { panic(noSIMD) }

func storeAVX2(pix *uint8, stride int, pred, res *int32, n int) { panic(noSIMD) }

func levelBitsAVX2(lev, rank *int32, count int) (int32, int32, bool) { panic(noSIMD) }
