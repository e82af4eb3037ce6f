package core_test

import (
	"context"
	"fmt"
	"math/rand"

	"repro/internal/core"
)

// ExampleOptions_EncodeStackToBitrate demonstrates the fractional-bitrate
// interface: ask for 2.5 bits per value and get at most that, metadata
// included.
func ExampleOptions_EncodeStackToBitrate() {
	rng := rand.New(rand.NewSource(1))
	w := core.NewTensor(64, 64)
	for i := range w.Data {
		w.Data[i] = float32(rng.NormFloat64())
	}

	opts, ctx := core.DefaultOptions(), context.Background()
	enc, _, err := opts.EncodeStackToBitrate(ctx, []*core.Tensor{w}, 2.5)
	if err != nil {
		panic(err)
	}
	fmt.Println(enc.BitsPerValue() <= 2.5)
	dec, err := opts.DecodeStackCtx(ctx, enc)
	if err != nil {
		panic(err)
	}
	fmt.Println(dec[0].Rows, dec[0].Cols)
	// Output:
	// true
	// 64 64
}
