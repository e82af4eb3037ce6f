// Quickstart: compress a weight matrix with LLM.265 at a fractional bitrate
// and round-trip it.
//
//	go run ./examples/quickstart
package main

import (
	"context"
	"fmt"
	"log"
	"math"
	"math/rand"

	"repro/internal/core"
	"repro/internal/tensorgen"
)

func main() {
	// A 256×256 weight matrix with LLM-like channel structure.
	rng := rand.New(rand.NewSource(1))
	w := core.FromSlice(256, 256, tensorgen.Weights(rng, 256, 256))

	opts := core.DefaultOptions()                         // H.265 profile, intra-only, CABAC
	ctx, stack := context.Background(), []*core.Tensor{w} // a stack of one layer

	// The headline feature: fractional bitrate targets. Ask for 2.9 bits
	// per value — something integer quantizers cannot express.
	enc, _, err := opts.EncodeStackToBitrate(ctx, stack, 2.9)
	if err != nil {
		log.Fatal(err)
	}
	dec, err := opts.DecodeStackCtx(ctx, enc)
	if err != nil {
		log.Fatal(err)
	}

	var variance float64
	for _, v := range w.Data {
		variance += float64(v) * float64(v)
	}
	variance /= float64(len(w.Data))

	fmt.Printf("tensor:        %dx%d float32 (%d KiB raw)\n", w.Rows, w.Cols, w.Numel()*4/1024)
	fmt.Printf("compressed:    %d KiB at %.2f bits/value (QP %d)\n",
		enc.SizeBits()/8/1024, enc.BitsPerValue(), enc.QP)
	fmt.Printf("compression:   %.1fx vs FP16\n", 16/enc.BitsPerValue())
	fmt.Printf("reconstruction RMSE/σ: %.4f\n", math.Sqrt(w.MSE(dec[0])/variance))

	// MSE-constrained mode: the cheapest encode meeting a quality budget.
	enc2, dec2, err := opts.EncodeStackToMSE(ctx, stack, 0.01*variance)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\nMSE-constrained (MSE ≤ 1%% of Var): %.2f bits/value, achieved MSE/Var %.4f\n",
		enc2.BitsPerValue(), w.MSE(dec2[0])/variance)

	// Container round-trip: ship the bitstream anywhere.
	blob := enc.Marshal()
	back, err := core.UnmarshalEncoded(blob)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\ncontainer: %d bytes, decodes to identical tensor: %v\n",
		len(blob), mustEqual(opts, back, dec[0]))
}

func mustEqual(opts core.Options, e *core.Encoded, want *core.Tensor) bool {
	got, err := opts.DecodeStackCtx(context.Background(), e)
	if err != nil {
		return false
	}
	for i, v := range got[0].Data {
		if v != want.Data[i] {
			return false
		}
	}
	return true
}
