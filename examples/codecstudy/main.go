// Codec study: run the Fig. 2-style stage ablation and profile comparison on
// any tensor you like — here, the three characteristic tensor families
// (weights, activations, gradients) — printing bits/value at matched
// quality. Demonstrates the stage toggles and MSE-constrained rate control.
//
//	go run ./examples/codecstudy
package main

import (
	"context"
	"fmt"
	"log"
	"math/rand"

	"repro/internal/codec"
	"repro/internal/core"
	"repro/internal/tensorgen"
)

func main() {
	rng := rand.New(rand.NewSource(5))
	n := 128
	families := []struct {
		name string
		data []float32
	}{
		{"weights", tensorgen.Weights(rng, n, n)},
		{"activations", tensorgen.Activations(rng, n, n)},
		{"gradients", tensorgen.Gradients(rng, n*n, 2)},
	}
	stages := []struct {
		name  string
		tools codec.Tools
	}{
		{"entropy only", codec.Tools{}},
		{"+ transform", codec.Tools{Transform: true}},
		{"+ partitioning", codec.Tools{Transform: true, Partitioning: true}},
		{"+ intra (full)", codec.AllTools},
	}

	fmt.Println("bits/value needed for MSE ≤ 1% of variance, per pipeline stage:")
	fmt.Printf("%-14s", "tensor")
	for _, s := range stages {
		fmt.Printf("  %-15s", s.name)
	}
	fmt.Println()
	for _, fam := range families {
		t := core.FromSlice(n, n, fam.data)
		var variance float64
		for _, v := range t.Data {
			variance += float64(v) * float64(v)
		}
		variance /= float64(len(t.Data))
		fmt.Printf("%-14s", fam.name)
		for _, s := range stages {
			o := core.DefaultOptions()
			o.Tools = s.tools
			e, _, err := o.EncodeStackToMSE(context.Background(), []*core.Tensor{t}, 0.01*variance)
			if err != nil {
				log.Fatal(err)
			}
			fmt.Printf("  %-15.2f", e.BitsPerValue())
		}
		fmt.Println()
	}

	// Profile comparison at a fixed bitrate: the Fig. 6 observation.
	fmt.Println("\nreconstruction MSE/Var at 2.5 bits/value, per codec profile:")
	w := core.FromSlice(n, n, families[0].data)
	var variance float64
	for _, v := range w.Data {
		variance += float64(v) * float64(v)
	}
	variance /= float64(len(w.Data))
	for _, prof := range []codec.Profile{codec.H264, codec.HEVC, codec.AV1} {
		o := core.DefaultOptions()
		o.Profile = prof
		e, d, err := o.EncodeStackToBitrate(context.Background(), []*core.Tensor{w}, 2.5)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("  %-6s %.4f (at %.2f b/v)\n", prof, w.MSE(d[0])/variance, e.BitsPerValue())
	}
	fmt.Println("\nthe paper's Fig. 6: the three profiles differ within noise above ~1.8 b/v")
}
