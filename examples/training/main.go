// Training example: data-parallel training with LLM.265 gradient
// compression at 2.6 bits per value, compared against uncompressed training
// and the 1-bit Adam baseline — the paper's §5.2 setting.
//
//	go run ./examples/training
package main

import (
	"context"
	"fmt"
	"log"
	"math/rand"

	"repro/internal/allreduce"
	"repro/internal/core"
	"repro/internal/data"
	"repro/internal/llm"
	"repro/internal/nn"
	"repro/internal/train"
)

func main() {
	corpus := data.NewCorpus(1, 64, 60000, 10000)
	spec := llm.Zoo()["pythia-dp"]
	steps := 300

	run := func(label string, rcfg allreduce.Config, opt nn.Optimizer, onStep func(int)) {
		m := nn.NewTransformer(rand.New(rand.NewSource(99)), spec.Cfg)
		res, err := train.RunDataParallel(context.Background(), m, corpus, opt,
			train.DPConfig{Replicas: 4, Batch: 4}, rcfg, steps, 7, onStep)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("%-24s wire %5.2f bits/value   final loss %.3f   val ppl %6.2f\n",
			label, res.AvgBits, res.Curve[len(res.Curve)-1].Loss, res.FinalPPL)
	}

	fmt.Printf("data-parallel training: 4 replicas, %d steps\n\n", steps)
	llm265 := func(bits float64) allreduce.Config {
		return allreduce.Config{Codec: allreduce.RateCodec(core.DefaultOptions(), bits)}
	}
	run("uncompressed:", allreduce.Config{}, nn.NewAdam(3e-3), nil)
	run("LLM.265 @ 2.6 b/v:", llm265(2.6), nn.NewAdam(3e-3), nil)
	run("LLM.265 @ 1.4 b/v:", llm265(1.4), nn.NewAdam(3e-3), nil)

	warmup := steps * 15 / 100
	adam := nn.NewAdam(3e-3)
	run("1-bit Adam:", allreduce.Config{Codec: allreduce.SignCodec(warmup), ErrorFeedback: true},
		adam, func(step int) { adam.FreezeVariance = step+1 >= warmup })

	fmt.Println("\nLLM.265 needs no warm-up phase and no optimizer modification —")
	fmt.Println("compression starts at step 0 with a plain Adam (§5.2).")
}
