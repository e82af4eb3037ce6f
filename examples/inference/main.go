// Inference example: the paper's §4 end-to-end recipe on the substrate
// model — compress weights to ~2.9 bits, the KV cache to 2.9 bits and
// pipeline-boundary activations to 3.5 bits, then measure what it costs in
// perplexity and task accuracy.
//
//	go run ./examples/inference
package main

import (
	"fmt"
	"log"

	"repro/internal/core"
	"repro/internal/data"
	"repro/internal/llm"
)

func main() {
	fmt.Println("training the reference model (one-time, ~1 minute)...")
	corpus := data.NewCorpus(1, 64, 60000, 10000)
	spec := llm.Zoo()["llama-mini"]
	m := llm.Train(spec, corpus, 42)
	tasks := llm.GenerateTasks(corpus, 7, 30)

	report := func(label string) {
		ppl := llm.Perplexity(m, corpus, 6)
		_, acc := llm.EvalTasks(m, tasks)
		fmt.Printf("%-34s perplexity %6.2f   accuracy %.3f\n", label, ppl, acc)
	}

	report("FP16 baseline:")

	// 1. Weight compression (§4.1): 5.5× memory reduction.
	snap := llm.SnapshotWeights(m)
	opts := core.DefaultOptions()
	bits, err := llm.CompressModel(m, func(string) llm.Compressor { return llm.Codec(opts, 2.9) })
	if err != nil {
		log.Fatal(err)
	}
	report(fmt.Sprintf("weights @ %.2f b/v:", bits))

	// 2. KV-cache compression (§4.2): hooks intercept K/V projections.
	m.SetKVHook(llm.KVHook(llm.Codec(opts, 2.9), llm.Codec(opts, 2.9)))
	report("weights + KV cache @ 2.9 b/v:")

	// 3. Boundary-activation compression for 2-stage pipeline inference.
	toks, tgts := corpus.ValidBatches(6, 4, m.Cfg.SeqLen)
	ppl, err := llm.BoundaryPerplexity(m, toks, tgts, 2, llm.Codec(opts, 3.5))
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("%-34s perplexity %6.2f   (activations between stages @ 3.5 b/v)\n",
		"full stack + comm compression:", ppl)

	m.SetKVHook(nil)
	llm.RestoreWeights(m, snap)

	fmt.Println("\nmemory footprint (analog of the paper's 4×8GB deployment):")
	params := m.NumParams()
	fmt.Printf("  FP16 weights:      %8.1f KiB\n", float64(params)*2/1024)
	fmt.Printf("  LLM.265 weights:   %8.1f KiB (%.1fx smaller)\n",
		float64(params)*bits/8/1024, 16/bits)
}
