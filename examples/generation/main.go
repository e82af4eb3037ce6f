// Generation example: autoregressive decoding with a compressed KV cache.
// The cache is recompressed with LLM.265 every chunk of tokens (the way a
// serving system amortizes codec calls), and the output distribution is
// compared against uncompressed decoding — §4.2's long-context scenario in
// miniature.
//
//	go run ./examples/generation
package main

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/data"
	"repro/internal/llm"
	"repro/internal/nn"
)

func main() {
	fmt.Println("training the reference model (one-time)...")
	corpus := data.NewCorpus(1, 64, 60000, 10000)
	spec := llm.Zoo()["pythia-dp"]
	m := llm.Train(spec, corpus, 42)

	prompt := corpus.TrainTokens()[100:108]

	fmt.Printf("prompt: %v\n\n", prompt)
	plain := greedy(m, prompt, 16, nil, 0)
	fmt.Printf("greedy, FP16 cache:        %v\n", plain)

	// Compressed-cache decoding: after every chunk of tokens, the cache is
	// round-tripped through the tensor codec at 2.9 bits/value.
	compressed := greedy(m, prompt, 16, cacheCodec(2.9), 4)
	fmt.Printf("greedy, LLM.265 KV @2.9b:  %v\n", compressed)

	match := 0
	for i := range plain {
		if plain[i] == compressed[i] {
			match++
		}
	}
	fmt.Printf("\ntoken agreement: %d/%d\n", match, len(plain))

	// How plausible are the continuations under the source language?
	valid := func(seq []int) int {
		ok := 0
		prev := prompt[len(prompt)-1]
		for _, t := range seq {
			if corpus.Likely(prev, t) {
				ok++
			}
			prev = t
		}
		return ok
	}
	fmt.Printf("chain-consistent transitions: FP16 %d/16, compressed %d/16\n",
		valid(plain), valid(compressed))
}

// cacheCodec round-trips each layer's K and then its V through one rate
// controller per layer at bits per value.
func cacheCodec(bits float64) nn.KVHook {
	hooks := map[int]nn.KVHook{}
	return func(layer int, k, v *nn.Mat) (*nn.Mat, *nn.Mat) {
		h, ok := hooks[layer]
		if !ok {
			c := llm.Codec(core.DefaultOptions(), bits)
			h = llm.KVHook(c, c)
			hooks[layer] = h
		}
		return h(layer, k, v)
	}
}

// greedy decodes n tokens after prompt (fewer at the model's context limit),
// taking the first highest logit each step. A non-nil compress transforms the
// cache before every chunkLen-th generated token.
func greedy(m *nn.Transformer, prompt []int, n int, compress nn.KVHook, chunkLen int) []int {
	cache := nn.NewKVCache(len(m.Blocks), m.Cfg.Dim)
	var logits []float32
	pos := 0
	for _, tok := range prompt {
		logits = m.DecodeStep(cache, tok, pos)
		pos++
	}
	out := make([]int, 0, n)
	for i := 0; i < n && pos < m.Cfg.SeqLen; i++ {
		if compress != nil && i%chunkLen == 0 {
			cache.Transform(compress)
		}
		best := 0
		for j, v := range logits {
			if v > logits[best] {
				best = j
			}
		}
		out = append(out, best)
		logits = m.DecodeStep(cache, best, pos)
		pos++
	}
	return out
}
