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
	"math/rand"

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
	rng := rand.New(rand.NewSource(9))

	fmt.Printf("prompt: %v\n\n", prompt)
	plain := m.Generate(rand.New(rand.NewSource(9)), prompt, 16, 0)
	fmt.Printf("greedy, FP16 cache:        %v\n", plain)

	// Compressed-cache decoding: after every chunk of tokens, the cache is
	// round-tripped through the tensor codec at 2.9 bits/value.
	compressed := generateWithCompressedCache(m, prompt, 16, 2.9, 4)
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
	_ = rng
}

// generateWithCompressedCache decodes greedily, recompressing the KV cache
// every chunkLen generated tokens.
func generateWithCompressedCache(m *nn.Transformer, prompt []int, n int, bits float64, chunkLen int) []int {
	// One rate controller per layer, shared by its K and then its V.
	hooks := map[int]nn.KVHook{}
	compress := func(layer int, k, v *nn.Mat) (*nn.Mat, *nn.Mat) {
		h, ok := hooks[layer]
		if !ok {
			c := llm.Codec(core.DefaultOptions(), bits)
			h = llm.KVHook(c, c)
			hooks[layer] = h
		}
		return h(layer, k, v)
	}

	cache := nn.NewKVCache(len(m.Blocks), m.Cfg.Dim)
	var logits []float32
	pos := 0
	for _, tok := range prompt {
		logits = m.DecodeStep(cache, tok, pos)
		pos++
	}
	out := make([]int, 0, n)
	for i := 0; i < n && pos < m.Cfg.SeqLen; i++ {
		if i%chunkLen == 0 {
			cache.Transform(compress)
		}
		best, bestV := 0, logits[0]
		for j, v := range logits {
			if v > bestV {
				best, bestV = j, v
			}
		}
		out = append(out, best)
		logits = m.DecodeStep(cache, best, pos)
		pos++
	}
	return out
}
