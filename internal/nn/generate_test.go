package nn

import (
	"math"
	"math/rand"
	"testing"
)

func TestDecodeStepMatchesForward(t *testing.T) {
	// Incremental decoding with the KV cache must produce exactly the same
	// logits as the full forward pass (same float32 op order per position).
	rng := rand.New(rand.NewSource(1))
	cfg := Config{Vocab: 16, Dim: 16, Heads: 4, Layers: 3, SeqLen: 12}
	m := NewTransformer(rng, cfg)
	tokens := []int{3, 7, 1, 9, 12, 0, 5}

	full := m.Forward([][]int{tokens})

	cache := NewKVCache(cfg.Layers, cfg.Dim)
	for pos, tok := range tokens {
		logits := m.DecodeStep(cache, tok, pos)
		for j := 0; j < cfg.Vocab; j++ {
			got := float64(logits[j])
			want := float64(full.At(pos, j))
			if math.Abs(got-want) > 1e-4 {
				t.Fatalf("pos %d logit %d: incremental %.6f vs full %.6f", pos, j, got, want)
			}
		}
	}
	if cache.Len() != len(tokens) {
		t.Fatalf("cache length %d, want %d", cache.Len(), len(tokens))
	}
}

func TestKVCacheTransformAffectsDecoding(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	cfg := Config{Vocab: 16, Dim: 16, Heads: 2, Layers: 2, SeqLen: 10}
	m := NewTransformer(rng, cfg)
	tokens := []int{1, 2, 3, 4}

	decode := func(mangle bool) []float32 {
		cache := NewKVCache(cfg.Layers, cfg.Dim)
		var logits []float32
		for pos, tok := range tokens {
			if mangle && pos == 2 {
				cache.Transform(func(_ int, k, v *Mat) (*Mat, *Mat) {
					kz := NewMat(k.R, k.C) // zero out history
					return kz, v
				})
			}
			logits = m.DecodeStep(cache, tok, pos)
		}
		return logits
	}
	a, b := decode(false), decode(true)
	same := true
	for i := range a {
		if a[i] != b[i] {
			same = false
		}
	}
	if same {
		t.Fatal("cache transform had no effect")
	}
}
