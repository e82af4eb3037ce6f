// Package llm is the evaluation harness tying the substrate model to the
// compression methods: it trains reference models on the synthetic corpus,
// compresses their weights / KV caches / activations with any method under
// test, and measures perplexity and zero-shot task accuracy — the readouts
// behind the paper's Figures 5–8 and Table 1.
package llm

import (
	"fmt"
	"math/rand"
	"strconv"
	"strings"

	"repro/internal/data"
	"repro/internal/nn"
)

// ModelSpec names a substrate configuration standing in for one of the
// paper's model families (scaled to laptop size; DESIGN.md §2).
type ModelSpec struct {
	Name string
	Cfg  nn.Config
	// TrainSteps/LR/Batch define the reference training recipe.
	TrainSteps int
	LR         float64
	Batch      int
}

// Zoo returns the model specs used across the experiments.
func Zoo() map[string]ModelSpec {
	return map[string]ModelSpec{
		// The LLaMA-2-7B stand-in (Fig. 5, Fig. 2): mid-size.
		"llama-mini": {
			Name:       "llama-mini",
			Cfg:        nn.Config{Vocab: 64, Dim: 48, Heads: 4, Layers: 4, SeqLen: 32, Hidden: 96},
			TrainSteps: 900, LR: 3e-3, Batch: 8,
		},
		// The LLaMA-3-70B stand-in (Table 1): deeper and wider.
		"llama-mid": {
			Name:       "llama-mid",
			Cfg:        nn.Config{Vocab: 64, Dim: 64, Heads: 4, Layers: 6, SeqLen: 32, Hidden: 128},
			TrainSteps: 900, LR: 2.5e-3, Batch: 8,
		},
		// The Pythia-1.4B stand-in for pipeline-parallel training (Fig. 9).
		"pythia-pp": {
			Name:       "pythia-pp",
			Cfg:        nn.Config{Vocab: 64, Dim: 32, Heads: 4, Layers: 4, SeqLen: 32, Hidden: 64},
			TrainSteps: 700, LR: 3e-3, Batch: 4,
		},
		// The Pythia-160M stand-in for data-parallel training (Fig. 10/11).
		"pythia-dp": {
			Name:       "pythia-dp",
			Cfg:        nn.Config{Vocab: 64, Dim: 32, Heads: 4, Layers: 2, SeqLen: 32, Hidden: 64},
			TrainSteps: 600, LR: 3e-3, Batch: 8,
		},
		// Stand-ins for the Fig. 7 families (T5 encoder-ish and ViT-ish use
		// the same decoder substrate with different shapes; what varies in
		// Fig. 7 is the task readout).
		"t5-mini": {
			Name:       "t5-mini",
			Cfg:        nn.Config{Vocab: 64, Dim: 40, Heads: 4, Layers: 3, SeqLen: 24, Hidden: 80},
			TrainSteps: 700, LR: 3e-3, Batch: 8,
		},
		"vit-mini": {
			Name:       "vit-mini",
			Cfg:        nn.Config{Vocab: 64, Dim: 40, Heads: 4, Layers: 3, SeqLen: 24, Hidden: 80},
			TrainSteps: 700, LR: 3e-3, Batch: 8,
		},
	}
}

// Train fits spec's model on the corpus with Adam and returns it.
func Train(spec ModelSpec, corpus *data.Corpus, seed int64) *nn.Transformer {
	rng := rand.New(rand.NewSource(seed))
	m := nn.NewTransformer(rng, spec.Cfg)
	opt := nn.NewAdam(spec.LR)
	for step := 0; step < spec.TrainSteps; step++ {
		tokens, targets := corpus.Batch(rng, spec.Batch, spec.Cfg.SeqLen)
		m.ZeroGrads()
		m.TrainStep(tokens, targets)
		opt.Step(m.Params())
	}
	return m
}

// Perplexity evaluates validation perplexity with nEval batches.
func Perplexity(m *nn.Transformer, corpus *data.Corpus, nEval int) float64 {
	toks, tgts := corpus.ValidBatches(nEval, 4, m.Cfg.SeqLen)
	return m.Perplexity(toks, tgts)
}

// CompressibleParams returns the weight matrices GPTQ/AWQ-class methods
// quantize: the 2-D linear weights (attention and MLP projections and the
// output head), excluding LayerNorms, biases and embeddings.
func CompressibleParams(m *nn.Transformer) []*nn.Param {
	var out []*nn.Param
	for _, p := range m.Params() {
		if !strings.HasSuffix(p.Name, ".w") && p.Name != "head.w" {
			continue
		}
		if p.W.R < 8 || p.W.C < 8 {
			continue
		}
		out = append(out, p)
	}
	return out
}

// LinearsByName maps compressible weight-matrix names to their Linear
// layers, so calibration-based quantizers (GPTQ, AWQ) can read the cached
// layer inputs after a calibration forward pass.
func LinearsByName(m *nn.Transformer) map[string]*nn.Linear {
	out := map[string]*nn.Linear{}
	for i, b := range m.Blocks {
		prefix := "block" + strconv.Itoa(i)
		out[prefix+".attn.wq.w"] = b.Attn.Wq
		out[prefix+".attn.wk.w"] = b.Attn.Wk
		out[prefix+".attn.wv.w"] = b.Attn.Wv
		out[prefix+".attn.wo.w"] = b.Attn.Wo
		out[prefix+".mlp.up.w"] = b.MLP.Up
		out[prefix+".mlp.down.w"] = b.MLP.Down
	}
	out["head.w"] = m.Head
	return out
}

// CompressModel compresses every compressible parameter of m in place, each
// with the Compressor compressor returns for its name, and returns the
// size-weighted average bits per value. Callers wanting to keep the original
// should snapshot with SnapshotWeights.
func CompressModel(m *nn.Transformer, compressor func(name string) Compressor) (float64, error) {
	var bitsSum, n float64
	for _, p := range CompressibleParams(m) {
		rec, bits, err := compressor(p.Name)(p.W)
		if err != nil {
			return 0, fmt.Errorf("llm: compress %s: %w", p.Name, err)
		}
		copy(p.W.V, rec.V)
		bitsSum += bits * float64(len(p.W.V))
		n += float64(len(p.W.V))
	}
	return bitsSum / n, nil
}

// SnapshotWeights captures all parameter values for later restoration.
func SnapshotWeights(m *nn.Transformer) map[string][]float32 {
	snap := map[string][]float32{}
	for _, p := range m.Params() {
		v := make([]float32, len(p.W.V))
		copy(v, p.W.V)
		snap[p.Name] = v
	}
	return snap
}

// RestoreWeights reverts a model to a snapshot.
func RestoreWeights(m *nn.Transformer, snap map[string][]float32) {
	for _, p := range m.Params() {
		copy(p.W.V, snap[p.Name])
	}
}
