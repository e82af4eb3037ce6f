// End-to-end integration tests spanning the full stack: substrate training,
// weight/KV/gradient compression through the codec, and the evaluation
// harness — the flows the examples demonstrate, checked automatically.
package repro_test

import (
	"context"
	"math"
	"math/rand"
	"testing"

	"repro/internal/allreduce"
	"repro/internal/core"
	"repro/internal/data"
	"repro/internal/llm"
	"repro/internal/nn"
	"repro/internal/train"
)

// sharedModel trains one small model for the integration tests.
var (
	intCorpus *data.Corpus
	intModel  *nn.Transformer
)

func integrationSetup(t *testing.T) (*data.Corpus, *nn.Transformer) {
	t.Helper()
	if testing.Short() {
		t.Skip("integration test trains a model")
	}
	if intModel == nil {
		intCorpus = data.NewCorpus(5, 64, 40000, 8000)
		spec := llm.ModelSpec{
			Name:       "integration",
			Cfg:        nn.Config{Vocab: 64, Dim: 32, Heads: 4, Layers: 2, SeqLen: 24, Hidden: 64},
			TrainSteps: 300, LR: 3e-3, Batch: 8,
		}
		intModel = llm.Train(spec, intCorpus, 11)
	}
	return intCorpus, intModel
}

func TestEndToEndWeightCompressionPipeline(t *testing.T) {
	corpus, m := integrationSetup(t)
	snap := llm.SnapshotWeights(m)
	defer llm.RestoreWeights(m, snap)

	base := llm.Perplexity(m, corpus, 4)
	bits, err := llm.CompressModel(m, func(string) llm.Compressor { return llm.Codec(core.DefaultOptions(), 2.9) })
	if err != nil {
		t.Fatal(err)
	}
	after := llm.Perplexity(m, corpus, 4)
	if bits > 2.9 {
		t.Fatalf("weight compression exceeded budget: %.3f b/v", bits)
	}
	if after > base*1.25 {
		t.Fatalf("2.9-bit weights cost too much: ppl %.2f -> %.2f", base, after)
	}
	t.Logf("weights: %.2f b/v (%.1fx), ppl %.3f -> %.3f", bits, 16/bits, base, after)
}

func TestEndToEndGenerationWithCompressedCache(t *testing.T) {
	corpus, m := integrationSetup(t)
	prompt := corpus.TrainTokens()[50:56]

	// greedy decodes 8 tokens, transforming the whole cache with hook (when
	// set) before each decode step.
	greedy := func(hook nn.KVHook) []int {
		cache := nn.NewKVCache(len(m.Blocks), m.Cfg.Dim)
		var logits []float32
		pos := 0
		for _, tok := range prompt {
			logits = m.DecodeStep(cache, tok, pos)
			pos++
		}
		var out []int
		for i := 0; i < 8 && pos < m.Cfg.SeqLen; i++ {
			if hook != nil {
				cache.Transform(hook)
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
	plain := greedy(nil)

	// Compress the cache before each decode step at a generous bitrate,
	// every layer's K and V through one rate controller; greedy outputs should
	// mostly survive.
	c := llm.Codec(core.DefaultOptions(), 6)
	out := greedy(llm.KVHook(c, c))
	match := 0
	for i := range out {
		if out[i] == plain[i] {
			match++
		}
	}
	if match < len(out)/2 {
		t.Fatalf("compressed-cache generation diverged: %d/%d tokens match", match, len(out))
	}
}

func TestEndToEndDistributedTrainingParity(t *testing.T) {
	if testing.Short() {
		t.Skip("trains models")
	}
	corpus := data.NewCorpus(6, 64, 30000, 6000)
	cfg := nn.Config{Vocab: 64, Dim: 16, Heads: 2, Layers: 2, SeqLen: 16, Hidden: 32}

	run := func(rcfg allreduce.Config) float64 {
		m := nn.NewTransformer(rand.New(rand.NewSource(77)), cfg)
		res, err := train.RunDataParallel(context.Background(), m, corpus, nn.NewAdam(3e-3),
			train.DPConfig{Replicas: 2, Batch: 4}, rcfg, 120, 8, nil)
		if err != nil {
			t.Fatal(err)
		}
		return res.FinalPPL
	}
	base := run(allreduce.Config{})
	comp := run(allreduce.Config{Codec: allreduce.RateCodec(core.DefaultOptions(), 2.6)})
	if math.IsNaN(comp) || comp > base*1.15 {
		t.Fatalf("compressed DP training ppl %.2f too far above uncompressed %.2f", comp, base)
	}
}

func TestEndToEndContainerFileFlow(t *testing.T) {
	// The CLI flow without the CLI: tensor → container bytes → tensor.
	rng := rand.New(rand.NewSource(12))
	w := core.NewTensor(96, 96)
	for i := range w.Data {
		w.Data[i] = float32(rng.NormFloat64())
	}
	opts, ctx := core.DefaultOptions(), context.Background()
	enc, want, err := opts.EncodeStackToBitrate(ctx, []*core.Tensor{w}, 3.5)
	if err != nil {
		t.Fatal(err)
	}
	blob := enc.Marshal()
	dec, err := core.UnmarshalEncoded(blob)
	if err != nil {
		t.Fatal(err)
	}
	got, err := opts.DecodeStackCtx(ctx, dec)
	if err != nil {
		t.Fatal(err)
	}
	for i, v := range got[0].Data {
		if v != want[0].Data[i] {
			t.Fatal("container round trip changed the reconstruction")
		}
	}
}
