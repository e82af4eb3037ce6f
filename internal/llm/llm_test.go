package llm

import (
	"math/rand"
	"testing"

	"repro/internal/codec"
	"repro/internal/core"
	"repro/internal/data"
	"repro/internal/nn"
)

// testModel trains a small model once and shares it across the package's
// tests (training is the expensive part).
var (
	testCorpus *data.Corpus
	testNet    *nn.Transformer
)

func setup(t *testing.T) (*data.Corpus, *nn.Transformer) {
	t.Helper()
	if testNet == nil {
		testCorpus = data.NewCorpus(1, 64, 40000, 8000)
		spec := ModelSpec{
			Name:       "test",
			Cfg:        nn.Config{Vocab: 64, Dim: 32, Heads: 4, Layers: 2, SeqLen: 24, Hidden: 64},
			TrainSteps: 350, LR: 3e-3, Batch: 8,
		}
		testNet = Train(spec, testCorpus, 7)
	}
	return testCorpus, testNet
}

func TestTrainingReducesPerplexity(t *testing.T) {
	corpus, m := setup(t)
	ppl := Perplexity(m, corpus, 8)
	if ppl > 20 {
		t.Fatalf("trained perplexity %.1f too high (vocab 64, entropy floor ~2.9)", ppl)
	}
	if ppl < 2.5 {
		t.Fatalf("perplexity %.2f below the source entropy floor — eval bug?", ppl)
	}
}

func TestTasksSolvableByTrainedModel(t *testing.T) {
	corpus, m := setup(t)
	tasks := GenerateTasks(corpus, 2, 30)
	if len(tasks) != 8 {
		t.Fatalf("want 8 task families, got %d", len(tasks))
	}
	accs, mean := EvalTasks(m, tasks)
	if mean < 0.55 {
		t.Fatalf("trained model mean accuracy %.2f too low: %v", mean, accs)
	}
	// Random-guess baseline for the mix of 2- and 4-way tasks is ~0.375.
}

func TestRandomModelNearChance(t *testing.T) {
	corpus, _ := setup(t)
	rng := rand.New(rand.NewSource(99))
	fresh := nn.NewTransformer(rng, nn.Config{Vocab: 64, Dim: 32, Heads: 4, Layers: 2, SeqLen: 24, Hidden: 64})
	tasks := GenerateTasks(corpus, 2, 30)
	_, mean := EvalTasks(fresh, tasks)
	if mean > 0.65 {
		t.Fatalf("untrained model accuracy %.2f suspiciously high", mean)
	}
}

func TestCompressibleParamsSelection(t *testing.T) {
	_, m := setup(t)
	ps := CompressibleParams(m)
	// 2 blocks × (wq wk wv wo up down) + head = 13 matrices.
	if len(ps) != 13 {
		t.Fatalf("got %d compressible params", len(ps))
	}
	for _, p := range ps {
		if p.W.R < 8 || p.W.C < 8 {
			t.Fatalf("param %s too small: %dx%d", p.Name, p.W.R, p.W.C)
		}
	}
}

func TestCompressModelDegradesGracefully(t *testing.T) {
	corpus, m := setup(t)
	snap := SnapshotWeights(m)
	defer RestoreWeights(m, snap)

	basePPL := Perplexity(m, corpus, 6)

	// Generous budget: near-baseline quality.
	opts := core.DefaultOptions()
	avg, err := CompressModel(m, LLM265WeightCompressor(opts, 6))
	if err != nil {
		t.Fatal(err)
	}
	if avg > 6 {
		t.Fatalf("compressor exceeded budget: %.2f b/v", avg)
	}
	pplHi := Perplexity(m, corpus, 6)
	RestoreWeights(m, snap)

	// Starved budget: visibly worse.
	if _, err = CompressModel(m, LLM265WeightCompressor(opts, 1.0)); err != nil {
		t.Fatal(err)
	}
	pplLo := Perplexity(m, corpus, 6)
	RestoreWeights(m, snap)

	if pplHi > basePPL*1.4 {
		t.Fatalf("6-bit compression hurt too much: %.2f -> %.2f", basePPL, pplHi)
	}
	if pplLo <= pplHi {
		t.Fatalf("1-bit ppl %.2f should exceed 6-bit ppl %.2f", pplLo, pplHi)
	}
}

func TestVariableCompressorRoutesBudgets(t *testing.T) {
	_, m := setup(t)
	snap := SnapshotWeights(m)
	defer RestoreWeights(m, snap)
	opts := core.DefaultOptions()
	budgets := []float64{2.0, 5.0} // layer 0 starved, layer 1 generous
	seen := map[string]float64{}
	c := LLM265VariableCompressor(opts, budgets)
	wrapped := func(name string, w *nn.Mat) (*nn.Mat, float64, error) {
		rec, bits, err := c(name, w)
		seen[name] = bits
		return rec, bits, err
	}
	if _, err := CompressModel(m, wrapped); err != nil {
		t.Fatal(err)
	}
	if seen["block0.attn.wq.w"] > budgets[0] {
		t.Fatalf("layer-0 matrix got %.2f b/v, budget %.1f", seen["block0.attn.wq.w"], budgets[0])
	}
	if seen["block1.attn.wq.w"] > budgets[1] {
		t.Fatalf("layer-1 matrix got %.2f b/v, budget %.1f", seen["block1.attn.wq.w"], budgets[1])
	}
	if seen["block1.attn.wq.w"] <= seen["block0.attn.wq.w"] {
		t.Fatalf("budgets not routed: l0 %.2f l1 %.2f", seen["block0.attn.wq.w"], seen["block1.attn.wq.w"])
	}
}

func TestKVCompressionHookDegradesWithBitrate(t *testing.T) {
	corpus, m := setup(t)
	base := Perplexity(m, corpus, 4)

	m.SetKVHook(KVCompressorHook(core.DefaultOptions(), 6))
	hi := Perplexity(m, corpus, 4)
	m.SetKVHook(KVCompressorHook(core.DefaultOptions(), 1.0))
	lo := Perplexity(m, corpus, 4)
	m.SetKVHook(nil)

	if hi > base*1.6 {
		t.Fatalf("6-bit KV compression hurt too much: %.2f -> %.2f", base, hi)
	}
	if lo <= hi {
		t.Fatalf("1-bit KV ppl %.2f should exceed 6-bit %.2f", lo, hi)
	}
}

func TestSnapshotRestore(t *testing.T) {
	_, m := setup(t)
	snap := SnapshotWeights(m)
	p := m.Params()[3]
	orig := p.W.V[0]
	p.W.V[0] = orig + 42
	RestoreWeights(m, snap)
	if p.W.V[0] != orig {
		t.Fatal("restore failed")
	}
}

func TestZooConfigsValid(t *testing.T) {
	for name, spec := range Zoo() {
		c := spec.Cfg
		if c.Dim%c.Heads != 0 {
			t.Errorf("%s: dim %d not divisible by heads %d", name, c.Dim, c.Heads)
		}
		if spec.TrainSteps <= 0 || spec.Batch <= 0 || spec.LR <= 0 {
			t.Errorf("%s: bad recipe %+v", name, spec)
		}
	}
}

// TestKVCompressorHookFailsLoudly: an encode the codec rejects stops the run.
// The hook used to hand back the uncompressed pair, which measures FP16 under
// a compressed label. Nothing about a finite-shaped tensor makes core's front
// end fail, so the rejection here is the codec's own: the rANS backend with the
// entropy stage switched off.
func TestKVCompressorHookFailsLoudly(t *testing.T) {
	opts := core.DefaultOptions()
	opts.Tools.CABAC = false
	opts.Backend = codec.BackendRANS
	var panicked any
	func() {
		defer func() { panicked = recover() }()
		KVCompressorHook(opts, 2.9)(0, nn.NewMat(8, 16), nn.NewMat(8, 16))
	}()
	if _, ok := panicked.(error); !ok {
		t.Fatalf("the hook returned (panic value %v) from an encode the codec rejects", panicked)
	}
}
