package llm

import (
	"math"
	"math/rand"
	"testing"

	"repro/internal/baselines"
	"repro/internal/codec"
	"repro/internal/core"
	"repro/internal/data"
	"repro/internal/nn"
	"repro/internal/quant"
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
	avg, err := CompressModel(m, func(string) Compressor { return Codec(opts, 6) })
	if err != nil {
		t.Fatal(err)
	}
	if avg > 6 {
		t.Fatalf("compressor exceeded budget: %.2f b/v", avg)
	}
	pplHi := Perplexity(m, corpus, 6)
	RestoreWeights(m, snap)

	// Starved budget: visibly worse.
	if _, err = CompressModel(m, func(string) Compressor { return Codec(opts, 1.0) }); err != nil {
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

func TestKVCompressionHookDegradesWithBitrate(t *testing.T) {
	corpus, m := setup(t)
	base := Perplexity(m, corpus, 4)

	kv := func(bits float64) nn.KVHook {
		return KVHook(Codec(core.DefaultOptions(), bits), Codec(core.DefaultOptions(), bits))
	}
	m.SetKVHook(kv(6))
	hi := Perplexity(m, corpus, 4)
	m.SetKVHook(kv(1.0))
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

// TestCompressorSeam holds every constructor's bit accounting: RTN charges
// bits + 32 per group, Rotated one FP16
// scale+zero per row, a fresh Codec stays within its target, and Residual past
// its switch step adds a flat 8.00 bits for the RTN residual to the primary
// pass. RTN over groups of one row is per-row RTNAsymmetric bit for bit.
func TestCompressorSeam(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	w := nn.RandMat(rng, 40, 48, 1) // 1920 values: 15 groups of 128, 40 rows
	n := float64(len(w.V))
	opts := core.DefaultOptions()
	_, primary, err := Codec(opts, 3)(w)
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		name   string
		c      Compressor
		want   float64 // exact bits per value, or with atMost the ceiling
		atMost bool
	}{
		{"RTN(3,128)", RTN(3, 128), 3 + 32*15/n, false},
		{"RTN(4,whole)", RTN(4, 0), 4 + 32/n, false},
		{"RTN(4,row)", RTN(4, w.C), 4 + 32*40/n, false},
		{"Rotated(4)", Rotated(baselines.RandomRotation(rng, w.C), 4), 4 + 32*40/n, false},
		{"Codec(3)", Codec(opts, 3), 3, true},
		{"Residual(3,switch 0)", Residual(opts, 3, 0), primary + 8, false},
	} {
		rec, bits, err := c.c(w)
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		if rec.R != w.R || rec.C != w.C {
			t.Fatalf("%s: reconstruction %dx%d of a %dx%d matrix", c.name, rec.R, rec.C, w.R, w.C)
		}
		if c.atMost && bits > c.want || !c.atMost && math.Abs(bits-c.want) > 1e-12 {
			t.Errorf("%s: %.6f bits per value, want %.6f (at most: %v)", c.name, bits, c.want, c.atMost)
		}
	}

	rec, _, err := RTN(3, w.C)(w)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < w.R; i++ {
		for j, v := range quant.RTNAsymmetric(w.Row(i), 3) {
			if got := rec.Row(i)[j]; math.Float32bits(got) != math.Float32bits(v) {
				t.Fatalf("RTN(3, cols) row %d col %d = %v, per-row RTNAsymmetric %v", i, j, got, v)
			}
		}
	}
}

// TestKVCompressorHookFailsLoudly: an encode the codec rejects stops the run
// at both seams that lack a fallback. KVHook panics (the hook has no error
// result), and BoundaryPerplexity returns the error. Either used to hand back
// the uncompressed matrix, which measures FP16 under a compressed label.
// The rejection here is a profile id outside the three core's front end
// accepts.
func TestKVCompressorHookFailsLoudly(t *testing.T) {
	opts := core.DefaultOptions()
	opts.Profile = codec.Profile(7)
	rejected := Codec(opts, 2.9)
	var panicked any
	func() {
		defer func() { panicked = recover() }()
		KVHook(rejected, rejected)(0, nn.NewMat(8, 16), nn.NewMat(8, 16))
	}()
	if _, ok := panicked.(error); !ok {
		t.Fatalf("the hook returned (panic value %v) from an encode the codec rejects", panicked)
	}

	m := nn.NewTransformer(rand.New(rand.NewSource(1)), nn.Config{Vocab: 16, Dim: 16, Heads: 2, Layers: 2, SeqLen: 8, Hidden: 32})
	toks := [][][]int{{{1, 2, 3, 4, 5, 6, 7, 8}}}
	tgts := [][]int{{2, 3, 4, 5, 6, 7, 8, 9}}
	if ppl, err := BoundaryPerplexity(m, toks, tgts, 2, rejected); err == nil {
		t.Fatalf("BoundaryPerplexity returned perplexity %.3f from an encode the codec rejects", ppl)
	}
}
