package train

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
)

func smallSetup(seed int64) (*nn.Transformer, *data.Corpus) {
	rng := rand.New(rand.NewSource(seed))
	cfg := nn.Config{Vocab: 32, Dim: 16, Heads: 2, Layers: 4, SeqLen: 16, Hidden: 32}
	m := nn.NewTransformer(rng, cfg)
	corpus := data.NewCorpus(seed, 32, 20000, 4000)
	return m, corpus
}

func TestPipelineUncompressedLearns(t *testing.T) {
	m, corpus := smallSetup(1)
	res, err := RunPipeline(m, corpus, nn.NewAdam(3e-3), PipelineConfig{
		Stages: 4, AccumSteps: 2,
	}, 120, 2)
	if err != nil {
		t.Fatal(err)
	}
	if res.Curve[len(res.Curve)-1].Loss > res.Curve[5].Loss*0.8 {
		t.Fatalf("pipeline training not learning: %.3f -> %.3f",
			res.Curve[5].Loss, res.Curve[len(res.Curve)-1].Loss)
	}
	if res.ActBits != 16 || res.GradBits != 16 {
		t.Fatalf("uncompressed run should report 16-bit comm, got %.1f/%.1f", res.ActBits, res.GradBits)
	}
	if res.FinalPPL > 32 {
		t.Fatalf("final ppl %.1f above vocab", res.FinalPPL)
	}
}

func TestPipelineWithActivationCompressionStillLearns(t *testing.T) {
	m, corpus := smallSetup(3)
	res, err := RunPipeline(m, corpus, nn.NewAdam(3e-3), PipelineConfig{
		Stages: 4, AccumSteps: 2,
		CompressActivations: llm.Codec(core.DefaultOptions(), 3.5),
	}, 120, 4)
	if err != nil {
		t.Fatal(err)
	}
	if res.ActBits > 4.0 {
		t.Fatalf("activation compression averaged %.2f b/v, want ≲3.5", res.ActBits)
	}
	if res.Curve[len(res.Curve)-1].Loss > res.Curve[5].Loss*0.85 {
		t.Fatalf("compressed-activation training not learning: %.3f -> %.3f",
			res.Curve[5].Loss, res.Curve[len(res.Curve)-1].Loss)
	}
}

func TestPipelineResidualGradCompression(t *testing.T) {
	m, corpus := smallSetup(5)
	res, err := RunPipeline(m, corpus, nn.NewAdam(3e-3), PipelineConfig{
		Stages: 2, AccumSteps: 1,
		CompressActivations: llm.Codec(core.DefaultOptions(), 3.5),
		CompressActGrads:    llm.Residual(core.DefaultOptions(), 3.5, 40),
	}, 80, 6)
	if err != nil {
		t.Fatal(err)
	}
	// Phase-1 ≈ 7 b/v for 40 steps, phase-2 ≈ 11.5 for 40 → average ≈ 9.3.
	if res.GradBits < 6 || res.GradBits > 13 {
		t.Fatalf("gradient bits %.2f outside residual-compensation band", res.GradBits)
	}
	if res.Curve[len(res.Curve)-1].Loss > res.Curve[5].Loss {
		t.Fatalf("residual-compensated training diverged")
	}
}

// TestConfigsThatCannotTrainAreRefused: a config no step could run under
// returns an error before the first step, not a panic or NaN weights.
func TestConfigsThatCannotTrainAreRefused(t *testing.T) {
	for _, c := range []struct {
		name string
		run  func(*nn.Transformer, *data.Corpus) error
	}{
		{"pipeline AccumSteps 0", func(m *nn.Transformer, corpus *data.Corpus) error {
			_, err := RunPipeline(m, corpus, nn.NewAdam(3e-3), PipelineConfig{Stages: 4}, 2, 1)
			return err
		}},
		{"pipeline Stages 0", func(m *nn.Transformer, corpus *data.Corpus) error {
			_, err := RunPipeline(m, corpus, nn.NewAdam(3e-3), PipelineConfig{AccumSteps: 1}, 2, 1)
			return err
		}},
		{"pipeline Stages 3 of 4 blocks", func(m *nn.Transformer, corpus *data.Corpus) error {
			_, err := RunPipeline(m, corpus, nn.NewAdam(3e-3), PipelineConfig{Stages: 3, AccumSteps: 1}, 2, 1)
			return err
		}},
		{"data-parallel Batch 0", func(m *nn.Transformer, corpus *data.Corpus) error {
			_, err := RunDataParallel(context.Background(), m, corpus, nn.NewAdam(3e-3),
				DPConfig{Replicas: 2}, allreduce.Config{}, 2, 1, nil)
			return err
		}},
	} {
		t.Run(c.name, func(t *testing.T) {
			m, corpus := smallSetup(1)
			before := cloneWeights(m)
			func() {
				defer func() {
					if r := recover(); r != nil {
						t.Errorf("panicked: %v", r)
					}
				}()
				if err := c.run(m, corpus); err == nil {
					t.Error("returned no error")
				}
			}()
			if _, _, same := weightsBitIdentical(before, cloneWeights(m)); !same {
				t.Error("weights changed before the error")
			}
		})
	}
}

func TestBoundaryDetection(t *testing.T) {
	// 4 blocks, 2 stages → boundary after block 1 only.
	if !isBoundary(1, 2, 4) || isBoundary(0, 2, 4) || isBoundary(3, 2, 4) || isBoundary(2, 2, 4) {
		t.Fatal("boundary logic wrong for 4 blocks / 2 stages")
	}
	// 4 blocks, 4 stages → boundaries after 0,1,2.
	for i := 0; i < 3; i++ {
		if !isBoundary(i, 1, 4) {
			t.Fatalf("block %d should be a boundary", i)
		}
	}
	if isBoundary(3, 1, 4) {
		t.Fatal("last block is not a boundary")
	}
}

func TestDataParallelUncompressed(t *testing.T) {
	// A single replica sends no frame, so its run accounts nothing.
	for _, c := range []struct {
		replicas int
		avgBits  float64
	}{{2, 16}, {1, 0}} {
		m, corpus := smallSetup(7)
		res, err := RunDataParallel(context.Background(), m, corpus, nn.NewAdam(3e-3), DPConfig{
			Replicas: c.replicas, Batch: 4,
		}, allreduce.Config{}, 100, 8, nil)
		if err != nil {
			t.Fatal(err)
		}
		if res.AvgBits != c.avgBits || (res.WireBits == 0) != (c.avgBits == 0) {
			t.Fatalf("%d replicas: uncompressed DP avg bits %.1f, wire bits %d", c.replicas, res.AvgBits, res.WireBits)
		}
		if res.Curve[len(res.Curve)-1].Loss > res.Curve[5].Loss*0.8 {
			t.Fatalf("%d replicas: DP training not learning", c.replicas)
		}
	}
}

func TestDataParallelLLM265(t *testing.T) {
	m, corpus := smallSetup(9)
	res, err := RunDataParallel(context.Background(), m, corpus, nn.NewAdam(3e-3),
		DPConfig{Replicas: 2, Batch: 4},
		allreduce.Config{Codec: allreduce.RateCodec(core.DefaultOptions(), 2.6)}, 100, 10, nil)
	if err != nil {
		t.Fatal(err)
	}
	if res.AvgBits > 3.2 {
		t.Fatalf("LLM.265 DP averaged %.2f b/v, want ≈2.6", res.AvgBits)
	}
	if res.Curve[len(res.Curve)-1].Loss > res.Curve[5].Loss*0.9 {
		t.Fatal("LLM.265-compressed DP training not learning")
	}
}

func TestDataParallelOneBit(t *testing.T) {
	m, corpus := smallSetup(11)
	steps := 100
	warmup := steps * 15 / 100
	opt := nn.NewAdam(3e-3)
	res, err := RunDataParallel(context.Background(), m, corpus, opt,
		DPConfig{Replicas: 2, Batch: 4},
		allreduce.Config{Codec: allreduce.SignCodec(warmup), ErrorFeedback: true},
		steps, 12, func(step int) { opt.FreezeVariance = step+1 >= warmup })
	if err != nil {
		t.Fatal(err)
	}
	// 15% warm-up at 16 bits + 85% at 1 bit ≈ 3.25.
	if res.AvgBits < 2.5 || res.AvgBits > 4.0 {
		t.Fatalf("1-bit Adam avg bits %.2f, want ≈3.25", res.AvgBits)
	}
	if res.Curve[len(res.Curve)-1].Loss > res.Curve[5].Loss {
		t.Fatal("1-bit Adam diverged")
	}
}

// TestFig10ShapeOnLiveRing pins the convergence-vs-bitrate ordering that
// motivates the codec, on the live ring: every arm starts from the same
// initialization and sees the same data order, so the loss gaps isolate the
// gradient compression. The FP16 link carries exactly 16 b/v; LLM.265 at QP 28
// with error feedback stays at or under 4 b/v and within 10% of the FP16
// loss; naive RTN-2 near the same bitrate — no error feedback, quantizing
// each contribution that travels on reduce and the sum again on gather — trails
// LLM.265 by at least 1.25x the gap (measured 1.90x at 60 steps). Seeded init and data
// and a schedule-independent collective make each arm's trajectory
// deterministic, so its wire bits and final loss are pinned too: a drift in
// the trainer, the ring or the wire codec shows here even when the shape
// survives it.
func TestFig10ShapeOnLiveRing(t *testing.T) {
	const steps = 60
	cfg := nn.Config{Vocab: 32, Dim: 16, Heads: 2, Layers: 4, SeqLen: 16, Hidden: 32}
	arms := []struct {
		name     string
		rcfg     allreduce.Config
		wireBits int64
		loss     float64
	}{
		{"fp16", allreduce.Config{}, 18186240, 2.6226355070739937},
		{"llm265-qp28", allreduce.Config{Codec: allreduce.TensorCodec(core.DefaultOptions(), 28), ErrorFeedback: true},
			2366472, 2.730577347899613},
		{"rtn2", allreduce.Config{Codec: allreduce.RTNCodec(2, 128)}, 2557440, 2.828203640367417},
	}
	var loss, bits [3]float64
	for i, a := range arms {
		m := nn.NewTransformer(rand.New(rand.NewSource(99)), cfg)
		corpus := data.NewCorpus(1, cfg.Vocab, 20000, 4000)
		res, err := RunDataParallel(context.Background(), m, corpus, nn.NewAdam(3e-3),
			DPConfig{Replicas: 2, Batch: 4}, a.rcfg, steps, 7, nil)
		if err != nil {
			t.Fatalf("%s: %v", a.name, err)
		}
		loss[i], bits[i] = res.Curve[len(res.Curve)-1].Loss, res.AvgBits
		t.Logf("%-12s loss %.4f at %.2f b/v", a.name, loss[i], bits[i])
		if res.WireBits != a.wireBits {
			t.Errorf("%s: %d wire bits, pinned %d (collective traffic drifted)", a.name, res.WireBits, a.wireBits)
		}
		if math.Abs(loss[i]-a.loss) > 1e-9*a.loss {
			t.Errorf("%s: final loss %.16g, pinned %.16g (trajectory drifted)", a.name, loss[i], a.loss)
		}
	}

	if bits[0] != 16 {
		t.Errorf("fp16 link carried %.4f b/v, want exactly 16", bits[0])
	}
	if bits[1] > 4 {
		t.Errorf("llm265-qp28 carried %.4f b/v, want <= 4", bits[1])
	}
	llmGap, rtnGap := loss[1]-loss[0], loss[2]-loss[0]
	if llmGap > 0.10*loss[0] {
		t.Errorf("llm265-qp28 loss gap %.4f exceeds 10%% of the fp16 loss %.4f", llmGap, loss[0])
	}
	if rtnGap < 1.25*llmGap {
		t.Errorf("rtn2 gap %.4f vs llm265-qp28 gap %.4f: naive RTN no longer trails by 1.25x", rtnGap, llmGap)
	}
}

func TestLLM265BeatsRTN2OnGradientBuckets(t *testing.T) {
	// The mechanism behind Fig. 10's ordering (LLM.265@2.6 > RTN-4 >
	// RTN-2): on real gradient buckets from a training run, the codec's
	// reconstruction error at 2.6 bits is far below group-wise 2-bit RTN.
	// (The trajectory-level separation needs thousands of steps and is
	// exercised by the Fig. 10 experiment, not this unit test.)
	m, corpus := smallSetup(13)
	rng := rand.New(rand.NewSource(14))
	opt := nn.NewAdam(3e-3)
	for step := 0; step < 40; step++ {
		toks, tgts := corpus.Batch(rng, 4, m.Cfg.SeqLen)
		m.ZeroGrads()
		m.TrainStep(toks, tgts)
		opt.Step(m.Params())
	}
	var flat []float32
	for _, p := range m.Params() {
		if isMatrixGrad(p) {
			flat = append(flat, p.G.V...)
		}
	}
	rows := (len(flat) + bucketCols - 1) / bucketCols
	bucket := make([]float32, rows*bucketCols)
	copy(bucket, flat)

	// RateCodec moves its quantiser once per training step; give it a few steps on
	// the same bucket to settle on the 2.6-bit target before measuring.
	ctx := context.Background()
	codec := allreduce.RateCodec(core.DefaultOptions(), 2.6)(0)
	var recC []float32
	var bitsC float64
	for step := 0; step < 8; step++ {
		_, rec, cost, err := codec.Encode(ctx, bucket, rows, bucketCols)
		if err != nil {
			t.Fatal(err)
		}
		recC, bitsC = rec, float64(cost)/float64(len(bucket))
		codec.(allreduce.Stepper).AdvanceStep()
	}
	_, recR, costR, err := allreduce.RTNCodec(2, 128)(0).Encode(ctx, bucket, rows, bucketCols)
	if err != nil {
		t.Fatal(err)
	}
	bitsR := float64(costR) / float64(len(bucket))
	mse := func(a, b []float32) float64 {
		var s float64
		for i := range a {
			d := float64(a[i]) - float64(b[i])
			s += d * d
		}
		return s / float64(len(a))
	}
	mseC, mseR := mse(bucket, recC), mse(bucket, recR)
	if bitsC > 3.0 {
		t.Fatalf("codec used %.2f b/v, want ≈2.6", bitsC)
	}
	if bitsR > 2.5 {
		t.Fatalf("RTN-2 used %.2f b/v", bitsR)
	}
	if mseC*3 > mseR {
		t.Fatalf("codec MSE %.3g should be well below RTN-2 MSE %.3g", mseC, mseR)
	}
}
