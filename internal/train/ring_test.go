package train

import (
	"context"
	"math"
	"testing"

	"repro/internal/allreduce"
	"repro/internal/core"
	"repro/internal/nn"
)

// cloneWeights snapshots every parameter's weight values.
func cloneWeights(m *nn.Transformer) [][]float32 {
	var out [][]float32
	for _, p := range m.Params() {
		w := make([]float32, len(p.W.V))
		copy(w, p.W.V)
		out = append(out, w)
	}
	return out
}

func weightsBitIdentical(a, b [][]float32) (int, int, bool) {
	for pi := range a {
		for i := range a[pi] {
			if math.Float32bits(a[pi][i]) != math.Float32bits(b[pi][i]) {
				return pi, i, false
			}
		}
	}
	return 0, 0, true
}

// TestRingTwinWireCodecDeterministic: with the real codec on the wire — at a
// fixed QP or steered to a bitrate by RateCodec, whose QP trajectory must not
// depend on encode order — the training trajectory is byte/loss-deterministic
// across random channel schedules. That a frame's bytes do not depend on the
// codec's worker count, backend or kernels is internal/conformance's
// allreduce path.
func TestRingTwinWireCodecDeterministic(t *testing.T) {
	const steps = 4
	codecs := []struct {
		name  string
		build func(core.Options) allreduce.CodecFactory
	}{
		{"tensor-qp24", func(o core.Options) allreduce.CodecFactory { return allreduce.TensorCodec(o, 24) }},
		{"rate-2.6", func(o core.Options) allreduce.CodecFactory { return allreduce.RateCodec(o, 2.6) }},
	}
	for _, c := range codecs {
		var refW [][]float32
		var refBits int64
		for _, schedSeed := range []int64{0, 9} {
			m, corpus := smallSetup(51)
			res, err := RunDataParallel(context.Background(), m, corpus,
				nn.NewAdam(3e-3), DPConfig{Replicas: 2, Batch: 2},
				allreduce.Config{
					Codec:         c.build(core.DefaultOptions()),
					ErrorFeedback: true,
					ScheduleSeed:  schedSeed,
				}, steps, 52, nil)
			if err != nil {
				t.Fatal(err)
			}
			w := cloneWeights(m)
			if refW == nil {
				refW, refBits = w, res.WireBits
				continue
			}
			if res.WireBits != refBits {
				t.Fatalf("%s sched=%d: WireBits %d != ref %d", c.name, schedSeed, res.WireBits, refBits)
			}
			if pi, i, ok := weightsBitIdentical(refW, w); !ok {
				t.Fatalf("%s sched=%d: weights diverge at param %d index %d", c.name, schedSeed, pi, i)
			}
		}
		if refBits == 0 {
			t.Fatalf("%s: no wire bits accounted", c.name)
		}
	}
}

// TestRingTwinCompressedStillLearns: the wire-codec path at a real bitrate
// keeps the model converging and reports compressed accounting.
func TestRingTwinCompressedStillLearns(t *testing.T) {
	m, corpus := smallSetup(61)
	res, err := RunDataParallel(context.Background(), m, corpus,
		nn.NewAdam(3e-3), DPConfig{Replicas: 2, Batch: 4},
		allreduce.Config{
			Codec:         allreduce.TensorCodec(core.DefaultOptions(), 24),
			ErrorFeedback: true,
		}, 60, 62, nil)
	if err != nil {
		t.Fatal(err)
	}
	if res.Curve[len(res.Curve)-1].Loss > res.Curve[5].Loss*0.9 {
		t.Fatalf("ring-compressed training not learning: %.3f -> %.3f",
			res.Curve[5].Loss, res.Curve[len(res.Curve)-1].Loss)
	}
	if res.AvgBits <= 0 || res.AvgBits >= 16 {
		t.Fatalf("compressed AvgBits = %.2f, want in (0,16)", res.AvgBits)
	}
	if res.EncodeMBps <= 0 {
		t.Fatal("no encode throughput measured")
	}
}

// TestRingTwinRejectsForcedGeometry: the ring geometry is derived from the
// model and DPConfig and cannot be forced by the caller.
func TestRingTwinRejectsForcedGeometry(t *testing.T) {
	m, corpus := smallSetup(71)
	_, err := RunDataParallel(context.Background(), m, corpus, nn.NewAdam(3e-3),
		DPConfig{Replicas: 2, Batch: 2},
		allreduce.Config{Workers: 5}, 1, 72, nil)
	if err == nil {
		t.Fatal("forced ring geometry accepted")
	}
}

// TestRingTwinCancellation: a cancelled context unwinds the trainer with the
// context error.
func TestRingTwinCancellation(t *testing.T) {
	m, corpus := smallSetup(81)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := RunDataParallel(ctx, m, corpus, nn.NewAdam(3e-3),
		DPConfig{Replicas: 2, Batch: 2}, allreduce.Config{}, 4, 82, nil); err == nil {
		t.Fatal("cancelled context did not stop the run")
	}
}

// TestLossEMASeedRegression pins the lossEMA fix: a first step whose loss is
// exactly zero must seed the average at zero and then track subsequent
// losses, instead of re-seeding forever. Before the fix, emaUpdate's
// ema==0 sentinel made every later step re-seed, so the curve jumped to the
// raw per-step loss instead of smoothing.
func TestLossEMASeedRegression(t *testing.T) {
	// Trajectory: 0 at step 0, then constant 1.0. The correct EMA after
	// seeding 0 is 1−0.9^k — far below 1.0 at k=1 (0.1). The broken
	// sentinel re-seeds to 1.0 at step 1 and blends from there.
	ema := 0.0
	losses := []float64{0, 1, 1, 1}
	for step, l := range losses {
		ema = emaUpdate(step, ema, l)
	}
	want := 0.0
	for step, l := range losses {
		if step == 0 {
			want = l
			continue
		}
		want = 0.9*want + 0.1*l
	}
	if math.Abs(ema-want) > 1e-15 {
		t.Fatalf("ema = %v, want %v", ema, want)
	}
	// The decisive check: after [0, 1] the EMA must be 0.1, not 1.0.
	ema = emaUpdate(0, 0, 0)
	ema = emaUpdate(1, ema, 1)
	if math.Abs(ema-0.1) > 1e-15 {
		t.Fatalf("zero-seeded EMA after one unit loss = %v, want 0.1 (sentinel bug)", ema)
	}
	// And a legitimate zero-crossing trajectory must not re-seed either.
	ema = emaUpdate(0, 0, 5)
	ema = emaUpdate(1, ema, -5) // crosses zero: 0.9·5 + 0.1·(−5) = 4.0
	if math.Abs(ema-4.0) > 1e-15 {
		t.Fatalf("EMA after sign flip = %v, want 4.0", ema)
	}
}

// TestBucketGatherScatterSteadyStateAllocs pins the bucket hoist: the
// per-replica-per-step gather and the per-step scatter must not allocate in
// steady state (the bucket Mat is reused for the whole run).
func TestBucketGatherScatterSteadyStateAllocs(t *testing.T) {
	m, _ := smallSetup(91)
	params := m.Params()
	bb := newBucketBuffer(params)
	if bb.total == 0 {
		t.Fatal("no bucketed parameters in the test model")
	}
	// Warm once so lazy state settles.
	bb.scatter(bb.gather().V)
	allocs := testing.AllocsPerRun(50, func() {
		bb.scatter(bb.gather().V)
	})
	if allocs != 0 {
		t.Fatalf("bucket gather/scatter allocates %.1f objects per replica-step after hoist, want 0", allocs)
	}
}

// TestBucketBufferRoundTrip: gather/scatter move gradients faithfully and
// keep the padding tail zero.
func TestBucketBufferRoundTrip(t *testing.T) {
	m, _ := smallSetup(95)
	params := m.Params()
	for i, p := range params {
		for j := range p.G.V {
			p.G.V[j] = float32(i*1000+j) * 1e-3
		}
	}
	bb := newBucketBuffer(params)
	b := bb.gather()
	for i := bb.total; i < len(b.V); i++ {
		if b.V[i] != 0 {
			t.Fatalf("padding tail dirty at %d: %g", i, b.V[i])
		}
	}
	// Corrupt gradients, scatter back, verify restoration.
	snapshot := make([]float32, len(b.V))
	copy(snapshot, b.V)
	for _, p := range bb.bucketed {
		for j := range p.G.V {
			p.G.V[j] = -1
		}
	}
	bb.scatter(snapshot)
	off := 0
	for _, p := range bb.bucketed {
		for j := range p.G.V {
			if p.G.V[j] != snapshot[off+j] {
				t.Fatalf("scatter mismatch at param offset %d+%d", off, j)
			}
		}
		off += len(p.G.V)
	}
}
