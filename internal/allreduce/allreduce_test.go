package allreduce

import (
	"bytes"
	"context"
	"math"
	"math/rand"
	"sync"
	"sync/atomic"
	"testing"

	"repro/internal/codec"
	"repro/internal/core"
	"repro/internal/dct"
	"repro/internal/obs"
	"repro/internal/quant"
)

// randBuckets builds deterministic per-worker gradient buckets with a
// heavy-tailed-ish mix (mostly small values, occasional spikes) so lossy
// codecs have something real to chew on.
func randBuckets(seed int64, workers, rows, cols int) [][]float32 {
	rng := rand.New(rand.NewSource(seed))
	in := make([][]float32, workers)
	for w := range in {
		in[w] = make([]float32, rows*cols)
		for i := range in[w] {
			v := float32(rng.NormFloat64()) * 0.02
			if rng.Intn(64) == 0 {
				v *= 20
			}
			in[w][i] = v
		}
	}
	return in
}

// plainSum is the sequential reference reduction: float32 accumulation in
// ascending worker order.
func plainSum(in [][]float32) []float32 {
	out := make([]float32, len(in[0]))
	copy(out, in[0])
	for w := 1; w < len(in); w++ {
		for i, v := range in[w] {
			out[i] += v
		}
	}
	return out
}

func runRing(t *testing.T, cfg Config, in [][]float32) ([][]float32, Stats) {
	t.Helper()
	r, err := New(cfg)
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	out := make([][]float32, cfg.Workers)
	for w := range out {
		out[w] = make([]float32, cfg.Rows*cfg.Cols)
	}
	stats, err := r.Allreduce(context.Background(), in, out)
	if err != nil {
		t.Fatalf("Allreduce: %v", err)
	}
	return out, stats
}

// TestRawRingBitIdenticalToSequentialSum is the anchor property: with the
// lossless codec the concurrent ring computes, on every worker, exactly the
// float32 sum a sequential loop computes — bit for bit, at any ring size,
// any segmentation, any schedule seed.
func TestRawRingBitIdenticalToSequentialSum(t *testing.T) {
	const rows, cols = 24, 32
	for _, workers := range []int{1, 2, 3, 4, 8} {
		for _, segRows := range []int{0, 1, 5} {
			for _, schedSeed := range []int64{0, 1, 99} {
				in := randBuckets(42, workers, rows, cols)
				want := plainSum(in)
				out, stats := runRing(t, Config{
					Workers: workers, Rows: rows, Cols: cols, SegRows: segRows,
					Codec: RawCodec(), ScheduleSeed: schedSeed,
				}, in)
				for w := 0; w < workers; w++ {
					for i := range want {
						if math.Float32bits(out[w][i]) != math.Float32bits(want[i]) {
							t.Fatalf("workers=%d segRows=%d sched=%d: worker %d value %d = %g, want %g",
								workers, segRows, schedSeed, w, i, out[w][i], want[i])
						}
					}
				}
				// FP16 link accounting: traveling frames cover exactly
				// N·numel values at 16 bits each (N>1).
				if workers > 1 {
					wantBits := int64(workers) * int64(rows*cols) * 16
					if stats.WireBits != wantBits {
						t.Fatalf("workers=%d: WireBits=%d want %d", workers, stats.WireBits, wantBits)
					}
					if stats.Values != int64(workers)*int64(rows*cols) {
						t.Fatalf("workers=%d: Values=%d", workers, stats.Values)
					}
				} else if stats.WireBits != 0 {
					t.Fatalf("single worker moved %d wire bits", stats.WireBits)
				}
			}
		}
	}
}

// TestCompressedRingDeterministic pins the tentpole's schedule-independence
// claim on the real codec path: every schedule seed reproduces byte-identical
// outputs and identical wire accounting. That the frame's bytes do not depend
// on the backend's worker count or the kernels is internal/conformance's
// allreduce path.
func TestCompressedRingDeterministic(t *testing.T) {
	const ringN, rows, cols = 3, 16, 32
	in := randBuckets(7, ringN, rows, cols)
	var refOut [][]float32
	var refBits int64
	for _, schedSeed := range []int64{0, 3, 11} {
		out, stats := runRing(t, Config{
			Workers: ringN, Rows: rows, Cols: cols,
			Codec: TensorCodec(core.DefaultOptions(), 12), ErrorFeedback: true,
			ScheduleSeed: schedSeed,
		}, in)
		if refOut == nil {
			refOut, refBits = out, stats.WireBits
			continue
		}
		if stats.WireBits != refBits {
			t.Fatalf("sched=%d: WireBits %d != ref %d", schedSeed, stats.WireBits, refBits)
		}
		for w := 0; w < ringN; w++ {
			for i := range refOut[w] {
				if math.Float32bits(out[w][i]) != math.Float32bits(refOut[w][i]) {
					t.Fatalf("sched=%d: worker %d diverges at %d", schedSeed, w, i)
				}
			}
		}
	}
}

// TestGatherBroadcastsIdenticalValues: with a lossy codec every worker must
// still land on the same reconstruction (single gather encode, same bytes
// around the ring) — a worker-divergence bug here silently forks the model.
func TestGatherBroadcastsIdenticalValues(t *testing.T) {
	const ringN, rows, cols = 4, 12, 16
	in := randBuckets(11, ringN, rows, cols)
	out, _ := runRing(t, Config{
		Workers: ringN, Rows: rows, Cols: cols,
		Codec: RTNCodec(4, 64), ErrorFeedback: true,
	}, in)
	for w := 1; w < ringN; w++ {
		for i := range out[0] {
			if math.Float32bits(out[w][i]) != math.Float32bits(out[0][i]) {
				t.Fatalf("worker %d reconstruction diverges from worker 0 at %d: %g vs %g",
					w, i, out[w][i], out[0][i])
			}
		}
	}
}

// TestRTNCodecMatchesQuantGroupwise: the encoder's reconstruction comes from
// quant.RTNGroup, so what is left to prove is the payload — the decoder,
// which re-derives groups and scales from the wire bytes alone, must land on
// the encoder's reconstruction bit for bit (hostile values included), and
// the accounted bits must match RTNGroupwise's bits-per-value formula.
func TestRTNCodecMatchesQuantGroupwise(t *testing.T) {
	const rows, cols, bitsW, group = 8, 32, 3, 40
	vals := randBuckets(5, 1, rows, cols)[0]
	vals[3] = float32(math.NaN())
	vals[17] = float32(math.Inf(1))
	c := RTNCodec(bitsW, group)(0)
	payload, recon, gotBits, err := c.Encode(context.Background(), vals, rows, cols)
	if err != nil {
		t.Fatalf("encode: %v", err)
	}
	_, wantBPV := quant.RTNGroupwise(vals, bitsW, group)
	if got := float64(gotBits) / float64(len(vals)); math.Abs(got-wantBPV) > 1e-9 {
		t.Fatalf("accounted %.6f bits/value, reference %.6f", got, wantBPV)
	}
	dst := make([]float32, rows*cols)
	if err := c.Decode(context.Background(), payload, rows, cols, dst); err != nil {
		t.Fatalf("decode: %v", err)
	}
	for i := range recon {
		if math.Float32bits(dst[i]) != math.Float32bits(recon[i]) {
			t.Fatalf("decode[%d] = %g, encoder recon %g", i, dst[i], recon[i])
		}
	}
}

// TestRateQPLawLog2: the ring's integer 6·log₂ of a span — math.Frexp's
// exponent and dct.Log2Fixed of the mantissa — is math.Log2's to within its
// resolution, 6·2⁻¹⁶ QP, across spans 2⁻⁴⁰…2⁴⁰: powers of two, their
// neighbours and drawn mantissas.
func TestRateQPLawLog2(t *testing.T) {
	const res = 6.0 / (1 << dct.Log2Frac)
	rng := rand.New(rand.NewSource(3))
	for e := -40; e <= 40; e++ {
		p := math.Ldexp(1, e)
		for _, v := range []float64{p, math.Nextafter(p, 0), math.Nextafter(p, math.Inf(1)), p * (1 + rng.Float64()), p * 1.5} {
			got, want := float64(6*log2Fixed(v))/(1<<dct.Log2Frac), 6*math.Log2(v)
			if got > want+1e-9 || got < want-res-1e-9 {
				t.Fatalf("6·log₂ %v = %v, math.Log2 gives %v: more than %.2g apart", v, got, want, res)
			}
		}
	}
}

// TestRateCodecStepsOncePerStep: within a training step the quantiser is
// constant (the same segment encodes to the same bytes however many encodes
// came before it), AdvanceStep moves it toward the target, and what it holds
// is the step in gradient units — a segment of 4× the range is coded 12 QP
// lower, the QP a whole-bucket encode's shared 8-bit scale would give it.
func TestRateCodecStepsOncePerStep(t *testing.T) {
	const rows, cols, target = 16, 64, 2.0
	ctx := context.Background()
	segs := randBuckets(23, 2, rows, cols)
	c := RateCodec(core.DefaultOptions(), target)(0)
	first, _, _, err := c.Encode(ctx, segs[0], rows, cols)
	if err != nil {
		t.Fatalf("encode: %v", err)
	}
	if _, _, _, err := c.Encode(ctx, segs[1], rows, cols); err != nil {
		t.Fatalf("encode: %v", err)
	}
	again, _, cost, err := c.Encode(ctx, segs[0], rows, cols)
	if err != nil {
		t.Fatalf("encode: %v", err)
	}
	if !bytes.Equal(first, again) {
		t.Fatal("quantiser moved inside a step: same segment, different bytes")
	}
	miss := func(cost int64) float64 { return math.Abs(float64(cost)/float64(rows*cols) - target) }
	start := miss(cost)
	if start < 0.2 {
		t.Fatalf("start QP already within %.2f b/v of the target; test is vacuous", start)
	}
	var payload []byte
	for step := 0; step < 8; step++ {
		c.(Stepper).AdvanceStep()
		if payload, _, cost, err = c.Encode(ctx, segs[0], rows, cols); err != nil {
			t.Fatalf("encode: %v", err)
		}
	}
	if end := miss(cost); end > 0.15*target {
		t.Fatalf("after 8 steps still %.2f b/v from the %.1f target (started %.2f away)", end, target, start)
	}

	wide := make([]float32, len(segs[0]))
	for i, v := range segs[0] {
		wide[i] = 4 * v
	}
	widePayload, _, _, err := c.Encode(ctx, wide, rows, cols)
	if err != nil {
		t.Fatalf("encode: %v", err)
	}
	qp := func(payload []byte) int {
		enc, err := core.UnmarshalEncoded(payload)
		if err != nil {
			t.Fatalf("payload: %v", err)
		}
		return enc.QP
	}
	if a, b := qp(payload), qp(widePayload); a-b != 12 {
		t.Fatalf("segment at QP %d, its 4× scaling at QP %d; want 12 lower", a, b)
	}
}

// TestBlockCodecAlignsDefaultSegments: the default segment height is rounded
// up to whole codec blocks for a blockCodec (TensorCodec and RateCodec: the
// profile's CTU, 32 rows for the default H.265), left alone for every other
// codec, and an explicit SegRows is taken as given.
func TestBlockCodecAlignsDefaultSegments(t *testing.T) {
	opts := core.DefaultOptions()
	for _, c := range []struct {
		name  string
		cfg   Config
		wantS int
	}{
		{"rate default", Config{Workers: 2, Rows: 50, Codec: RateCodec(opts, 2.6)}, 2}, // ceil(50/4)=13 → 32: 32+18
		{"rate explicit", Config{Workers: 2, Rows: 50, Codec: RateCodec(opts, 2.6), SegRows: 13}, 4},
		{"tensor default", Config{Workers: 2, Rows: 50, Codec: TensorCodec(opts, 30)}, 2},
		{"tensor default, 4 workers", Config{Workers: 4, Rows: 100, Codec: TensorCodec(opts, 30)}, 4}, // ceil(100/8)=13 → 32: 3·32+4
		{"tensor explicit", Config{Workers: 4, Rows: 100, Codec: TensorCodec(opts, 30), SegRows: 13}, 8},
		{"tensor already whole", Config{Workers: 4, Rows: 256, Codec: TensorCodec(opts, 30)}, 8}, // ceil(256/8)=32
		{"raw default", Config{Workers: 2, Rows: 50, Codec: RawCodec()}, 4},
	} {
		c.cfg.Cols = 128
		r, err := New(c.cfg)
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		if got := len(r.segs); got != c.wantS {
			t.Errorf("%s: %d segments, want %d", c.name, got, c.wantS)
		}
	}
}

// TestSignCodecPhases: warmup steps pass through losslessly at 16 b/v;
// after AdvanceStep past warmup, payloads collapse to ~1 bit/value and the
// reconstruction is sign(v)·mean|v|.
func TestSignCodecPhases(t *testing.T) {
	const rows, cols = 4, 16
	vals := randBuckets(9, 1, rows, cols)[0]
	c := SignCodec(2)(0).(*signCodec)
	_, recon, b, err := c.Encode(context.Background(), vals, rows, cols)
	if err != nil {
		t.Fatalf("warmup encode: %v", err)
	}
	if recon != nil {
		t.Fatal("warmup must be lossless (nil recon)")
	}
	if b != int64(16*rows*cols) {
		t.Fatalf("warmup accounted %d bits", b)
	}
	c.AdvanceStep()
	c.AdvanceStep()
	payload, recon, b, err := c.Encode(context.Background(), vals, rows, cols)
	if err != nil {
		t.Fatalf("sign encode: %v", err)
	}
	if recon == nil {
		t.Fatal("sign phase must be lossy")
	}
	if b != int64(rows*cols)+32 {
		t.Fatalf("sign accounted %d bits", b)
	}
	var meanAbs float64
	for _, v := range vals {
		meanAbs += math.Abs(float64(v))
	}
	mean := float32(meanAbs / float64(rows*cols))
	dst := make([]float32, rows*cols)
	if err := c.Decode(context.Background(), payload, rows, cols, dst); err != nil {
		t.Fatalf("decode: %v", err)
	}
	for i, v := range vals {
		want := mean
		if v < 0 {
			want = -mean
		}
		if math.Float32bits(dst[i]) != math.Float32bits(want) || math.Float32bits(recon[i]) != math.Float32bits(want) {
			t.Fatalf("value %d: dst=%g recon=%g want %g", i, dst[i], recon[i], want)
		}
	}
}

// TestErrorFeedbackReducesBias: with a coarse quantizer — 2-bit RTN, or the
// 1-bit baseline's sign·mean|v| — repeating the same gradient should average
// out to the truth when EF is on: the accumulated output over K steps must
// track K·truth much more closely than without EF.
func TestErrorFeedbackReducesBias(t *testing.T) {
	const ringN, rows, cols = 2, 8, 16
	in := randBuckets(13, ringN, rows, cols)
	want := plainSum(in)

	// The EF bias shrinks with the step count and the non-EF bias does not, so
	// each row runs only as long as its quantizer needs.
	for _, c := range []struct {
		name  string
		codec CodecFactory
		steps int
	}{{"rtn2", RTNCodec(2, 32), 24}, {"sign", SignCodec(0), 48}} {
		accum := func(ef bool) []float64 {
			r, err := New(Config{Workers: ringN, Rows: rows, Cols: cols,
				Codec: c.codec, ErrorFeedback: ef})
			if err != nil {
				t.Fatalf("New: %v", err)
			}
			out := make([][]float32, ringN)
			for w := range out {
				out[w] = make([]float32, rows*cols)
			}
			acc := make([]float64, rows*cols)
			for s := 0; s < c.steps; s++ {
				if _, err := r.Allreduce(context.Background(), in, out); err != nil {
					t.Fatalf("step %d: %v", s, err)
				}
				for i, v := range out[0] {
					acc[i] += float64(v)
				}
				r.AdvanceStep()
			}
			return acc
		}

		bias := func(acc []float64) float64 {
			var e float64
			for i := range acc {
				d := acc[i]/float64(c.steps) - float64(want[i])
				e += d * d
			}
			return e
		}
		withEF, withoutEF := bias(accum(true)), bias(accum(false))
		if withoutEF == 0 {
			t.Fatalf("%s: quantizer was lossless; test is vacuous", c.name)
		}
		if withEF > withoutEF*0.25 {
			t.Fatalf("%s: EF bias %.3g not clearly below non-EF bias %.3g", c.name, withEF, withoutEF)
		}
	}
}

// TestRingMetrics: the obs registry sees the allreduce.* families with
// consistent totals.
func TestRingMetrics(t *testing.T) {
	const ringN, rows, cols = 3, 12, 16
	reg := obs.NewRegistry()
	in := randBuckets(3, ringN, rows, cols)
	_, stats := runRing(t, Config{
		Workers: ringN, Rows: rows, Cols: cols,
		Codec: RawCodec(), Metrics: reg,
	}, in)
	snap := reg.Snapshot()
	if got := snap.Counters["allreduce.steps"]; got != 1 {
		t.Fatalf("allreduce.steps = %d", got)
	}
	if got := snap.Counters["allreduce.wire.frames"]; got != stats.Frames {
		t.Fatalf("allreduce.wire.frames = %d, stats %d", got, stats.Frames)
	}
	if got := snap.Counters["allreduce.wire.payload_bytes"]; got != stats.PayloadBytes {
		t.Fatalf("allreduce.wire.payload_bytes = %d, stats %d", got, stats.PayloadBytes)
	}
	if stats.Frames == 0 || stats.PayloadBytes == 0 {
		t.Fatal("no wire traffic recorded")
	}
	if snap.Histograms["allreduce.segment.encode_ns"].Count == 0 {
		t.Fatal("no encode timings recorded")
	}
}

// TestRingRejectsBadConfig: constructor and call-time validation.
func TestRingRejectsBadConfig(t *testing.T) {
	for _, c := range []struct {
		name string
		cfg  Config
	}{
		{"0 workers", Config{Workers: 0, Rows: 4, Cols: 4, Codec: RawCodec()}},
		{"2^16 workers", Config{Workers: 1 << 16, Rows: 4, Cols: 4, Codec: RawCodec()}},
		{"0 rows", Config{Workers: 2, Rows: 0, Cols: 4, Codec: RawCodec()}},
		{"2^15+1 rows", Config{Workers: 2, Rows: 1<<15 + 1, Cols: 4, Codec: RawCodec()}},
		{"2^15+1 cols", Config{Workers: 2, Rows: 4, Cols: 1<<15 + 1, Codec: RawCodec()}},
		{"negative SegRows", Config{Workers: 2, Rows: 4, Cols: 4, SegRows: -1, Codec: RawCodec()}},
		{"nil codec", Config{Workers: 2, Rows: 4, Cols: 4}},
	} {
		if _, err := New(c.cfg); err == nil {
			t.Errorf("%s accepted", c.name)
		}
	}
	// The RTN payload header carries the group size as a u16: a larger one
	// would encode a payload its own decoder mis-groups.
	func() {
		defer func() {
			if recover() == nil {
				t.Fatal("RTNCodec accepted a group size its payload cannot carry")
			}
		}()
		RTNCodec(4, 1<<16)
	}()
	r, err := New(Config{Workers: 2, Rows: 4, Cols: 4, Codec: RawCodec()})
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	in := randBuckets(1, 2, 4, 4)
	out := [][]float32{make([]float32, 16), make([]float32, 15)}
	if _, err := r.Allreduce(context.Background(), in, out); err == nil {
		t.Fatal("short output buffer accepted")
	}
}

// TestRingOutMayAliasIn: writing the reduction over the input buffers is
// explicitly allowed (the train loop reuses its bucket that way).
func TestRingOutMayAliasIn(t *testing.T) {
	const ringN, rows, cols = 3, 8, 8
	in := randBuckets(21, ringN, rows, cols)
	want := plainSum(in)
	r, err := New(Config{Workers: ringN, Rows: rows, Cols: cols, Codec: RawCodec()})
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	if _, err := r.Allreduce(context.Background(), in, in); err != nil {
		t.Fatalf("Allreduce: %v", err)
	}
	for w := 0; w < ringN; w++ {
		for i := range want {
			if math.Float32bits(in[w][i]) != math.Float32bits(want[i]) {
				t.Fatalf("aliased run: worker %d value %d = %g, want %g", w, i, in[w][i], want[i])
			}
		}
	}
}

// TestEncodeReconIsDecode is SegmentCodec's contract that the ring leans on
// when a sender takes its error-feedback residual, and a segment's owner its
// own copy of the gathered result, from Encode instead of decoding the frame
// it just built: for every codec, what Encode
// returns as the reconstruction is what Decode makes of the payload, bit for
// bit — and a codec that returns none is lossless, so Decode gives the input
// back. The segments include the values a gradient should not hold (NaN, ±Inf,
// −0, denormals) and the shapes the tensor codec pads (rows and columns off
// its block grid).
func TestEncodeReconIsDecode(t *testing.T) {
	ransOpts := core.DefaultOptions()
	ransOpts.Backend = codec.BackendRANS
	warm := func(f CodecFactory) CodecFactory { // past the sign codec's warmup
		return func(w int) SegmentCodec {
			c := f(w)
			c.(Stepper).AdvanceStep()
			return c
		}
	}
	codecs := []struct {
		name    string
		factory CodecFactory
	}{
		{"raw", RawCodec()},
		{"tensor-cabac", TensorCodec(core.DefaultOptions(), 12)},
		{"tensor-rans", TensorCodec(ransOpts, 28)},
		{"rate", RateCodec(core.DefaultOptions(), 3)},
		{"rtn", RTNCodec(2, 128)},
		{"sign-warmup", SignCodec(1)},
		{"sign", warm(SignCodec(1))},
	}
	odd := []float32{float32(math.NaN()), float32(math.Inf(1)), float32(math.Inf(-1)),
		float32(math.Copysign(0, -1)), math.SmallestNonzeroFloat32, -math.MaxFloat32}
	for _, cd := range codecs {
		for trial, shape := range [][2]int{{64, 256}, {13, 40}, {1, 1}, {32, 128}, {5, 128}} {
			rows, cols := shape[0], shape[1]
			vals := randBuckets(int64(70+trial), 1, rows, cols)[0]
			if trial >= 3 {
				for i, v := range odd {
					vals[(7*i+3)%len(vals)] = v
				}
			}
			c := cd.factory(0)
			in := append([]float32(nil), vals...)
			payload, recon, _, err := c.Encode(context.Background(), in, rows, cols)
			if err != nil {
				t.Fatalf("%s %dx%d: encode: %v", cd.name, rows, cols, err)
			}
			if recon == nil {
				recon = vals
			}
			dst := make([]float32, rows*cols)
			if err := c.Decode(context.Background(), payload, rows, cols, dst); err != nil {
				t.Fatalf("%s %dx%d: decode: %v", cd.name, rows, cols, err)
			}
			for i := range dst {
				if math.Float32bits(dst[i]) != math.Float32bits(recon[i]) {
					t.Fatalf("%s %dx%d: value %d (input %g) decodes to %g (%#x), Encode's reconstruction says %g (%#x)",
						cd.name, rows, cols, i, vals[i], dst[i], math.Float32bits(dst[i]), recon[i], math.Float32bits(recon[i]))
				}
			}
		}
	}
}

// TestEncodePathsNeverDecode proves the self-decodes are gone, with the
// decoder's own call counter: every path that hands back "what the receiver
// reconstructs" beside an encode — the ring's two tensor codecs and the
// quality search; llm's TestCompressorsNeverDecode holds its compressors to
// the same — takes it from the encoder, so codec.decode.calls stays 0 while
// codec.encode.calls moves.
func TestEncodePathsNeverDecode(t *testing.T) {
	const rows, cols = 32, 64
	vals := randBuckets(31, 1, rows, cols)[0]
	tensor := func() *core.Tensor { return core.FromSlice(rows, cols, append([]float32(nil), vals...)) }
	ctx := context.Background()
	for _, tc := range []struct {
		name string
		run  func(o core.Options) error
	}{
		{"tensorCodec.Encode", func(o core.Options) error {
			_, _, _, err := TensorCodec(o, 12)(0).Encode(ctx, vals, rows, cols)
			return err
		}},
		{"rateCodec.Encode", func(o core.Options) error {
			c := RateCodec(o, 3)(0)
			for step := 0; step < 3; step++ { // the fixed first step, then the steered level
				if _, _, _, err := c.Encode(ctx, vals, rows, cols); err != nil {
					return err
				}
				c.(Stepper).AdvanceStep()
			}
			return nil
		}},
		{"EncodeStackToMSE", func(o core.Options) error {
			_, _, err := o.EncodeStackToMSE(ctx, []*core.Tensor{tensor()}, 1e-5)
			return err
		}},
	} {
		o := core.DefaultOptions()
		o.Workers, o.Metrics = 1, obs.NewRegistry()
		if err := tc.run(o); err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		c := o.Metrics.Snapshot().Counters
		if c["codec.encode.calls"] == 0 {
			t.Errorf("%s: the registry saw no encode", tc.name)
		}
		if got := c["codec.decode.calls"]; got != 0 {
			t.Errorf("%s: %d decodes on an encode path, want 0", tc.name, got)
		}
	}
}

// countingCodec counts the calls of the codec it wraps and the values it is
// handed to encode.
type countingCodec struct {
	SegmentCodec
	encodes, encoded, decodes *atomic.Int64
}

func (c countingCodec) Encode(ctx context.Context, vals []float32, rows, cols int) ([]byte, []float32, int64, error) {
	c.encodes.Add(1)
	c.encoded.Add(int64(len(vals)))
	return c.SegmentCodec.Encode(ctx, vals, rows, cols)
}

func (c countingCodec) Decode(ctx context.Context, payload []byte, rows, cols int, dst []float32) error {
	c.decodes.Add(1)
	return c.SegmentCodec.Decode(ctx, payload, rows, cols, dst)
}

// payloadLog records, across every worker of a ring, the first byte of each
// payload its codecs' Encode returned and of each payload Decode was handed.
type payloadLog struct {
	mu               sync.Mutex
	encoded          map[*byte]bool
	decodes, foreign int
}

// loggingCodec is a SegmentCodec that reports to a shared payloadLog.
type loggingCodec struct {
	SegmentCodec
	log *payloadLog
}

func (c loggingCodec) Encode(ctx context.Context, vals []float32, rows, cols int) ([]byte, []float32, int64, error) {
	payload, recon, cost, err := c.SegmentCodec.Encode(ctx, vals, rows, cols)
	if err == nil {
		c.log.mu.Lock()
		c.log.encoded[&payload[0]] = true
		c.log.mu.Unlock()
	}
	return payload, recon, cost, err
}

func (c loggingCodec) Decode(ctx context.Context, payload []byte, rows, cols int, dst []float32) error {
	c.log.mu.Lock()
	c.log.decodes++
	if len(payload) == 0 || !c.log.encoded[&payload[0]] {
		c.log.foreign++
	}
	c.log.mu.Unlock()
	return c.SegmentCodec.Decode(ctx, payload, rows, cols, dst)
}

// TestRingHandsPayloadsOnUncopied: what a receiver decodes is the very slice
// the sender's Encode returned — frames travel as values, and no hop copies
// or re-frames a payload (the contract SegmentCodec's doc states).
func TestRingHandsPayloadsOnUncopied(t *testing.T) {
	const workers, rows, cols, segRows, steps = 3, 24, 32, 4, 2
	log := &payloadLog{encoded: map[*byte]bool{}}
	r, err := New(Config{Workers: workers, Rows: rows, Cols: cols, SegRows: segRows,
		Codec: func(w int) SegmentCodec { return loggingCodec{RTNCodec(4, 32)(w), log} }})
	if err != nil {
		t.Fatal(err)
	}
	in, out := randBuckets(23, workers, rows, cols), randBuckets(0, workers, rows, cols)
	for step := 0; step < steps; step++ {
		if _, err := r.Allreduce(context.Background(), in, out); err != nil {
			t.Fatalf("step %d: %v", step, err)
		}
	}
	if want := steps * 2 * (rows / segRows) * (workers - 1); log.decodes != want || log.foreign != 0 {
		t.Fatalf("%d decodes (want %d), %d of them of a payload no Encode returned", log.decodes, want, log.foreign)
	}
}

// TestOwnerCodesNothingOfItsOwn: only what crosses a wire is coded. A segment's
// N−1 foreign contributions are encoded by their senders and decoded by its
// owner, the owner's own is summed as it is, and the sum is encoded once and
// decoded by the other N−1 — so a step of S segments on N workers makes S·N
// encodes and 2·S·(N−1) decodes whatever the codec, Stats.Values is exactly
// the values handed to Encode (the denominator EncodeNs is divided by), and
// under error feedback an owned segment never grows a reduce-side residual.
func TestOwnerCodesNothingOfItsOwn(t *testing.T) {
	const workers, rows, cols, segRows, steps = 4, 64, 32, 8, 3
	const segs = rows / segRows
	in := randBuckets(12, workers, rows, cols)
	out := randBuckets(0, workers, rows, cols)
	for _, tc := range []struct {
		name    string
		factory CodecFactory
	}{
		{"rtn", RTNCodec(4, 32)},
		{"tensor", TensorCodec(core.DefaultOptions(), 20)},
		{"raw", RawCodec()},
	} {
		var encodes, encoded, decodes atomic.Int64
		r, err := New(Config{Workers: workers, Rows: rows, Cols: cols, SegRows: segRows, ErrorFeedback: true,
			Codec: func(w int) SegmentCodec { return countingCodec{tc.factory(w), &encodes, &encoded, &decodes} }})
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		for step := 1; step <= steps; step++ {
			stats, err := r.Allreduce(context.Background(), in, out)
			if err != nil {
				t.Fatalf("%s step %d: %v", tc.name, step, err)
			}
			if got, want := encodes.Load(), int64(step*segs*workers); got != want {
				t.Errorf("%s: %d encodes after %d steps, want %d", tc.name, got, step, want)
			}
			if got, want := decodes.Load(), int64(step*2*segs*(workers-1)); got != want {
				t.Errorf("%s: %d decodes after %d steps, want %d", tc.name, got, step, want)
			}
			if got := encoded.Swap(0); stats.Values != got {
				t.Errorf("%s step %d: Stats.Values %d, but Encode was handed %d values", tc.name, step, stats.Values, got)
			}
			r.AdvanceStep()
		}
		for w := 0; w < workers; w++ {
			for si := 0; si < segs; si++ {
				if owned, has := si%workers == w, r.resid[w][si] != nil; tc.name != "raw" && owned == has {
					t.Errorf("%s: worker %d segment %d: owned %v, reduce-side residual %v", tc.name, w, si, owned, has)
				}
			}
		}
	}
}

// TestOneWorkerRingCodesNothing: on a ring of one nothing travels, so a lossy
// codec is never called and out is in, bit for bit.
func TestOneWorkerRingCodesNothing(t *testing.T) {
	const rows, cols = 24, 32
	in := randBuckets(17, 1, rows, cols)
	var encodes, encoded, decodes atomic.Int64
	out, stats := runRing(t, Config{Workers: 1, Rows: rows, Cols: cols, ErrorFeedback: true,
		Codec: func(w int) SegmentCodec { return countingCodec{RTNCodec(2, 32)(w), &encodes, &encoded, &decodes} }}, in)
	for i, v := range in[0] {
		if math.Float32bits(out[0][i]) != math.Float32bits(v) {
			t.Fatalf("value %d = %g, input %g", i, out[0][i], v)
		}
	}
	if encodes.Load() != 0 || decodes.Load() != 0 || stats != (Stats{}) {
		t.Errorf("%d encodes, %d decodes, stats %+v; want none", encodes.Load(), decodes.Load(), stats)
	}
}

// TestReducedValueIsPeersDecodedPlusOwnExact pins what the ring computes for a
// lossy codec, against the codec alone: segment by segment, the ascending-
// origin float32 sum of Decode(Encode(x_o)) for every origin but the owner and
// of x_owner itself, then the gather's own round trip — bit for bit, on every
// worker, across schedules and codec worker counts.
func TestReducedValueIsPeersDecodedPlusOwnExact(t *testing.T) {
	const workers, rows, cols, segRows = 3, 40, 48, 8
	ctx := context.Background()
	in := randBuckets(19, workers, rows, cols)
	roundTrip := func(c SegmentCodec, vals []float32, segRows int) []float32 {
		payload, _, _, err := c.Encode(ctx, append([]float32(nil), vals...), segRows, cols)
		if err != nil {
			t.Fatalf("reference encode: %v", err)
		}
		dst := make([]float32, len(vals))
		if err := c.Decode(ctx, payload, segRows, cols, dst); err != nil {
			t.Fatalf("reference decode: %v", err)
		}
		return dst
	}
	for _, tc := range []struct {
		name    string
		factory func(codecWorkers int) CodecFactory
	}{
		{"tensor", func(cw int) CodecFactory {
			opts := core.DefaultOptions()
			opts.Workers = cw
			return TensorCodec(opts, 16)
		}},
		{"rtn", func(int) CodecFactory { return RTNCodec(3, 64) }},
	} {
		c := tc.factory(1)(0)
		want := make([]float32, rows*cols)
		for si, start := 0, 0; start < rows; si, start = si+1, start+segRows {
			lo, hi := start*cols, (start+segRows)*cols
			contrib := make([][]float32, workers)
			for o := range contrib {
				contrib[o] = in[o][lo:hi]
				if o != si%workers {
					contrib[o] = roundTrip(c, contrib[o], segRows)
				}
			}
			copy(want[lo:hi], roundTrip(c, plainSum(contrib), segRows))
		}
		for _, schedSeed := range []int64{0, 1, 7} {
			for _, codecWorkers := range []int{1, 2, 4} {
				out, _ := runRing(t, Config{Workers: workers, Rows: rows, Cols: cols, SegRows: segRows,
					Codec: tc.factory(codecWorkers), ErrorFeedback: true, ScheduleSeed: schedSeed}, in)
				for w := range out {
					for i := range want {
						if math.Float32bits(out[w][i]) != math.Float32bits(want[i]) {
							t.Fatalf("%s sched=%d codec workers=%d: worker %d value %d = %g, reference %g",
								tc.name, schedSeed, codecWorkers, w, i, out[w][i], want[i])
						}
					}
				}
			}
		}
	}
}
