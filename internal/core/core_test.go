package core

import (
	"bytes"
	"context"
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/codec"
	"repro/internal/frame"
	"repro/internal/quant"
	"repro/internal/tensorgen"
)

func weightTensor(seed int64, rows, cols int) *Tensor {
	rng := rand.New(rand.NewSource(seed))
	return FromSlice(rows, cols, tensorgen.Weights(rng, rows, cols))
}

// encode1 encodes w, a stack of one layer, at qp.
func encode1(t *testing.T, o Options, w *Tensor, qp int) *Encoded {
	t.Helper()
	e, err := o.EncodeStackCtx(context.Background(), []*Tensor{w}, qp)
	if err != nil {
		t.Fatal(err)
	}
	return e
}

// decode1 decodes e's first layer.
func decode1(t *testing.T, o Options, e *Encoded) *Tensor {
	t.Helper()
	d, err := o.DecodeStackCtx(context.Background(), e)
	if err != nil {
		t.Fatal(err)
	}
	return d[0]
}

// roundtrip encodes and decodes w at qp.
func roundtrip(t *testing.T, o Options, w *Tensor, qp int) *Tensor {
	t.Helper()
	return decode1(t, o, encode1(t, o, w, qp))
}

func TestEncodeDecodeRoundTrip(t *testing.T) {
	w := weightTensor(1, 128, 128)
	o := DefaultOptions()
	for _, qp := range []int{8, 24, 40} {
		d := roundtrip(t, o, w, qp)
		if d.Rows != w.Rows || d.Cols != w.Cols {
			t.Fatalf("shape changed: %dx%d", d.Rows, d.Cols)
		}
		// Error must be bounded by the value range at any QP (sanity) and
		// small at low QP.
		if qp == 8 {
			rel := math.Sqrt(w.MSE(d)) / stddev(w.Data)
			if rel > 0.15 {
				t.Fatalf("qp 8: relative RMSE %.3f too large", rel)
			}
		}
	}
}

func stddev(v []float32) float64 {
	var m, m2 float64
	for _, x := range v {
		m += float64(x)
	}
	m /= float64(len(v))
	for _, x := range v {
		d := float64(x) - m
		m2 += d * d
	}
	return math.Sqrt(m2 / float64(len(v)))
}

func TestHigherQPFewerBitsMoreError(t *testing.T) {
	w := weightTensor(2, 128, 128)
	o := DefaultOptions()
	prevBits := math.Inf(1)
	prevMSE := 0.0
	for _, qp := range []int{8, 20, 32, 44} {
		e := encode1(t, o, w, qp)
		d := decode1(t, o, e)
		if e.BitsPerValue() > prevBits {
			t.Fatalf("qp %d: bits %.3f not decreasing", qp, e.BitsPerValue())
		}
		m := w.MSE(d)
		if m < prevMSE {
			t.Fatalf("qp %d: MSE %.6g decreased vs %.6g", qp, m, prevMSE)
		}
		prevBits, prevMSE = e.BitsPerValue(), m
	}
}

func TestFractionalBitrateTargets(t *testing.T) {
	w := weightTensor(3, 128, 128)
	o := DefaultOptions()
	for _, target := range []float64{2.3, 2.9, 3.5} {
		e, _, err := o.EncodeStackToBitrate(context.Background(), []*Tensor{w}, target)
		if err != nil {
			t.Fatal(err)
		}
		if e.BitsPerValue() > target {
			t.Fatalf("target %.1f: achieved %.3f", target, e.BitsPerValue())
		}
		if e.BitsPerValue() < target*0.4 {
			t.Fatalf("target %.1f: achieved only %.3f — rate control too loose", target, e.BitsPerValue())
		}
	}
}

func TestEncodeStackToMSEMeetsBudget(t *testing.T) {
	w := weightTensor(4, 96, 96)
	o := DefaultOptions()
	// Budget relative to the tensor's variance.
	budget := stddev(w.Data) * stddev(w.Data) * 0.01
	e, d, err := o.EncodeStackToMSE(context.Background(), []*Tensor{w}, budget)
	if err != nil {
		t.Fatal(err)
	}
	if got := w.MSE(d[0]); got > budget {
		t.Fatalf("MSE %.6g exceeds budget %.6g", got, budget)
	}
	if e.BitsPerValue() > 8 {
		t.Fatalf("MSE-constrained encode used %.2f b/v — worse than raw 8-bit", e.BitsPerValue())
	}
}

func TestStackRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	raw := tensorgen.WeightStack(rng, 4, 64, 64, 0.1)
	stack := make([]*Tensor, len(raw))
	for i, d := range raw {
		stack[i] = FromSlice(64, 64, d)
	}
	o := DefaultOptions()
	e, err := o.EncodeStackCtx(context.Background(), stack, 20)
	if err != nil {
		t.Fatal(err)
	}
	dec, err := o.DecodeStackCtx(context.Background(), e)
	if err != nil {
		t.Fatal(err)
	}
	if len(dec) != 4 {
		t.Fatalf("decoded %d layers", len(dec))
	}
	for i := range dec {
		rel := math.Sqrt(stack[i].MSE(dec[i])) / (stddev(stack[i].Data) + 1e-12)
		if rel > 0.35 {
			t.Fatalf("layer %d: relative RMSE %.3f", i, rel)
		}
	}
}

func TestPerRowQuantHandlesOutlierRows(t *testing.T) {
	// One row with a 100× scale ruins per-tensor 8-bit mapping for the
	// other rows; per-row mapping contains it.
	rng := rand.New(rand.NewSource(6))
	w := NewTensor(64, 64)
	for i := range w.Data {
		w.Data[i] = float32(rng.NormFloat64())
	}
	for c := 0; c < 64; c++ {
		w.Data[10*64+c] *= 100
	}
	perTensor := DefaultOptions()
	perRow := DefaultOptions()
	perRow.PerRowQuant = true
	dT := roundtrip(t, perTensor, w, 10)
	dR := roundtrip(t, perRow, w, 10)
	// Compare error on the non-outlier rows only.
	errOn := func(d *Tensor) float64 {
		var s float64
		n := 0
		for r := 0; r < 64; r++ {
			if r == 10 {
				continue
			}
			for c := 0; c < 64; c++ {
				dd := float64(w.Data[r*64+c] - d.Data[r*64+c])
				s += dd * dd
				n++
			}
		}
		return s / float64(n)
	}
	if errOn(dR) >= errOn(dT) {
		t.Fatalf("per-row MSE %.6g should beat per-tensor %.6g on outlier-row data",
			errOn(dR), errOn(dT))
	}
}

func TestMarshalUnmarshalRoundTrip(t *testing.T) {
	w := weightTensor(7, 80, 100)
	o := DefaultOptions()
	e := encode1(t, o, w, 22)
	e2, err := UnmarshalEncoded(e.Marshal())
	if err != nil {
		t.Fatal(err)
	}
	d1, d2 := decode1(t, o, e), decode1(t, o, e2)
	for i := range d1.Data {
		if d1.Data[i] != d2.Data[i] {
			t.Fatalf("marshal roundtrip changed value at %d", i)
		}
	}
}

func TestUnmarshalRejectsGarbage(t *testing.T) {
	if _, err := UnmarshalEncoded(nil); err == nil {
		t.Fatal("nil accepted")
	}
	if _, err := UnmarshalEncoded([]byte("XXXXXXXXXXXX")); err == nil {
		t.Fatal("garbage accepted")
	}
}

func TestVariableSchedule(t *testing.T) {
	s := VariableSchedule(8, 3.0, 0.2, 0.4)
	var sum float64
	for i := 1; i < len(s); i++ {
		if s[i] < s[i-1] {
			t.Fatalf("positive slope schedule not nondecreasing: %v", s)
		}
	}
	for _, v := range s {
		sum += v
	}
	if math.Abs(sum/8-3.0) > 1e-9 {
		t.Fatalf("schedule average %.4f, want 3.0", sum/8)
	}
	// Flooring case: steep negative slope.
	s2 := VariableSchedule(8, 1.0, -0.5, 0.4)
	var sum2 float64
	for _, v := range s2 {
		if v < 0.4-1e-9 {
			t.Fatalf("budget below floor: %v", s2)
		}
		sum2 += v
	}
	if sum2/8 > 1.0+1e-9 {
		t.Fatalf("floored schedule average %.4f exceeds budget", sum2/8)
	}
}

func TestSearchVariableScheduleIncludesFixed(t *testing.T) {
	// The search must never do worse than k=0 under the same eval.
	evalCalls := 0
	eval := func(b []float64) float64 {
		evalCalls++
		// Pretend later layers are easier: reward positive slope.
		return -b[len(b)-1]
	}
	sched, score, err := SearchVariableSchedule(6, 3, []float64{-0.2, 0.2, 0.4}, eval)
	if err != nil {
		t.Fatal(err)
	}
	if evalCalls != 4 { // 3 + injected k=0
		t.Fatalf("eval called %d times, want 4", evalCalls)
	}
	if score > -3 { // fixed schedule scores -3; best must be ≤
		t.Fatalf("search lost to fixed schedule: %f", score)
	}
	if sched[len(sched)-1] <= sched[0] {
		t.Fatalf("expected positive-slope winner, got %v", sched)
	}
}

func TestInterFrameHurtsOnWeightStacks(t *testing.T) {
	// The paper's negative result (§3.1): enabling inter-frame prediction
	// on layer stacks increases bits per value.
	rng := rand.New(rand.NewSource(11))
	raw := tensorgen.WeightStack(rng, 4, 96, 96, 0.05)
	stack := make([]*Tensor, len(raw))
	for i, d := range raw {
		stack[i] = FromSlice(96, 96, d)
	}
	intraOnly := DefaultOptions()
	withInter := DefaultOptions()
	withInter.Tools.InterPred = true
	e1, err := intraOnly.EncodeStackCtx(context.Background(), stack, 26)
	if err != nil {
		t.Fatal(err)
	}
	e2, err := withInter.EncodeStackCtx(context.Background(), stack, 26)
	if err != nil {
		t.Fatal(err)
	}
	// Inter must yield no meaningful gain (allowing sub-2% noise either
	// way); on video-like correlated stacks it wins by far more than this.
	if e2.BitsPerValue() < e1.BitsPerValue()*0.98 {
		t.Fatalf("inter (%.3f b/v) should not meaningfully beat intra-only (%.3f b/v) on uncorrelated layers",
			e2.BitsPerValue(), e1.BitsPerValue())
	}
}

// TestEncodedBitsAccountingProperty: SizeBits is the stream, 32 bits for each
// scale and zero, and a 14-byte header charge — 22 bytes short of the 36 fixed
// bytes Marshal writes, a figure every pinned bits per value includes.
func TestEncodedBitsAccountingProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		rows := rng.Intn(60) + 8
		cols := rng.Intn(60) + 8
		w := FromSlice(rows, cols, tensorgen.Weights(rng, rows, cols))
		o := DefaultOptions()
		e, err := o.EncodeStackCtx(context.Background(), []*Tensor{w}, 30)
		if err != nil {
			return false
		}
		want := len(e.Stream)*8 + 32*(len(e.Scales)+len(e.Zeros)) + 14*8
		return e.SizeBits() == want && e.BitsPerValue() > 0 && len(e.Marshal())*8-e.SizeBits() == 176
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Fatal(err)
	}
}

func TestOptionsNormalization(t *testing.T) {
	o, err := Options{}.normalized() // zero value: everything unset
	if err != nil || o.Profile != codec.HEVC || o.MaxFrameW <= 0 || o.MaxFrameH <= 0 {
		t.Fatalf("normalization failed: %+v, %v", o, err)
	}
	big, err := Options{Profile: codec.H264, MaxFrameW: 1 << 20, MaxFrameH: 1 << 20}.normalized()
	if err != nil || big.MaxFrameW != codec.H264.MaxFrameDim() {
		t.Fatalf("frame clamp failed: %d, %v", big.MaxFrameW, err)
	}
}

// TestDequantLayerMatchesFromUint8: the decode side's dequantisation — a
// 256-entry table for per-layer metadata, in-place rows for per-row — gives
// quant.FromUint8's value for every pixel value, bit for bit, including the
// scales whose float32 affine map overflows and takes FromUint8's clamped
// float64 branch.
func TestDequantLayerMatchesFromUint8(t *testing.T) {
	pix := make([]uint8, 256)
	for i := range pix {
		pix[i] = uint8(i)
	}
	plane := frame.NewPlane(16, 16)
	copy(plane.Pix, pix)
	for _, sz := range [][2]float32{
		{0.0123, -1.5}, {0, 3}, {math.MaxFloat32 / 100, -math.MaxFloat32},
		{math.MaxFloat32, math.MaxFloat32}, {float32(math.NaN()), 1}, {1e-40, float32(math.Inf(-1))},
	} {
		want := quant.FromUint8(pix, sz[0], sz[1])
		for _, perRow := range []bool{false, true} {
			e := &Encoded{Rows: 16, Cols: 16, Layers: 1, PerRow: perRow, MaxFrameW: 1024, MaxFrameH: 1024}
			n := 1
			if perRow {
				n = e.Rows
			}
			for i := 0; i < n; i++ {
				e.Scales, e.Zeros = append(e.Scales, sz[0]), append(e.Zeros, sz[1])
			}
			got, missing := e.dequantLayer(0, []*frame.Plane{plane}, e.regions())
			if missing != 0 {
				t.Fatalf("%d planes missing", missing)
			}
			for i := range want {
				if math.Float32bits(got.Data[i]) != math.Float32bits(want[i]) {
					t.Fatalf("scale %g zero %g perRow=%v: pixel %d dequantises to %g, FromUint8 gives %g",
						sz[0], sz[1], perRow, i, got.Data[i], want[i])
				}
			}
		}
	}
}

// TestNaNSanitizedEquivalence: a tensor carrying NaN/Inf values is sanitized
// by the quantizer, and the sanitized encode must remain a pure function of
// the input — identical bytes at every worker count, and finite
// reconstructions throughout.
func TestNaNSanitizedEquivalence(t *testing.T) {
	w := weightTensor(5, 96, 96)
	w.Data[0] = float32(math.NaN())
	w.Data[777] = float32(math.Inf(1))
	w.Data[4242] = float32(math.Inf(-1))

	o := DefaultOptions()
	o.Workers = 1
	ref, err := o.EncodeStackCtx(context.Background(), []*Tensor{w}, 28)
	if err != nil {
		t.Fatal(err)
	}
	for _, workers := range []int{2, 4, 8} {
		o.Workers = workers
		e, err := o.EncodeStackCtx(context.Background(), []*Tensor{w}, 28)
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		if !bytes.Equal(e.Stream, ref.Stream) {
			t.Errorf("workers=%d: NaN-sanitized bytes differ from workers=1", workers)
		}
	}
	dec, err := o.DecodeStackCtx(context.Background(), ref)
	if err != nil {
		t.Fatal(err)
	}
	for i, v := range dec[0].Data {
		if math.IsNaN(float64(v)) || math.IsInf(float64(v), 0) {
			t.Fatalf("non-finite reconstruction at %d: %v", i, v)
		}
	}
}
