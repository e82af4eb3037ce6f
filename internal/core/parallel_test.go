package core

import (
	"bytes"
	"context"
	"math"
	"math/rand"
	"testing"

	"repro/internal/tensorgen"
)

func randStack(seed int64, layers, rows, cols int) []*Tensor {
	rng := rand.New(rand.NewSource(seed))
	stack := make([]*Tensor, layers)
	for l := range stack {
		stack[l] = FromSlice(rows, cols, tensorgen.Weights(rng, rows, cols))
	}
	return stack
}

// TestEncodeStackSurfacesStats pins the satellite fix: EncodeStack must no
// longer discard the codec's Stats — callers can read distortion without a
// decode pass, and the numbers must be consistent with SizeBits().
func TestEncodeStackSurfacesStats(t *testing.T) {
	stack := randStack(31, 3, 64, 64)
	o := DefaultOptions()
	e, err := o.EncodeStackCtx(context.Background(), stack, 26)
	if err != nil {
		t.Fatal(err)
	}
	if e.Stats.Bits == 0 || e.Stats.Pixels == 0 {
		t.Fatalf("stats not surfaced: %+v", e.Stats)
	}
	if e.Stats.Bits != len(e.Stream)*8 {
		t.Fatalf("Stats.Bits %d != stream bits %d", e.Stats.Bits, len(e.Stream)*8)
	}
	// SizeBits = stream bits + metadata bits; Stats.Bits is the stream part.
	wantSize := e.Stats.Bits + 32*(len(e.Scales)+len(e.Zeros)) + 14*8
	if e.SizeBits() != wantSize {
		t.Fatalf("SizeBits %d inconsistent with Stats.Bits (%d) + metadata", e.SizeBits(), wantSize)
	}
	// Each 64×64 layer fits one plane, so source pixels = elements.
	if e.Stats.Pixels != 3*64*64 {
		t.Fatalf("Stats.Pixels = %d, want %d", e.Stats.Pixels, 3*64*64)
	}
	// 3×4096 px is under the engine's per-chunk pixel floor, so the whole
	// stack batches into one chunk (and the byte-compatible v1 container).
	if e.Stats.Chunks != 1 {
		t.Fatalf("Stats.Chunks = %d, want 1 (small stack batches into one chunk)", e.Stats.Chunks)
	}
	if e.Stats.MSE < 0 || math.IsNaN(e.Stats.MSE) {
		t.Fatalf("bad MSE %v", e.Stats.MSE)
	}
	if e.Stats.BitsPerPixel <= 0 {
		t.Fatalf("bad BitsPerPixel %v", e.Stats.BitsPerPixel)
	}
}

// TestAwkwardShapesRoundTrip runs the property battery the issue asks for:
// 1×N and N×1 tensors, constant tensors (hi == lo zero-scale path), and
// dims not a multiple of the CTU or frame limits — against both the serial
// and parallel engines, asserting the engines agree bit-for-bit.
func TestAwkwardShapesRoundTrip(t *testing.T) {
	type shape struct{ rows, cols int }
	shapes := []shape{
		{1, 1}, {1, 128}, {128, 1}, {1, 1000}, {1000, 1},
		{37, 53}, {33, 31}, {100, 70},
	}
	rng := rand.New(rand.NewSource(33))

	serial := DefaultOptions()
	serial.Workers = 1
	serial.MaxFrameW, serial.MaxFrameH = 64, 64 // force multi-plane splits
	parallel := serial
	parallel.Workers = 6

	for _, s := range shapes {
		tens := FromSlice(s.rows, s.cols, tensorgen.Weights(rng, s.rows, s.cols))
		es, ep := encode1(t, serial, tens, 24), encode1(t, parallel, tens, 24)
		if !bytes.Equal(es.Stream, ep.Stream) {
			t.Fatalf("%dx%d: engine streams differ", s.rows, s.cols)
		}
		ds, dp := decode1(t, serial, es), decode1(t, parallel, ep)
		if ds.Rows != s.rows || ds.Cols != s.cols {
			t.Fatalf("%dx%d: decoded shape %dx%d", s.rows, s.cols, ds.Rows, ds.Cols)
		}
		for i := range ds.Data {
			if math.Float32bits(ds.Data[i]) != math.Float32bits(dp.Data[i]) {
				t.Fatalf("%dx%d idx %d: engines disagree", s.rows, s.cols, i)
			}
			if math.IsNaN(float64(ds.Data[i])) {
				t.Fatalf("%dx%d idx %d: NaN in reconstruction", s.rows, s.cols, i)
			}
		}
	}
}

// TestConstantTensorRoundTripExact covers the hi == lo zero-scale path:
// constant tensors must reconstruct exactly under both engines.
func TestConstantTensorRoundTripExact(t *testing.T) {
	for _, workers := range []int{1, 4} {
		o := DefaultOptions()
		o.Workers = workers
		for _, val := range []float32{0, -2.75, 1e-20, 42} {
			tens := NewTensor(50, 33)
			for i := range tens.Data {
				tens.Data[i] = val
			}
			for i, v := range roundtrip(t, o, tens, 30).Data {
				if v != val {
					t.Fatalf("workers=%d val=%v: idx %d decoded %v (zero-scale path broken)",
						workers, val, i, v)
				}
			}
		}
	}
}

// TestNaNInfStackRoundTrip is the end-to-end regression for the degenerate
// quantization bug: a NaN/±Inf-laced stack must encode deterministically and
// reconstruct to finite values under both engines.
func TestNaNInfStackRoundTrip(t *testing.T) {
	nan := float32(math.NaN())
	pinf := float32(math.Inf(1))
	ninf := float32(math.Inf(-1))
	stack := randStack(34, 2, 48, 48)
	stack[0].Data[7] = nan
	stack[0].Data[100] = pinf
	stack[1].Data[0] = ninf
	stack[1].Data[999] = nan

	for _, workers := range []int{1, 4} {
		o := DefaultOptions()
		o.Workers = workers
		e1, err := o.EncodeStackCtx(context.Background(), stack, 26)
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		e2, err := o.EncodeStackCtx(context.Background(), stack, 26)
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		if !bytes.Equal(e1.Stream, e2.Stream) {
			t.Fatalf("workers=%d: NaN-laced encode is nondeterministic", workers)
		}
		dec, err := o.DecodeStackCtx(context.Background(), e1)
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		for l := range dec {
			for i, v := range dec[l].Data {
				f := float64(v)
				if math.IsNaN(f) || math.IsInf(f, 0) {
					t.Fatalf("workers=%d layer %d idx %d: non-finite reconstruction %v",
						workers, l, i, v)
				}
			}
		}
	}
}

// TestPerRowQuantParallelRoundTrip exercises the per-row mapping through
// the parallel engine (scales/zeros bookkeeping must stay aligned with the
// chunked planes).
func TestPerRowQuantParallelRoundTrip(t *testing.T) {
	stack := randStack(35, 2, 40, 64)
	o := DefaultOptions()
	o.PerRowQuant = true
	o.Workers = 4
	e, err := o.EncodeStackCtx(context.Background(), stack, 20)
	if err != nil {
		t.Fatal(err)
	}
	if len(e.Scales) != 2*40 {
		t.Fatalf("per-row scales %d, want %d", len(e.Scales), 2*40)
	}
	dec, err := o.DecodeStackCtx(context.Background(), e)
	if err != nil {
		t.Fatal(err)
	}
	for l := range dec {
		if m := stack[l].MSE(dec[l]); math.IsNaN(m) {
			t.Fatalf("layer %d: NaN MSE", l)
		}
	}
}
