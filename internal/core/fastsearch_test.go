package core

import (
	"bytes"
	"context"
	"math"
	"testing"
)

// TestFastSearchOptionRoundTrip: the core-level FastSearch knob must thread
// down to the codec (different bytes than the default search), stay
// decodable by default options (nothing serialized), and keep reconstruction
// quality within a factor of the default search in the value domain.
func TestFastSearchOptionRoundTrip(t *testing.T) {
	w := weightTensor(3, 128, 128)
	def := DefaultOptions()
	fast := DefaultOptions()
	fast.FastSearch = true

	eDef, err := def.Encode(w, 28)
	if err != nil {
		t.Fatal(err)
	}
	eFast, err := fast.Encode(w, 28)
	if err != nil {
		t.Fatal(err)
	}
	if bytes.Equal(eDef.Stream, eFast.Stream) {
		t.Error("FastSearch produced byte-identical stream — the knob did not reach the encoder")
	}

	// Decode with DEFAULT options: the stream must carry everything needed.
	dFast, err := def.Decode(eFast)
	if err != nil {
		t.Fatalf("default-options decode of FastSearch stream: %v", err)
	}
	dDef, err := def.Decode(eDef)
	if err != nil {
		t.Fatal(err)
	}
	mseDef, mseFast := w.MSE(dDef), w.MSE(dFast)
	if mseFast > 1.5*mseDef+1e-4 {
		t.Errorf("FastSearch value MSE %.6g vs default %.6g — outside the envelope", mseFast, mseDef)
	}
}

// TestNaNSanitizedEquivalence: a tensor carrying NaN/Inf values is sanitized
// by the quantizer, and the sanitized encode must remain a pure function of
// the input — identical bytes at every worker count, with and without
// FastSearch, and finite reconstructions throughout.
func TestNaNSanitizedEquivalence(t *testing.T) {
	w := weightTensor(5, 96, 96)
	w.Data[0] = float32(math.NaN())
	w.Data[777] = float32(math.Inf(1))
	w.Data[4242] = float32(math.Inf(-1))

	for _, fastSearch := range []bool{false, true} {
		o := DefaultOptions()
		o.FastSearch = fastSearch
		o.Workers = 1
		ref, err := o.EncodeStackCtx(context.Background(), []*Tensor{w}, 28)
		if err != nil {
			t.Fatal(err)
		}
		for _, workers := range []int{2, 4, 8} {
			o.Workers = workers
			e, err := o.EncodeStackCtx(context.Background(), []*Tensor{w}, 28)
			if err != nil {
				t.Fatalf("fast=%v workers=%d: %v", fastSearch, workers, err)
			}
			if !bytes.Equal(e.Stream, ref.Stream) {
				t.Errorf("fast=%v workers=%d: NaN-sanitized bytes differ from workers=1", fastSearch, workers)
			}
		}
		dec, err := o.DecodeStackCtx(context.Background(), ref)
		if err != nil {
			t.Fatal(err)
		}
		for i, v := range dec[0].Data {
			if math.IsNaN(float64(v)) || math.IsInf(float64(v), 0) {
				t.Fatalf("fast=%v: non-finite reconstruction at %d: %v", fastSearch, i, v)
			}
		}
	}
}

// TestFastSearchRateControl: the bisection-based rate control must work
// unchanged under FastSearch — the probe cache keys on QP and encoding
// remains deterministic.
func TestFastSearchRateControl(t *testing.T) {
	w := weightTensor(4, 96, 96)
	o := DefaultOptions()
	o.FastSearch = true
	target := 2.0
	e, err := o.EncodeToBitrate(w, target)
	if err != nil {
		t.Fatal(err)
	}
	if bpv := e.BitsPerValue(); bpv > target {
		t.Errorf("FastSearch rate control returned %.3f bits/value, target %.3f", bpv, target)
	}
	if _, err := o.Decode(e); err != nil {
		t.Fatal(err)
	}
}
