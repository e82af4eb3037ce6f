package core

import (
	"bytes"
	"context"
	"testing"

	"repro/internal/codec"
)

// TestBackendOptionRoundTrip: the core-level Backend knob must thread down to
// the codec (a v3 stream with the backend extension, different bytes than
// CABAC), decode with DEFAULT options (the backend rides in the stream
// header, never in Options), and reconstruct bit-identically to the CABAC
// stream — the rANS recorder replays the exact CABAC context decisions.
func TestBackendOptionRoundTrip(t *testing.T) {
	w := weightTensor(3, 128, 128)
	def := DefaultOptions()
	rans := DefaultOptions()
	rans.Backend = codec.BackendRANS

	eDef, eRans := encode1(t, def, w, 28), encode1(t, rans, w, 28)
	if bytes.Equal(eDef.Stream, eRans.Stream) {
		t.Error("rANS backend produced byte-identical stream — the knob did not reach the encoder")
	}

	// Decode with DEFAULT options: the stream must carry everything needed.
	dRans, dDef := decode1(t, def, eRans), decode1(t, def, eDef)
	if len(dDef.Data) != len(dRans.Data) {
		t.Fatalf("length mismatch: cabac %d, rans %d", len(dDef.Data), len(dRans.Data))
	}
	for i := range dDef.Data {
		if dDef.Data[i] != dRans.Data[i] {
			t.Fatalf("reconstruction diverges at %d: cabac %v, rans %v", i, dDef.Data[i], dRans.Data[i])
		}
	}
}

// TestBackendRateControl: bisection-based rate control must work unchanged
// under the rANS backend.
func TestBackendRateControl(t *testing.T) {
	w := weightTensor(4, 96, 96)
	o := DefaultOptions()
	o.Backend = codec.BackendRANS
	target := 2.0
	e, _, err := o.EncodeStackToBitrate(context.Background(), []*Tensor{w}, target)
	if err != nil {
		t.Fatal(err)
	}
	if bpv := e.BitsPerValue(); bpv > target {
		t.Errorf("rANS rate control returned %.3f bits/value, target %.3f", bpv, target)
	}
	decode1(t, o, e)
}
