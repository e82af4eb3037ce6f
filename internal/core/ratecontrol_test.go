package core

import (
	"bytes"
	"errors"
	"math/rand"
	"testing"

	"repro/internal/dct"
	"repro/internal/obs"
	"repro/internal/tensorgen"
)

// TestRateControlSearchesRejectEmptyInput pins the degenerate-input gate the
// rate-control searches own since the codec-level copies were deleted: a
// stack with no values makes BitsPerValue = 0/0 = NaN, every bisection
// comparison false, and the search would silently return a stream "meeting"
// any budget. Every search must instead fail on its first probe with a typed
// error matching ErrEmptyInput — never a panic, never a NaN-driven result.
func TestRateControlSearchesRejectEmptyInput(t *testing.T) {
	o := DefaultOptions()
	for _, tc := range []struct {
		name  string
		stack []*Tensor
	}{
		{"empty stack", nil},
		{"nil tensor", []*Tensor{nil}},
		{"zero-row tensor", []*Tensor{{Rows: 0, Cols: 16}}},
		{"zero-col tensor", []*Tensor{NewTensor(16, 16), {Rows: 16, Cols: 0}}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			if _, err := o.EncodeStack(tc.stack, 26); !errors.Is(err, ErrEmptyInput) {
				t.Fatalf("EncodeStack: got %v, want ErrEmptyInput", err)
			}
			if _, err := o.EncodeStackToBitrate(tc.stack, 2.0); !errors.Is(err, ErrEmptyInput) {
				t.Fatalf("EncodeStackToBitrate: got %v, want ErrEmptyInput", err)
			}
			if _, _, err := o.EncodeStackToMSE(tc.stack, 1.0); !errors.Is(err, ErrEmptyInput) {
				t.Fatalf("EncodeStackToMSE: got %v, want ErrEmptyInput", err)
			}
		})
	}
}

// TestRateControlProberMemoizes checks that probe encodes are cached by QP:
// a repeated QP is served from the cache (core.ratecontrol.probes unchanged,
// the very same *Encoded back), a distinct QP misses it.
func TestRateControlProberMemoizes(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	o := DefaultOptions()
	o.Metrics = obs.NewRegistry()
	probes := func() int64 { return o.Metrics.Snapshot().Counters["core.ratecontrol.probes"] }
	probe := o.probeStack([]*Tensor{FromSlice(48, 48, tensorgen.Weights(rng, 48, 48))})
	a, err := probe(20)
	if err != nil {
		t.Fatal(err)
	}
	b, err := probe(20)
	if err != nil {
		t.Fatal(err)
	}
	if probes() != 1 {
		t.Fatalf("2 probes at one QP performed %d encodes, want 1", probes())
	}
	if a != b {
		t.Fatal("cached probe is not the original encode")
	}
	if _, err := probe(30); err != nil {
		t.Fatal(err)
	}
	if probes() != 2 {
		t.Fatalf("distinct QP should miss the cache: %d encodes", probes())
	}
}

// TestRateControlFallbackReusesProbe checks the infeasible-budget fallback:
// a budget below even MaxQP's rate must return the MaxQP stream without
// re-encoding it (the bisection already probed MaxQP on its way down, so the
// probe count is the bisection depth and nothing more).
func TestRateControlFallbackReusesProbe(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	noise := make([]float32, 64*64)
	for i := range noise {
		noise[i] = rng.Float32()
	}
	stack := []*Tensor{FromSlice(64, 64, noise)}
	o := DefaultOptions()
	o.Metrics = obs.NewRegistry()
	e, err := o.EncodeStackToBitrate(stack, 1e-6)
	if err != nil {
		t.Fatal(err)
	}
	if e.QP != dct.MaxQP {
		t.Fatalf("infeasible budget chose qp %d, want MaxQP", e.QP)
	}
	// Bisecting [0, 51] upward visits 25, 38, 45, 48, 50, 51 — MaxQP is the
	// last of them, so the fallback adds no seventh encode.
	if got := o.Metrics.Snapshot().Counters["core.ratecontrol.probes"]; got != 6 {
		t.Fatalf("infeasible-budget search performed %d encodes, want 6", got)
	}
	want, err := DefaultOptions().EncodeStack(stack, dct.MaxQP)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(e.Stream, want.Stream) {
		t.Fatal("fallback stream differs from direct MaxQP encode")
	}
}
