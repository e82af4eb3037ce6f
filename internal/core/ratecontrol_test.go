package core

import (
	"bytes"
	"context"
	"errors"
	"math"
	"math/rand"
	"testing"

	"repro/internal/dct"
	"repro/internal/obs"
	"repro/internal/tensorgen"
)

// TestRateControlSearchesRejectEmptyInput pins the degenerate-input gates of
// the rate-control searches. A stack with no values makes BitsPerValue =
// 0/0 = NaN, and a NaN target does the same from the other side: every
// bisection comparison is false, and the search would silently return a
// stream "meeting" any budget (the MaxQP stream for a NaN bit budget, QP 0
// for a NaN error bound). Every search must instead fail before or on its
// first probe with a typed error — ErrEmptyInput for the stack, ErrBadTarget
// for a NaN target or a bit budget that is not positive — never a panic,
// never a NaN-driven result.
func TestRateControlSearchesRejectEmptyInput(t *testing.T) {
	o := DefaultOptions()
	ctx := context.Background()
	valid := []*Tensor{weightTensor(5, 16, 16)}
	nan := math.NaN()
	for _, tc := range []struct {
		name      string
		stack     []*Tensor
		bits, mse float64
		want      error
	}{
		{"empty stack", nil, 2, 1, ErrEmptyInput},
		{"nil tensor", []*Tensor{nil}, 2, 1, ErrEmptyInput},
		{"zero-row tensor", []*Tensor{{Rows: 0, Cols: 16}}, 2, 1, ErrEmptyInput},
		{"zero-col tensor", []*Tensor{NewTensor(16, 16), {Rows: 16, Cols: 0}}, 2, 1, ErrEmptyInput},
		{"NaN target", valid, nan, nan, ErrBadTarget},
		{"zero bit budget", valid, 0, nan, ErrBadTarget},
		{"negative bit budget", valid, -1.5, nan, ErrBadTarget},
	} {
		t.Run(tc.name, func(t *testing.T) {
			if _, err := o.EncodeStackCtx(ctx, tc.stack, 26); tc.want == ErrEmptyInput && !errors.Is(err, tc.want) {
				t.Fatalf("EncodeStackCtx: got %v, want %v", err, tc.want)
			}
			if e, _, err := o.EncodeStackToBitrate(ctx, tc.stack, tc.bits); !errors.Is(err, tc.want) || e != nil {
				t.Fatalf("EncodeStackToBitrate: got %v, %v, want %v", e, err, tc.want)
			}
			if e, _, err := o.EncodeStackToMSE(ctx, tc.stack, tc.mse); !errors.Is(err, tc.want) || e != nil {
				t.Fatalf("EncodeStackToMSE: got %v, %v, want %v", e, err, tc.want)
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
	probe := o.probeStack(context.Background(), []*Tensor{FromSlice(48, 48, tensorgen.Weights(rng, 48, 48))})
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
	if a.Encoded != b.Encoded {
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
	e, _, err := o.EncodeStackToBitrate(context.Background(), stack, 1e-6)
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
	want, err := DefaultOptions().EncodeStackCtx(context.Background(), stack, dct.MaxQP)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(e.Stream, want.Stream) {
		t.Fatal("fallback stream differs from direct MaxQP encode")
	}
}
