package core

import (
	"context"
	"crypto/sha256"
	"flag"
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/codec"
	"repro/internal/obs"
	"repro/internal/tensorgen"
)

var printPins = flag.Bool("print-pins", false, "print TestSearchPins' table instead of checking it")

// searchPin is what one rate-control search answered: the QP it chose, how
// many real encodes it spent (core.ratecontrol.probes) and the leading 64 bits
// of the chosen stream's SHA-256.
type searchPin struct {
	qp, probes int
	hash       string
}

// TestSearchPins holds every rate-control search to the answer recorded before
// the three bisection loops became one (searchPins, search_pins_test.go; the
// one-tensor MSE rows were recorded through the then-separate EncodeToMSE):
// {CABAC, rANS} × (7 rate targets × {weights, gradients, 3-layer stack} + 7
// MSE targets × {weights, stack}), the "full" of each key being the one intra
// search there is. Rate is not monotone in QP — the gradient rows at 7.5 b/v
// (CABAC) and 0.8 b/v (rANS) are the ones where "the last accepted probe" is
// not "the accepted probe with the most bits" — so the table pins each
// search's own best rule, not just its walk.
// -print-pins prints the table instead of checking it.
func TestSearchPins(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	weights := FromSlice(64, 96, tensorgen.Weights(rng, 64, 96))
	grads := FromSlice(48, 48, tensorgen.Gradients(rng, 48*48, 2))
	var stack []*Tensor
	for _, d := range tensorgen.WeightStack(rng, 3, 48, 48, 0.3) {
		stack = append(stack, FromSlice(48, 48, d))
	}
	inputs := []struct {
		name  string
		stack []*Tensor
	}{{"weights", []*Tensor{weights}}, {"grads", []*Tensor{grads}}, {"stack", stack}}
	variance := func(ts []*Tensor) float64 {
		var s float64
		n := 0
		for _, t := range ts {
			for _, v := range t.Data {
				s += float64(v) * float64(v)
			}
			n += len(t.Data)
		}
		return s / float64(n)
	}

	check := func(key string, o Options, e *Encoded) {
		got := searchPin{
			qp:     e.QP,
			probes: int(o.Metrics.Snapshot().Counters["core.ratecontrol.probes"]),
			hash:   fmt.Sprintf("%x", sha256.Sum256(e.Stream))[:16],
		}
		if *printPins {
			fmt.Printf("\t%q: {%d, %d, %q},\n", key, got.qp, got.probes, got.hash)
			return
		}
		want, ok := searchPins[key]
		if !ok {
			t.Errorf("%s: no pinned answer", key)
		} else if got != want {
			t.Errorf("%s: got %+v, pinned %+v", key, got, want)
		}
	}
	for _, backend := range []codec.EntropyBackend{codec.BackendCABAC, codec.BackendRANS} {
		opts := func() Options {
			o := DefaultOptions()
			o.Backend, o.Metrics = backend, obs.NewRegistry()
			return o
		}
		for _, in := range inputs {
			for _, bits := range []float64{0.8, 1.5, 2.5, 4, 7.5, 12, 30} {
				o := opts()
				e, _, err := o.EncodeStackToBitrate(context.Background(), in.stack, bits)
				if err != nil {
					t.Fatal(err)
				}
				check(fmt.Sprintf("%v/full/%s/bits=%g", backend, in.name, bits), o, e)
			}
			if in.name == "grads" {
				continue
			}
			for _, frac := range []float64{1e-4, 1e-3, 3e-3, 0.01, 0.03, 0.1, 0.5} {
				o := opts()
				e, _, err := o.EncodeStackToMSE(context.Background(), in.stack, frac*variance(in.stack))
				if err != nil {
					t.Fatal(err)
				}
				check(fmt.Sprintf("%v/full/%s/mse=%g", backend, in.name, frac), o, e)
			}
		}
	}
	if !*printPins && len(searchPins) != 70 {
		t.Errorf("pin table has %d rows, want 70", len(searchPins))
	}
}
