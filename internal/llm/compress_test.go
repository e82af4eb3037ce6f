package llm

import (
	"context"
	"crypto/sha256"
	"encoding/binary"
	"flag"
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/core"
	"repro/internal/nn"
	"repro/internal/obs"
	"repro/internal/tensorgen"
)

// gradient is a 64×64 matrix of tensorgen.Gradients.
func gradient(rng *rand.Rand, rangeOrders float64) *nn.Mat {
	return &nn.Mat{R: 64, C: 64, V: tensorgen.Gradients(rng, 64*64, rangeOrders)}
}

func TestCodecTracksTarget(t *testing.T) {
	c := Codec(core.DefaultOptions(), 3.0)
	rng := rand.New(rand.NewSource(8))
	var sum float64
	n := 6
	for i := 0; i < n; i++ {
		_, bits, err := c(gradient(rng, 1))
		if err != nil {
			t.Fatal(err)
		}
		sum += bits
	}
	avg := sum / float64(n)
	if avg > 3.6 || avg < 1.0 {
		t.Fatalf("rate controller average %.3f b/v, want near 3.0", avg)
	}
}

func TestResidualCompensation(t *testing.T) {
	c := Residual(core.DefaultOptions(), 3.5, 2)
	rng := rand.New(rand.NewSource(9))
	var sum float64
	for step := 0; step < 4; step++ {
		out, bits, err := c(gradient(rng, 1.5))
		if err != nil {
			t.Fatal(err)
		}
		if out.R != 64 || out.C != 64 {
			t.Fatal("shape changed")
		}
		if step < 2 && bits > 3.5*2+0.5 {
			t.Fatalf("phase-1 step %d used %.2f bits, want ≲7", step, bits)
		}
		if step >= 2 && (bits < 8 || bits > 3.5+8+0.5) {
			t.Fatalf("phase-2 step %d used %.2f bits, want ≈11.5", step, bits)
		}
		sum += bits
	}
	// Average: (7·2 + 11.5·2)/4 = 9.25 ± slack.
	if avg := sum / 4; avg < 7 || avg > 12.2 {
		t.Fatalf("average bits %.2f out of expected band", avg)
	}
}

func TestResidualCompensationReducesError(t *testing.T) {
	rng := rand.New(rand.NewSource(10))
	grad := gradient(rng, 2)
	g := core.FromSlice(grad.R, grad.C, grad.V)
	o := core.DefaultOptions()
	_, primary, err := o.EncodeStackRecon(context.Background(), []*core.Tensor{g}, 30)
	if err != nil {
		t.Fatal(err)
	}
	comp, _, err := Residual(o, 3.5, 100)(grad)
	if err != nil {
		t.Fatal(err)
	}
	if got, want := g.MSE(core.FromSlice(comp.R, comp.C, comp.V)), g.MSE(primary[0]); got >= want {
		t.Fatalf("residual compensation MSE %.6g did not improve on primary-only %.6g", got, want)
	}
}

// TestCompressorsNeverDecode proves, with the decoder's own call counter, that
// what Codec and Residual hand back as the receiver's reconstruction is the
// encoder's: over Codec's searching first call and its steady state, and
// Residual's two codec passes and then its RTN residual, codec.decode.calls
// stays 0 while codec.encode.calls moves.
func TestCompressorsNeverDecode(t *testing.T) {
	vals := tensorgen.Gradients(rand.New(rand.NewSource(31)), 32*64, 1)
	mat := func() *nn.Mat { return &nn.Mat{R: 32, C: 64, V: append([]float32(nil), vals...)} }
	for _, tc := range []struct {
		name string
		run  func(o core.Options) error
	}{
		{"Codec first call", func(o core.Options) error {
			_, _, err := Codec(o, 3)(mat())
			return err
		}},
		{"Codec steady state", func(o core.Options) error {
			c := Codec(o, 3)
			if _, _, err := c(mat()); err != nil {
				return err
			}
			before := o.Metrics.Snapshot().Counters["core.ratecontrol.probes"]
			_, _, err := c(mat())
			if probes := o.Metrics.Snapshot().Counters["core.ratecontrol.probes"]; err == nil && probes != before {
				t.Errorf("the second call searched again (%d probes): not the steady state", probes-before)
			}
			return err
		}},
		{"Residual", func(o core.Options) error {
			c := Residual(o, 3.5, 2)
			for step := 0; step < 3; step++ { // both codec passes, then the RTN residual
				if _, _, err := c(mat()); err != nil {
					return err
				}
			}
			return nil
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

var printPins = flag.Bool("print-pins", false, "print TestCompressorPins' table instead of checking it")

// compressorPin is what one call of a stateful compressor answered: the
// rate-control probes it spent (core.ratecontrol.probes — a QP search, or 0
// when the held QP was reused), the bits per value it charged and the leading
// 64 bits of the SHA-256 of its reconstruction's float32 bits.
type compressorPin struct {
	probes int
	bits   float64
	hash   string
}

// TestCompressorPins holds Codec and Residual, call by call, to the answers
// recorded while their rate law still lived in core (RateController and
// GradientCompressor). The Codec sequence is ten 64×64 weight matrices with a
// six-order gradient at call 6: the first search (0), nudges to a coarser QP
// (1, 5), the held QP (2), a nudge to a finer QP (3) and far-drift re-searches
// (4, 6–9). The Residual sequence is six gradients switching at step 4: both
// passes search (0), the primary nudges finer (1, 5) and re-searches (3), the
// residual nudges coarser (3), and the 8-bit RTN residual takes over (4, 5).
// The edge sequences put a call just inside and just outside each of the drift
// band's three limits. -print-pins prints the table instead of checking it.
func TestCompressorPins(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	run := func(name string, c Compressor, reg *obs.Registry, inputs [][]float32) {
		for i, v := range inputs {
			before := reg.Snapshot().Counters["core.ratecontrol.probes"]
			rec, bits, err := c(&nn.Mat{R: 64, C: 64, V: v})
			if err != nil {
				t.Fatal(err)
			}
			h := sha256.New()
			binary.Write(h, binary.LittleEndian, rec.V)
			got := compressorPin{
				probes: int(reg.Snapshot().Counters["core.ratecontrol.probes"] - before),
				bits:   bits,
				hash:   fmt.Sprintf("%x", h.Sum(nil))[:16],
			}
			key := fmt.Sprintf("%s/%d", name, i)
			if *printPins {
				fmt.Printf("\t%q: {%d, %v, %q},\n", key, got.probes, got.bits, got.hash)
				continue
			}
			if want, ok := compressorPins[key]; !ok {
				t.Errorf("%s: no pinned answer", key)
			} else if got != want {
				t.Errorf("%s: got %+v, pinned %+v", key, got, want)
			}
		}
	}
	opts := func() (core.Options, *obs.Registry) {
		o := core.DefaultOptions()
		o.Metrics = obs.NewRegistry()
		return o, o.Metrics
	}

	var weights [][]float32
	for i := 0; i < 10; i++ {
		v := tensorgen.Weights(rng, 64, 64)
		if i == 6 {
			v = tensorgen.Gradients(rng, 64*64, 6)
		}
		weights = append(weights, v)
	}
	o, reg := opts()
	run("codec", Codec(o, 3), reg, weights)

	var grads [][]float32
	for i := 0; i < 6; i++ {
		grads = append(grads, tensorgen.Gradients(rng, 64*64, 1))
	}
	o, reg = opts()
	run("residual", Residual(o, 3.5, 4), reg, grads)

	// The band's edges, each a fresh Codec primed on weights[0], then that
	// matrix with its last k rows zeroed or shuffled — a rate at the held QP
	// of 0.858 (zero-9: held), 0.848 (zero-11: nudged finer), 0.571 (zero-30:
	// still in the band, nudged finer), 0.495 (zero-34: a re-search), 1.194
	// (shuffle-21: nudged coarser) or 1.215 (shuffle-22: a re-search) times
	// the target — then weights[0] again, which shows the nudge.
	a := weights[0]
	for _, e := range []struct {
		kind string
		k    int
	}{{"zero", 9}, {"zero", 11}, {"zero", 30}, {"zero", 34}, {"shuffle", 21}, {"shuffle", 22}} {
		v := append([]float32(nil), a...)
		for i := (64 - e.k) * 64; i < len(v); i++ {
			v[i] = 0
			if e.kind == "shuffle" {
				v[i] = a[i*7919%len(a)]
			}
		}
		o, reg = opts()
		run(fmt.Sprintf("edge/%s-%d", e.kind, e.k), Codec(o, 3), reg, [][]float32{a, v, a})
	}

	if !*printPins && len(compressorPins) != 34 {
		t.Errorf("pin table has %d rows, want 34", len(compressorPins))
	}
}

// compressorPins is every call's answer, recorded before the rate law moved
// from core into this package (go test -v -run TestCompressorPins -print-pins
// prints this table).
var compressorPins = map[string]compressorPin{
	"codec/0":           {6, 2.8828125, "f8add7243ec156b7"},
	"codec/1":           {0, 3.12890625, "99f8b913b6616a41"},
	"codec/2":           {0, 2.994140625, "72317a6c5782c61c"},
	"codec/3":           {0, 2.1875, "1734f5769bf66c43"},
	"codec/4":           {6, 2.984375, "5087b83898e715a6"},
	"codec/5":           {0, 3.1328125, "2e460265e1d6126b"},
	"codec/6":           {5, 2.57421875, "66a95b9365f37094"},
	"codec/7":           {6, 2.845703125, "4b760f9d9bbd7377"},
	"codec/8":           {6, 2.94921875, "0138089056422590"},
	"codec/9":           {5, 2.798828125, "c54d076c73cc878e"},
	"residual/0":        {12, 6.69921875, "650c24048ab8711f"},
	"residual/1":        {0, 5.349609375, "6ccbdd13a4f1519f"},
	"residual/2":        {0, 6.439453125, "1f30a864f983dd91"},
	"residual/3":        {6, 7.08984375, "70fcf0af481ea712"},
	"residual/4":        {0, 11.2421875, "68e6f9e8acaca7d0"},
	"residual/5":        {0, 10.453125, "8d277c89141cc9cd"},
	"edge/zero-9/0":     {6, 2.8828125, "f8add7243ec156b7"},
	"edge/zero-9/1":     {0, 2.57421875, "147e6556f5fcdf2e"},
	"edge/zero-9/2":     {0, 2.8828125, "f8add7243ec156b7"},
	"edge/zero-11/0":    {6, 2.8828125, "f8add7243ec156b7"},
	"edge/zero-11/1":    {0, 2.54296875, "7534baef1fddf8fc"},
	"edge/zero-11/2":    {0, 3.052734375, "605ab9b4e0033fbe"},
	"edge/zero-30/0":    {6, 2.8828125, "f8add7243ec156b7"},
	"edge/zero-30/1":    {0, 1.712890625, "ba7ff537f5e475c1"},
	"edge/zero-30/2":    {0, 3.052734375, "605ab9b4e0033fbe"},
	"edge/zero-34/0":    {6, 2.8828125, "f8add7243ec156b7"},
	"edge/zero-34/1":    {5, 2.171875, "8e307ad8177ce4d1"},
	"edge/zero-34/2":    {6, 2.8828125, "f8add7243ec156b7"},
	"edge/shuffle-21/0": {6, 2.8828125, "f8add7243ec156b7"},
	"edge/shuffle-21/1": {0, 3.58203125, "de76625026b6bc04"},
	"edge/shuffle-21/2": {0, 2.685546875, "45bc9421a7165f75"},
	"edge/shuffle-22/0": {6, 2.8828125, "f8add7243ec156b7"},
	"edge/shuffle-22/1": {6, 2.974609375, "960edf47228693e9"},
	"edge/shuffle-22/2": {0, 2.2265625, "340cc1eed8fba3db"},
}
