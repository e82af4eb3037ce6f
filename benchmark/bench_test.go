package main

import (
	"bytes"
	"context"
	"math"
	"os"
	"testing"
	"time"
)

// The percentile rule: the highest ladder percentile with at least ten
// samples beyond it, else the median only.
func TestTailRule(t *testing.T) {
	ramp := func(n int) []float64 {
		xs := make([]float64, n)
		for i := range xs {
			xs[i] = float64(i + 1)
		}
		return xs
	}
	for _, tc := range []struct {
		n          int
		pct, value float64
	}{
		{5, 50, 3},
		{99, 50, 50},     // 9.9 samples beyond p90: not enough
		{100, 90, 90},    // exactly ten beyond p90
		{199, 90, 180},   // 19 beyond p90, 9.95 beyond p95
		{200, 95, 190},   // ten beyond p95
		{1000, 99, 990},  // ten beyond p99
		{9999, 99, 9900}, // 9.999 beyond p99.9
		{10000, 99.9, 9990},
	} {
		pct, v := tail(ramp(tc.n))
		if pct != tc.pct || v != tc.value {
			t.Errorf("n=%d: got p%g=%g, want p%g=%g", tc.n, pct, v, tc.pct, tc.value)
		}
		beyond := 0
		for _, x := range ramp(tc.n) {
			if x > v {
				beyond++
			}
		}
		if pct > 50 && beyond < 10 {
			t.Errorf("n=%d: only %d samples beyond the reported p%g", tc.n, beyond, pct)
		}
	}
}

// quartiles must agree with Python's statistics.quantiles(values, n=4), the
// rule the driver applies to ten runs.
func TestQuartilesMatchPython(t *testing.T) {
	xs := []float64{9, 1, 8, 2, 7, 3, 6, 4, 5, 10}
	q1, q2, q3 := quartiles(xs)
	if q1 != 2.75 || q2 != 5.5 || q3 != 8.25 {
		t.Fatalf("quartiles(1..10) = %g %g %g, want 2.75 5.5 8.25", q1, q2, q3)
	}
	if got := spread(xs); math.Abs(got-1) > 1e-12 {
		t.Fatalf("spread = %g, want 1", got)
	}
	if q1, _, q3 := quartiles([]float64{1, 2}); q1 != 0.75 || q3 != 2.25 {
		t.Fatalf("quartiles(1,2) = %g..%g, want 0.75..2.25 (Python extrapolates)", q1, q3)
	}
}

// Span self time with children that overlap each other and stick out of the
// parent: the covered part is the union of the children, clipped.
func TestSelfTimeOverlappingChildren(t *testing.T) {
	spans := []span{
		{ID: 1, Op: 1, Name: "client.op.x", Start: 0, End: 100},
		{ID: 2, Op: 1, Parent: 1, Name: "a", Start: 10, End: 50},
		{ID: 3, Op: 1, Parent: 1, Name: "b", Start: 40, End: 70},  // overlaps a
		{ID: 4, Op: 1, Parent: 1, Name: "c", Start: 90, End: 130}, // sticks out
		{ID: 5, Op: 1, Parent: 2, Name: "a.child", Start: 20, End: 30},
		{ID: 6, Op: 1, Parent: 1, Name: "d", Start: 45, End: 60}, // inside a∪b
	}
	self := selfTimes(spans)
	for id, want := range map[int64]int64{1: 30, 2: 30, 3: 30, 4: 40, 5: 10, 6: 15} {
		if self[id] != want {
			t.Errorf("span %d: self %d, want %d", id, self[id], want)
		}
	}
	acc := accounts(spans)
	if len(acc) != 1 || acc[0].kind != "x" || acc[0].rootNs != 100 || acc[0].selfNs["a.child"] != 10 {
		t.Fatalf("accounts = %+v", acc)
	}
}

// An op is scaled by the mean of the calibration times on either side of it,
// and a kernel that ran in the nominal time leaves the op's time as it was.
func TestCalibrationBrackets(t *testing.T) {
	r := &recorder{samples: []sample{{ms: 50}, {ms: 60}, {ms: 70}}}
	r.marks = []calMark{{at: 0, ms: 10}, {at: 2, ms: 14}, {at: 3, ms: 2*calNominalMs - 14}}
	r.applyMarks()
	for i, want := range []float64{12, 12, calNominalMs} {
		if r.samples[i].calMs != want {
			t.Errorf("sample %d: calibration %g ms, want %g", i, r.samples[i].calMs, want)
		}
	}
	if got, want := r.samples[0].refMs(), 50*calNominalMs/12; got != want {
		t.Errorf("50 ms beside a 12 ms kernel: %g ms at the reference speed, want %g", got, want)
	}
	if got := r.samples[2].refMs(); got != 70 {
		t.Errorf("70 ms beside a kernel at the nominal time: %g ms at the reference speed", got)
	}
}

// Same seed ⇒ identical input bytes and identical bits_per_value / rel_mse;
// another seed ⇒ other inputs but the same anchor figures.
func TestGeneratorDeterminism(t *testing.T) {
	e := env{seed: 7, nproc: 2, dir: t.TempDir()}
	build := func(e env) (*weightsEncode, *gradRing) {
		we, gr := &weightsEncode{}, &gradRing{}
		if err := we.setup(e); err != nil {
			t.Fatal(err)
		}
		if err := gr.setup(e); err != nil {
			t.Fatal(err)
		}
		return we, gr
	}
	a, ga := build(e)
	b, gb := build(e)
	for i := range a.stacks {
		for l := range a.stacks[i] {
			if !sameBits(a.stacks[i][l].Data, b.stacks[i][l].Data) {
				t.Fatalf("stack %d layer %d differs between two set-ups of one seed", i, l)
			}
		}
		if !bytes.Equal(a.ref[i], b.ref[i]) {
			t.Fatalf("reference container %d differs between two set-ups of one seed", i)
		}
	}
	if a.bits != b.bits || a.relMSE != b.relMSE {
		t.Fatalf("coding point moved: %g/%g vs %g/%g", a.bits, a.relMSE, b.bits, b.relMSE)
	}
	for s := range ga.sets {
		for w := range ga.sets[s] {
			if !sameBits(ga.sets[s][w], gb.sets[s][w]) {
				t.Fatalf("gradient step-set %d worker %d differs between two set-ups of one seed", s, w)
			}
		}
	}
	c, _ := build(env{seed: 8, nproc: 2, dir: e.dir})
	if sameBits(a.stacks[encStacks/2][0].Data, c.stacks[encStacks/2][0].Data) {
		t.Fatal("seeds 7 and 8 generated the same seeded stack")
	}
	if !sameBits(a.stacks[0][0].Data, c.stacks[0][0].Data) || a.bits != c.bits || a.relMSE != c.relMSE {
		t.Fatal("the anchor half or its coding point depends on the seed")
	}
	if a.bits < 2 || a.bits > 3.5 {
		t.Fatalf("bits_per_value %g outside the paper's 2–3.5 band", a.bits)
	}
}

// Every workload for one second: keeps the benchmark compiling and correct as
// the tree under it is refactored.
func TestSmokeAllWorkloads(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every workload for a second")
	}
	e := env{seed: 265, nproc: 2, dir: t.TempDir()}
	for i := range specs {
		sp := &specs[i]
		// One second is enough for every op kind to complete at least once;
		// under the race detector it is not, so lengthen until it is.
		var res *result
		for d := time.Second; ; d *= 2 {
			var err error
			res, err = runWorkload(context.Background(), sp, e, plan{warm: 300 * time.Millisecond, timed: d, traced: d})
			if err != nil {
				t.Fatal(err)
			}
			if v := res.e2e["raw_mbps"] + res.e2e["op_p50_ms"]; !math.IsNaN(v) || d > 16*time.Second {
				break
			}
		}
		for _, phase := range []string{"timed", "traced"} {
			p := res.phases[phase]
			if p.attempted == 0 || p.failed != 0 || p.mismatched != 0 {
				t.Errorf("%s %s: attempted %d failed %d mismatched %d (%s)", sp.name, phase, p.attempted, p.failed, p.mismatched, p.firstErr)
			}
		}
		for _, m := range endToEndMetrics {
			if v, ok := res.e2e[m.Name]; !ok || math.IsNaN(v) || v <= 0 {
				t.Errorf("%s: end-to-end metric %s = %v (present %v)", sp.name, m.Name, v, ok)
			}
		}
		if b := res.e2e["bits_per_value"]; b < 2 || b > 3.5 {
			t.Errorf("%s: bits_per_value %g outside the paper's 2–3.5 band", sp.name, b)
		}
		if u := unaccountedFrac(res.phases["traced"]); math.IsNaN(u) || math.Abs(u) > 0.5 {
			t.Errorf("%s: unaccounted_frac %g", sp.name, u)
		}
	}
}

// Append reports the groups it encoded and the groups it aliased separately:
// the same prompt put into two sessions is two of each, a ratio of one half.
func TestKVAliasAccounting(t *testing.T) {
	be := &directKV{tab: kvNew(kvConfig{BudgetBytes: kvBudget, FlushRows: kvFlushRows, QP: kvQP, Workers: 1})}
	prompt := genActivations(rngFor(1, "kv_stream/prompt"), kvPromptRows, kvDim)
	r := &recorder{}
	for _, session := range []string{"a", "b"} {
		if _, _, err := be.put(context.Background(), r.begin("put", 0), session, 0, prompt); err != nil {
			t.Fatal(err)
		}
	}
	if be.encoded != 2 || be.aliased != 2 || be.aliasRatio() != 0.5 {
		t.Fatalf("encoded %d aliased %d ratio %g, want 2 2 0.5", be.encoded, be.aliased, be.aliasRatio())
	}
}

// A wrong output must be counted as a mismatch, not pass silently.
func TestMismatchIsCounted(t *testing.T) {
	w := &weightsEncode{}
	if err := w.setup(env{seed: 1, nproc: 2, dir: t.TempDir()}); err != nil {
		t.Fatal(err)
	}
	w.ref[0][len(w.ref[0])/2] ^= 1
	p := runPass(context.Background(), w, 200*time.Millisecond, nil)
	if p.mismatched == 0 || p.failed != p.mismatched {
		t.Fatalf("corrupted reference: attempted %d failed %d mismatched %d", p.attempted, p.failed, p.mismatched)
	}
}

// BENCHMARK.json is generated from the catalogue (`-manifest`); the checked-in
// file must not drift from it.
func TestManifestMatchesCatalogue(t *testing.T) {
	got, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, benchmarkJSON()) {
		t.Fatal("BENCHMARK.json differs from the catalogue: regenerate it with `go run . -manifest > ../BENCHMARK.json`")
	}
	seen := map[string]bool{}
	for _, m := range perLayerMetrics {
		if seen[m.Name] {
			t.Errorf("per-layer metric %s listed twice", m.Name)
		}
		seen[m.Name] = true
	}
	if n := len(perLayerMetrics); n > 128 {
		t.Errorf("%d per-layer metrics, contract allows 128", n)
	}
	for _, sp := range specs {
		if len(sp.why) > 200 {
			t.Errorf("%s: why is %d characters, contract allows 200", sp.name, len(sp.why))
		}
	}
}
