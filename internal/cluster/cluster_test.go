package cluster

import (
	"math"
	"testing"
)

func TestStepTimeComponents(t *testing.T) {
	c := Config{GPU: DefaultGPU, NIC: DefaultNIC, Codec: NoCodec, DP: 2, PP: 4, NICsPerGPU: 1}
	s := Step(LLaMA7B, c)
	if s.ComputeS <= 0 || s.PPCommS <= 0 || s.DPCommS <= 0 {
		t.Fatalf("all components must be positive: %+v", s)
	}
	if s.TotalS() != s.ComputeS+s.PPCommS+s.DPCommS {
		t.Fatal("TotalS mismatch")
	}
	// Single GPU: no communication terms.
	c1 := Config{GPU: DefaultGPU, NIC: DefaultNIC, Codec: NoCodec, DP: 1, PP: 1, NICsPerGPU: 1}
	s1 := Step(LLaMA7B, c1)
	if s1.PPCommS != 0 || s1.DPCommS != 0 {
		t.Fatalf("single GPU should have zero comm: %+v", s1)
	}
}

func TestCompressionSpeedsUpCommBoundConfigs(t *testing.T) {
	base := Config{GPU: DefaultGPU, NIC: DefaultNIC, Codec: NoCodec, DP: 4, PP: 4, NICsPerGPU: 1}
	comp := base
	comp.Codec = ThreeInOne
	tBase := Throughput(LLaMA7B, base)
	tComp := Throughput(LLaMA7B, comp)
	if tComp <= tBase {
		t.Fatalf("compression should speed up comm-bound training: %.0f vs %.0f tok/s", tComp, tBase)
	}
	// The speedup cannot exceed the compression ratio.
	if tComp/tBase > ThreeInOne.Ratio+1e-9 {
		t.Fatalf("speedup %.2f exceeds compression ratio %.2f", tComp/tBase, ThreeInOne.Ratio)
	}
}

func TestNVCodecThroughputCapLimitsGains(t *testing.T) {
	// NVENC/NVDEC compresses equally well but its 1.1 GB/s engine caps the
	// effective rate — the three-in-one must strictly win (Fig. 16a).
	cfg := Config{GPU: DefaultGPU, NIC: DefaultNIC, DP: 4, PP: 4, NICsPerGPU: 1}
	nv := cfg
	nv.Codec = NVCodec
	tio := cfg
	tio.Codec = ThreeInOne
	if Throughput(LLaMA7B, tio) <= Throughput(LLaMA7B, nv) {
		t.Fatal("three-in-one should beat the NVENC-capped configuration")
	}
}

func TestSweepAndPareto(t *testing.T) {
	pts := Sweep(LLaMA7B, DefaultGPU, DefaultNIC, []CodecSpec{NoCodec, NVCodec, ThreeInOne}, 64)
	if len(pts) < 50 {
		t.Fatalf("sweep produced only %d points", len(pts))
	}
	// A frontier lookup is inside its budget and undominated within it.
	found := 0
	for _, budget := range []float64{1e4, 3e4, 1e5, 3e5, 1e6} {
		best, ok := BestUnderArea(pts, budget)
		if !ok {
			continue
		}
		found++
		if best.AreaMM2 > budget {
			t.Fatalf("best under %.0f mm² has area %.0f", budget, best.AreaMM2)
		}
		for _, p := range pts {
			if p.AreaMM2 <= budget && p.Throughput > best.Throughput {
				t.Fatalf("under %.0f mm², %+v beats the reported best %+v", budget, p, best)
			}
		}
	}
	if found < 3 {
		t.Fatalf("only %d of 5 budgets admit a point of the sweep", found)
	}
}

func TestThreeInOneParetoDominatesUncompressed(t *testing.T) {
	// Fig. 16(a): at a fixed area budget, the compressed cluster delivers
	// more performance.
	budget := 50000.0
	base := Sweep(LLaMA7B, DefaultGPU, DefaultNIC, []CodecSpec{NoCodec}, 128)
	tio := Sweep(LLaMA7B, DefaultGPU, DefaultNIC, []CodecSpec{ThreeInOne}, 128)
	b, ok1 := BestUnderArea(base, budget)
	c, ok2 := BestUnderArea(tio, budget)
	if !ok1 || !ok2 {
		t.Fatal("no feasible points under budget")
	}
	speedup := c.Throughput / b.Throughput
	if speedup <= 1.1 {
		t.Fatalf("three-in-one speedup %.2f at %.0f mm², want > 1.1", speedup, budget)
	}
}

func TestEnergyEfficiencyGrowsWithModelSize(t *testing.T) {
	// Fig. 16(b): the relative energy win of compression grows as models —
	// and hence communication share — grow.
	ratioAt := func(params float64) float64 {
		llm := ScaleModel(LLaMA7B, params)
		// Bigger models are forced onto deeper pipelines by memory, which
		// is what grows communication's share.
		pp := MinPP(llm, DefaultGPU)
		base := Config{GPU: DefaultGPU, NIC: DefaultNIC, Codec: NoCodec, DP: 4, PP: pp, NICsPerGPU: 1}
		comp := base
		comp.Codec = ThreeInOne
		return EnergyPerToken(llm, base) / EnergyPerToken(llm, comp)
	}
	small := ratioAt(7e9)
	large := ratioAt(70e9)
	if large <= small {
		t.Fatalf("energy win should grow with scale: 7B %.2f×, 70B %.2f×", small, large)
	}
	if small < 1 {
		t.Fatalf("compression should already win at 7B: %.2f×", small)
	}
}

func TestScaleModel(t *testing.T) {
	big := ScaleModel(LLaMA7B, 70e9)
	if big.Params != 70e9 || big.Hidden <= LLaMA7B.Hidden || big.Layers <= LLaMA7B.Layers {
		t.Fatalf("scaling wrong: %+v", big)
	}
	// Params ∝ Layers·Hidden², so both dims grow by the cube root of the
	// parameter ratio (the old √-scaling overshot by ratio^0.5).
	f := math.Cbrt(70e9 / LLaMA7B.Params)
	if math.Abs(float64(big.Hidden)-float64(LLaMA7B.Hidden)*f) > float64(LLaMA7B.Heads) {
		t.Fatalf("hidden scaling off: %d, want ≈%.0f", big.Hidden, float64(LLaMA7B.Hidden)*f)
	}
	if big.Hidden%LLaMA7B.Heads != 0 {
		t.Fatalf("hidden %d not a multiple of %d heads", big.Hidden, LLaMA7B.Heads)
	}
}

// TestScaleModelHitsTargetParams pins the scaling bug: the derived geometry
// must imply a parameter count within 1% of the requested target under the
// Layers·Hidden² law. The old √-scaling produced a 7B→70B config whose
// implied size was ~10× the target.
func TestScaleModelHitsTargetParams(t *testing.T) {
	base := LLaMA7B
	perUnit := base.Params / (float64(base.Layers) * float64(base.Hidden) * float64(base.Hidden))
	for _, target := range []float64{13e9, 34e9, 70e9, 175e9, 400e9} {
		m := ScaleModel(base, target)
		implied := perUnit * float64(m.Layers) * float64(m.Hidden) * float64(m.Hidden)
		if rel := math.Abs(implied-target) / target; rel > 0.01 {
			t.Fatalf("target %.0fB: geometry L=%d H=%d implies %.2fB (%.1f%% off)",
				target/1e9, m.Layers, m.Hidden, implied/1e9, rel*100)
		}
		if m.Hidden%base.Heads != 0 {
			t.Fatalf("target %.0fB: hidden %d not head-aligned", target/1e9, m.Hidden)
		}
	}
}

func TestMemoryConstraintPrunesSweep(t *testing.T) {
	// A model too large for a single stage must force PP > 1 points only.
	llm := ScaleModel(LLaMA7B, 100e9) // 100B params: 600GB needed
	pts := Sweep(llm, DefaultGPU, DefaultNIC, []CodecSpec{NoCodec}, 64)
	for _, p := range pts {
		if p.Cfg.PP < 16 {
			t.Fatalf("infeasible PP=%d point survived the memory check", p.Cfg.PP)
		}
	}
}

func TestAreaAndPowerAccounting(t *testing.T) {
	c := Config{GPU: DefaultGPU, NIC: DefaultNIC, Codec: ThreeInOne, DP: 2, PP: 2, NICsPerGPU: 2}
	wantArea := 4 * (398 + 2*169.7 + ThreeInOne.AreaMM2)
	if math.Abs(c.AreaMM2()-wantArea) > 1e-6 {
		t.Fatalf("area %.1f, want %.1f", c.AreaMM2(), wantArea)
	}
	if c.PowerW() <= 4*(350+50) {
		t.Fatal("power must include codec energy")
	}
}

// MeasuredCodec converts allreduce telemetry (encode MB/s of float32 input,
// achieved wire bits/value) into the spec the step model consumes.
func TestMeasuredCodecFromTelemetry(t *testing.T) {
	c := MeasuredCodec("sw-llm265", 1000, 4, 1)
	if c.Ratio != 4 {
		t.Fatalf("ratio %.2f, want 4 (16 bits → 4 bits)", c.Ratio)
	}
	// 1000 MB/s of float32 input = 500 MB/s of the FP16 wire representation
	// = 4 Gbps link-side ingest.
	if math.Abs(c.ThroughputGbps-4) > 1e-9 {
		t.Fatalf("throughput %.3f Gbps, want 4", c.ThroughputGbps)
	}
	if lanes := MeasuredCodec("x", 1000, 4, 50); math.Abs(lanes.ThroughputGbps-200) > 1e-9 {
		t.Fatalf("lane scaling broken: %.3f, want 200", lanes.ThroughputGbps)
	}
	// Degenerate telemetry falls back to an uncompressed single lane.
	d := MeasuredCodec("deg", 100, 0, 0)
	if d.Ratio != 1 || math.Abs(d.ThroughputGbps-0.4) > 1e-9 {
		t.Fatalf("degenerate fallback: ratio=%.2f thr=%.3f", d.Ratio, d.ThroughputGbps)
	}
}

// ProjectScales must (a) deepen the pipeline as models stop fitting one GPU,
// (b) never predict the codec making a step slower than uncompressed (the
// step model bypasses codecs below line rate), and (c) show a real speedup
// once the projected codec sustains line rate.
func TestProjectScalesShape(t *testing.T) {
	slow := MeasuredCodec("sw", 1, 4, 1)        // ~1 MB/s software: bypassed
	fast := MeasuredCodec("asic", 1, 4, 100000) // lane-scaled past line rate
	scales := []float64{7e9, 70e9, 400e9}

	slowP := ProjectScales(LLaMA7B, DefaultGPU, DefaultNIC, slow, 256, scales)
	fastP := ProjectScales(LLaMA7B, DefaultGPU, DefaultNIC, fast, 256, scales)
	if len(slowP) != 3 || len(fastP) != 3 {
		t.Fatalf("want 3 projections, got %d/%d", len(slowP), len(fastP))
	}
	for i := 1; i < len(fastP); i++ {
		if fastP[i].PP < fastP[i-1].PP {
			t.Fatalf("PP must grow with scale: %d then %d", fastP[i-1].PP, fastP[i].PP)
		}
	}
	for i, p := range slowP {
		if p.Speedup < 1-1e-9 || p.Speedup > 1+1e-9 {
			t.Fatalf("scale %d: below-line-rate codec must be bypassed, speedup %.3f", i, p.Speedup)
		}
	}
	for i, p := range fastP {
		if p.Speedup <= 1 {
			t.Fatalf("scale %d: line-rate codec shows no speedup (%.3f)", i, p.Speedup)
		}
		if p.StepS >= p.BaseStepS {
			t.Fatalf("scale %d: compressed step %.3fs not faster than %.3fs", i, p.StepS, p.BaseStepS)
		}
		if p.CommFrac <= 0 || p.CommFrac >= 1 {
			t.Fatalf("scale %d: comm fraction %.3f out of range", i, p.CommFrac)
		}
	}
	// Communication share grows with scale (§7.3) for the uncompressed
	// baseline; verify via the compressed-vs-base gap widening in seconds.
	if gap0, gap2 := slowP[0].BaseStepS-fastP[0].StepS, slowP[2].BaseStepS-fastP[2].StepS; gap2 <= gap0 {
		t.Fatalf("absolute savings should grow with scale: %.3fs then %.3fs", gap0, gap2)
	}
}
