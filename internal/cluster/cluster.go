// Package cluster is the analytical distributed-training performance and
// energy model of §7.2–§7.3: given an LLM configuration, hardware
// inventories (GPUs, NICs, codecs) and a parallelism layout, it predicts
// step time, throughput and power, and sweeps thousands of configurations
// to draw area-vs-performance Pareto frontiers (Fig. 16).
package cluster

import (
	"math"

	"repro/internal/hw"
)

// GPUSpec models one accelerator die.
type GPUSpec struct {
	Name    string
	AreaMM2 float64
	TFLOPS  float64 // peak compute
	MFU     float64 // achieved model-FLOPs utilization during training
	MemGB   float64
	PowerW  float64
}

// DefaultGPU is an RTX-3090-class die scaled to 7nm (Fig. 12), at the ~35%
// MFU typical of distributed transformer training.
var DefaultGPU = GPUSpec{Name: "rtx3090-7nm", AreaMM2: 398, TFLOPS: 71, MFU: 0.35, MemGB: 24, PowerW: 350}

// NICSpec models one network interface.
type NICSpec struct {
	Name    string
	AreaMM2 float64
	Gbps    float64
	PowerW  float64
}

// DefaultNIC is the measured Mellanox CX5 (Fig. 12).
var DefaultNIC = NICSpec{Name: "cx5", AreaMM2: 169.7, Gbps: 100, PowerW: 25}

// CodecSpec models a communication codec attached to each GPU.
type CodecSpec struct {
	Name           string
	AreaMM2        float64 // enc+dec pair at line rate
	PowerW         float64 // enc+dec pair steady-state power (Table 3)
	EncDecPJPerBit float64
	Ratio          float64 // achievable tensor compression ratio
	ThroughputGbps float64 // codec tensor-side throughput (caps the effective rate)
}

// NoCodec disables compression.
var NoCodec = CodecSpec{Name: "uncompressed", Ratio: 1, ThroughputGbps: math.Inf(1)}

// NVCodec is the GPU's built-in NVENC/NVDEC engines used as a tensor codec:
// free area (already on die), but tensor-side throughput capped by the
// engines (§6.1: ≈1.1 GB/s per engine; datacenter GPUs carry ~3 engines).
var NVCodec = CodecSpec{
	Name: "nvenc/dec", AreaMM2: 0,
	PowerW:         hw.H265Enc.PowerW + hw.H265Dec.PowerW,
	EncDecPJPerBit: hw.H265Enc.EnergyPerBitPJ + hw.H265Dec.EnergyPerBitPJ,
	Ratio:          4.6, // 16 bits → 3.5 bits for activations/gradients
	ThroughputGbps: 3 * 1.1 * 8,
}

// ThreeInOne is the proposed tensor-specialized codec: its shared pipeline
// is sized so the compressed output saturates a 100 Gbps link, i.e. its
// tensor-side ingest is 100 Gbps × ratio (§7: "augmenting the shared
// pipeline ... to sustain higher throughput at 100Gbps").
var ThreeInOne = CodecSpec{
	Name:           "three-in-one",
	AreaMM2:        hw.ThreeInOneEnc.AreaMM2 + hw.ThreeInOneDec.AreaMM2,
	PowerW:         hw.ThreeInOneEnc.PowerW + hw.ThreeInOneDec.PowerW,
	EncDecPJPerBit: hw.ThreeInOneEnc.EnergyPerBitPJ + hw.ThreeInOneDec.EnergyPerBitPJ,
	Ratio:          4.6,
	ThroughputGbps: 100 * 4.6,
}

// MeasuredCodec builds a CodecSpec from live telemetry instead of a
// datasheet: the gradient allreduce harness (internal/allreduce via
// train.RunDataParallel) measures its real per-core encode throughput in
// MB/s of float32 tensor input and its achieved wire bits per value, and
// this constructor turns them into the spec the step model consumes. lanes
// scales the single-core software measurement to a projected engine count
// (1 = exactly what was measured; an ASIC port multiplies lanes, not the
// model). Area/power are zero: the measured codec is software on the host.
func MeasuredCodec(name string, encodeMBps, avgBits, lanes float64) CodecSpec {
	if avgBits <= 0 {
		avgBits = 16
	}
	if lanes <= 0 {
		lanes = 1
	}
	return CodecSpec{
		Name:  name,
		Ratio: 16 / avgBits,
		// Tensor-side ingest: MB/s of float32 input → Gbps of the 16-bit
		// wire representation those values would occupy uncompressed
		// (the model's throughput cap is defined on link-side bits).
		ThroughputGbps: encodeMBps * 1e6 * 8 / 2 / 1e9 * lanes,
	}
}

// Projection is one scale point of a wall-clock projection: the measured
// codec against the uncompressed link on the same layout.
type Projection struct {
	Model     LLMConfig
	DP, PP    int
	BaseStepS float64 // uncompressed step time
	StepS     float64 // step time with the measured codec
	CommFrac  float64 // communication share of the compressed step
	Speedup   float64 // BaseStepS / StepS
}

// ProjectScales predicts training step time at each target parameter count
// for the measured codec vs the uncompressed link — the ROADMAP item 5
// projection ("feed measured encode throughput into internal/cluster to
// project wall-clock at 7B–400B scale"). Pipeline depth is the minimum that
// fits memory; data parallelism fills the GPU budget.
func ProjectScales(base LLMConfig, gpu GPUSpec, nic NICSpec, measured CodecSpec,
	gpus int, scales []float64) []Projection {

	var out []Projection
	for _, params := range scales {
		llm := ScaleModel(base, params)
		pp := MinPP(llm, gpu)
		dp := gpus / pp
		if dp < 1 {
			dp = 1
		}
		withCodec := Config{GPU: gpu, NIC: nic, Codec: measured, DP: dp, PP: pp, NICsPerGPU: 1}
		noCodec := withCodec
		noCodec.Codec = NoCodec
		s := Step(llm, withCodec)
		b := Step(llm, noCodec)
		p := Projection{
			Model: llm, DP: dp, PP: pp,
			BaseStepS: b.TotalS(), StepS: s.TotalS(),
		}
		if p.StepS > 0 {
			p.CommFrac = (s.PPCommS + s.DPCommS) / p.StepS
			p.Speedup = p.BaseStepS / p.StepS
		}
		out = append(out, p)
	}
	return out
}

// LLMConfig describes the trained model and batch geometry.
type LLMConfig struct {
	Name        string
	Params      float64 // parameter count
	Layers      int
	Hidden      int
	Heads       int // attention head count; Hidden stays a multiple of it
	SeqLen      int
	GlobalBatch int
}

// LLaMA7B approximates the paper's Fig. 16(a) workload. The small global
// batch reflects the frequent-synchronization regime the gradient-
// compression literature targets (communication at 30–95% of step time).
var LLaMA7B = LLMConfig{Name: "llama-7b", Params: 6.7e9, Layers: 32, Hidden: 4096, Heads: 32, SeqLen: 2048, GlobalBatch: 32}

// Config is one cluster design point.
type Config struct {
	GPU   GPUSpec
	NIC   NICSpec
	Codec CodecSpec
	// Parallelism: DP×PP GPUs total. NICsPerGPU may be fractional
	// (PCIe-attached NICs shared by 2–4 GPUs).
	DP, PP     int
	NICsPerGPU float64
}

// GPUs reports the total accelerator count.
func (c Config) GPUs() int { return c.DP * c.PP }

// AreaMM2 reports the total die-area budget the configuration consumes.
func (c Config) AreaMM2() float64 {
	n := float64(c.GPUs())
	return n * (c.GPU.AreaMM2 + c.NICsPerGPU*c.NIC.AreaMM2 + c.Codec.AreaMM2)
}

// PowerW reports steady-state power.
func (c Config) PowerW() float64 {
	n := float64(c.GPUs())
	return n * (c.GPU.PowerW + c.NICsPerGPU*c.NIC.PowerW + c.Codec.PowerW)
}

// StepModel is the predicted timing of one optimizer step.
type StepModel struct {
	ComputeS float64
	PPCommS  float64
	DPCommS  float64
}

// TotalS reports the step time assuming no compute/communication overlap
// (the paper's conservative model).
func (s StepModel) TotalS() float64 { return s.ComputeS + s.PPCommS + s.DPCommS }

// Step predicts one training step's timing for the given design point.
func Step(llm LLMConfig, c Config) StepModel {
	var m StepModel
	// Compute: ~6 FLOPs per parameter per token, split across all GPUs at
	// the achieved utilization.
	tokens := float64(llm.GlobalBatch) * float64(llm.SeqLen)
	flops := 6 * llm.Params * tokens
	mfu := c.GPU.MFU
	if mfu <= 0 {
		mfu = 1
	}
	m.ComputeS = flops / (float64(c.GPUs()) * c.GPU.TFLOPS * 1e12 * mfu)

	// Effective per-GPU payload rate: the line rate boosted by compression,
	// capped by the codec's tensor-side throughput — but never below the
	// raw line rate, since software bypasses a codec that would slow the
	// link down.
	lineGbps := c.NICsPerGPU * c.NIC.Gbps
	effGbps := lineGbps * c.Codec.Ratio
	if c.Codec.ThroughputGbps < effGbps {
		effGbps = c.Codec.ThroughputGbps
	}
	if effGbps < lineGbps {
		effGbps = lineGbps
	}

	// Pipeline parallelism: activations (and their gradients) cross PP−1
	// boundaries, once per microbatch each way, at 2 bytes per value.
	if c.PP > 1 {
		perBoundaryBits := tokens / float64(c.DP) * float64(llm.Hidden) * 16 * 2 // fwd + bwd
		m.PPCommS = float64(c.PP-1) * perBoundaryBits / (effGbps * 1e9)
	}
	// Data parallelism: ring all-reduce moves 2·(n−1)/n of the per-stage
	// gradient bytes through each GPU's link.
	if c.DP > 1 {
		ring := 2 * float64(c.DP-1) / float64(c.DP)
		gradBits := llm.Params / float64(c.PP) * 16 * ring
		m.DPCommS = gradBits / (effGbps * 1e9)
	}
	return m
}

// Throughput reports training throughput in tokens/second.
func Throughput(llm LLMConfig, c Config) float64 {
	t := Step(llm, c).TotalS()
	return float64(llm.GlobalBatch) * float64(llm.SeqLen) / t
}

// Point is one swept configuration with its aggregate metrics.
type Point struct {
	Cfg        Config
	AreaMM2    float64
	Throughput float64 // tokens/s
	PowerW     float64
}

// Sweep enumerates DP×PP layouts and NIC counts for each codec up to
// maxGPUs, returning every point (Fig. 16(a) sweeps >2000 of these).
func Sweep(llm LLMConfig, gpus GPUSpec, nic NICSpec, codecs []CodecSpec, maxGPUs int) []Point {
	ladder := []int{1, 2, 3, 4, 6, 8, 12, 16, 24, 32, 48, 64, 96, 128, 192, 256}
	var pts []Point
	for _, codec := range codecs {
		for _, dp := range ladder {
			if dp > maxGPUs {
				break
			}
			for _, pp := range ladder {
				if dp*pp > maxGPUs {
					break
				}
				// The model must fit: ~6 bytes/param per PP stage per GPU
				// (weights + gradients + optimizer state).
				if llm.Params*6/float64(pp)/1e9 > gpus.MemGB {
					continue
				}
				for _, nics := range []float64{0.125, 0.25, 0.5, 1, 2} {
					c := Config{GPU: gpus, NIC: nic, Codec: codec, DP: dp, PP: pp, NICsPerGPU: nics}
					pts = append(pts, Point{
						Cfg:        c,
						AreaMM2:    c.AreaMM2(),
						Throughput: Throughput(llm, c),
						PowerW:     c.PowerW(),
					})
				}
			}
		}
	}
	return pts
}

// BestUnderArea returns the highest-throughput point within an area budget.
func BestUnderArea(pts []Point, budget float64) (Point, bool) {
	var best Point
	found := false
	for _, p := range pts {
		if p.AreaMM2 <= budget && (!found || p.Throughput > best.Throughput) {
			best, found = p, true
		}
	}
	return best, found
}

// EnergyPerToken reports training energy per token (J) for a design point —
// the Fig. 16(b) metric, where communication power grows with model scale
// and compression claws it back.
func EnergyPerToken(llm LLMConfig, c Config) float64 {
	t := Step(llm, c).TotalS()
	joules := c.PowerW() * t
	return joules / (float64(llm.GlobalBatch) * float64(llm.SeqLen))
}

// MinPP reports the smallest power-of-two pipeline depth whose per-stage
// memory (weights + gradients + optimizer state, ~6 bytes/param) fits the
// GPU — the constraint that forces bigger models onto deeper pipelines and
// drives communication's share of cost up with scale (§7.3).
func MinPP(llm LLMConfig, gpu GPUSpec) int {
	pp := 1
	for llm.Params*6/float64(pp)/1e9 > gpu.MemGB {
		pp *= 2
	}
	return pp
}

// ScaleModel returns a copy of llm scaled to the given parameter count.
// Transformer parameter count goes as ∝ Layers·Hidden², so scaling both
// depth and width by the same factor f requires f = (params/base)^(1/3) —
// the cube root, not the square root the old code used (which landed at
// ratio^1.5 of the target, 10× off for a 7B→70B scale-up). Layers are
// rounded to the nearest integer and Hidden to the nearest multiple of the
// head count (a Heads of <= 0 is treated as 1), keeping the derived config
// realizable while staying within ~1% of the requested parameter count for
// any non-degenerate base.
func ScaleModel(llm LLMConfig, params float64) LLMConfig {
	f := math.Cbrt(params / llm.Params)
	out := llm
	out.Params = params
	heads := llm.Heads
	if heads <= 0 {
		heads = 1
	}
	h := int(math.Round(float64(llm.Hidden) * f / float64(heads)))
	if h < 1 {
		h = 1
	}
	out.Hidden = h * heads
	out.Layers = int(math.Round(float64(llm.Layers) * f))
	if out.Layers < 1 {
		out.Layers = 1
	}
	return out
}
