package experiments

import (
	"context"
	"fmt"
	"math"

	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/entropy"
	"repro/internal/hw"
	"repro/internal/llm"
	"repro/internal/nn"
	"repro/internal/quant"
)

// Fig12 reports the die-area comparison and the codec component breakdowns.
func Fig12(*Ctx) *Table {
	t := &Table{
		ID:      "fig12",
		Title:   "Die area: GPUs, CPU, NIC vs video codecs normalized to 100 Gbps",
		Columns: []string{"device", "area mm²", "vs H.264 pair"},
	}
	pair := hw.H264Enc.AreaMM2 + hw.H264Dec.AreaMM2
	for _, c := range []hw.Component{
		hw.GPURTX3090, hw.GPURTX3090At7, hw.CPUServer, hw.NICMellanoxCX5,
		hw.H264Enc, hw.H264Dec, hw.H265Enc, hw.H265Dec,
	} {
		t.AddRow(c.Name, f2(c.AreaMM2), fmt.Sprintf("%.1fx", c.AreaMM2/pair))
	}
	t.AddRow("H.264 enc+dec pair (100Gbps)", f2(pair), "1.0x")
	t.Notes = append(t.Notes,
		fmt.Sprintf("%d single 4K60 codec instances aggregate to 100 Gb/s", hw.InstancesFor(100)),
		fmt.Sprintf("encoder area breakdown: inter %.0f%%, frame buffer %.0f%%, intra %.0f%%, transform %.0f%%, entropy %.0f%%, misc %.0f%%",
			100*hw.EncoderBreakdown.InterPred, 100*hw.EncoderBreakdown.FrameBuffer,
			100*hw.EncoderBreakdown.IntraPred, 100*hw.EncoderBreakdown.Transform,
			100*hw.EncoderBreakdown.Entropy, 100*hw.EncoderBreakdown.Misc),
		fmt.Sprintf("dropping inter prediction keeps only %.0f%% of the encoder die (tensor-specialized codec)",
			100*hw.EncoderBreakdown.TensorOnlyFraction()))
	return t
}

// Table3 reports energy/area/power of the codecs against NCCL.
func Table3(*Ctx) *Table {
	t := &Table{
		ID:      "table3",
		Title:   "Energy for communication vs compression",
		Columns: []string{"component", "power W", "area mm²", "energy/bit pJ"},
	}
	row := func(c hw.Component) {
		power, area := "-", "-"
		if c.PowerW > 0 {
			power = f2(c.PowerW)
		}
		if c.AreaMM2 > 0 {
			area = f2(c.AreaMM2)
		}
		t.AddRow(c.Name, power, area, f2(c.EnergyPerBitPJ))
	}
	row(hw.NCCLEndToEnd)
	row(hw.H264Enc)
	row(hw.H264Dec)
	row(hw.H265Enc)
	row(hw.H265Dec)
	row(hw.ThreeInOneEnc)
	row(hw.ThreeInOneDec)
	t.Notes = append(t.Notes,
		fmt.Sprintf("three-in-one enc+dec is %.1fx cheaper per bit than NCCL end-to-end", hw.EnergyRatioVsNCCL(hw.ThreeInOneEnc, hw.ThreeInOneDec)),
		fmt.Sprintf("at 5x compression the end-to-end energy win is %.2fx", hw.CompressionEnergyEfficiency(hw.ThreeInOneEnc, hw.ThreeInOneDec, 5)))
	return t
}

// fig14Point is one (bits, MAE) measurement of a chained pipeline. The
// paper's Fig. 14(a) uses mean-absolute-error: unlike MSE (dominated by a
// few spikes), MAE penalizes collapsing the many small gradient entries.
type fig14Point struct {
	method string
	bits   float64
	mae    float64
}

// fig14Grid measures every {quantizer}×{entropy coder} chain plus LLM.265
// on a real gradient bucket (collected from a short training run of the
// substrate model — real gradients carry the outer-product structure that
// synthetic iid draws lack, and that structure is what the codec exploits).
func fig14Grid(ctx *Ctx) []fig14Point {
	steps := 60
	if ctx.Quick {
		steps = 30
	}
	grad := realGradientBucket(ctx, steps)
	n := len(grad)

	var pts []fig14Point
	g := &nn.Mat{R: 1, C: n, V: grad}
	for _, q := range symbolQuantizers() {
		for _, coder := range entropy.All() {
			rec, bits, err := chained(q, coder)(g)
			if err != nil {
				panic(err)
			}
			pts = append(pts, fig14Point{q.name + "+" + coder.Name(), bits, quant.MAE(grad, rec.V)})
		}
	}

	// LLM.265 / three-in-one: QP sweep on the same tensor. Per-row 8-bit
	// mapping gives the codec the same multi-scale handling the group-wise
	// baselines enjoy (one scale per 128-value row).
	cols := 128
	rows := n / cols
	tns := core.FromSlice(rows, cols, grad[:rows*cols])
	o := core.DefaultOptions()
	o.PerRowQuant = true
	for _, qp := range []int{2, 8, 14, 20, 26, 32} {
		e, rec, err := o.EncodeStackRecon(context.Background(), []*core.Tensor{tns}, qp)
		if err != nil {
			panic(err)
		}
		pts = append(pts, fig14Point{"three-in-one (LLM.265)", e.BitsPerValue(), quant.MAE(tns.Data, rec[0].Data)})
	}
	return pts
}

// A symbolQuantizer is the first stage of a §7.1 chained pipeline: one byte
// symbol per value, the reconstruction, and the side information (scales,
// zero points) in bits.
type symbolQuantizer struct {
	name     string
	quantize func([]float32) (symbols []byte, rec []float32, sideBits int)
}

// symbolQuantizers are Fig. 14's six: INT3/4/6 in 128-value groups and the
// three MX formats.
func symbolQuantizers() []symbolQuantizer {
	var qs []symbolQuantizer
	for _, bits := range []int{3, 4, 6} {
		qs = append(qs, symbolQuantizer{fmt.Sprintf("INT%d", bits),
			func(v []float32) ([]byte, []float32, int) { return quant.RTNSymbols(v, bits, 128) }})
	}
	for _, f := range []*quant.MXFPFormat{quant.MXFP4, quant.MXFP6, quant.MXFP8} {
		qs = append(qs, symbolQuantizer{f.Name,
			func(v []float32) ([]byte, []float32, int) { return quant.MXFPSymbols(v, f) }})
	}
	return qs
}

// chained is the pipeline q → coder as a Compressor: it charges the coded
// symbols plus q's side information.
func chained(q symbolQuantizer, coder entropy.Coder) llm.Compressor {
	return func(m *nn.Mat) (*nn.Mat, float64, error) {
		symbols, rec, sideBits := q.quantize(m.V)
		comp, err := coder.Encode(symbols)
		if err != nil {
			return nil, 0, err
		}
		n := float64(len(m.V))
		return &nn.Mat{R: m.R, C: m.C, V: rec}, float64(len(comp))*8/n + float64(sideBits)/n, nil
	}
}

// Fig14 renders the information-efficiency grid: (a) gradient error vs bits.
func Fig14(ctx *Ctx) *Table {
	pts := fig14Grid(ctx)
	t := &Table{
		ID:      "fig14",
		Title:   "Chained-pipeline baselines vs three-in-one on gradients",
		Columns: []string{"method", "bits/value", "MAE"},
	}
	for _, p := range pts {
		t.AddRow(p.method, f2(p.bits), f(p.mae))
	}

	// Part (b): always-on weight compression accuracy at matched bits, each
	// chain charged its CABAC-coded size as in part (a).
	m := ctx.Model("llama-mini")
	_, baseAcc := llm.EvalTasks(m, ctx.Tasks())
	qs := symbolQuantizers()
	intBits, intAcc := evalCompressed(ctx, "llama-mini", everyMatrix(chained(qs[0], entropy.CABACCoder{})))
	mxBits, mxAcc := evalCompressed(ctx, "llama-mini", everyMatrix(chained(qs[3], entropy.CABACCoder{})))
	l265Bits, l265Acc := evalCompressed(ctx, "llama-mini", codecPerMatrix(core.DefaultOptions(), 2.9))
	t.Notes = append(t.Notes,
		fmt.Sprintf("(b) always-on accuracy (base %.2f): %s+CABAC %.2f@%.2fb, %s+CABAC %.2f@%.2fb, three-in-one %.2f@%.2fb",
			baseAcc, qs[0].name, intAcc, intBits, qs[3].name, mxAcc, mxBits, l265Acc, l265Bits),
		"paper Fig. 14: under equal error the three-in-one uses fewer bits than all eight chained baselines")
	return t
}

// Fig15 compares codec+NIC system area and one-epoch gradient-transfer
// energy for the baselines and the three-in-one, using the compression
// ratios each method actually achieves at matched quality on gradients.
func Fig15(ctx *Ctx) *Table {
	pts := fig14Grid(ctx)
	// Matched quality: the three-in-one's operating point nearest 2.8 bits
	// sets the MAE target; each family contributes its cheapest point at or
	// below that error (falling back to its most accurate point).
	var target float64
	bestDist := 1e18
	for _, p := range pts {
		if p.method != "three-in-one (LLM.265)" {
			continue
		}
		if d := math.Abs(p.bits - 2.8); d < bestDist {
			bestDist, target = d, p.mae
		}
	}
	best := map[string]fig14Point{}
	for _, p := range pts {
		family := familyOf(p.method)
		cur, ok := best[family]
		switch {
		case !ok:
			best[family] = p
		case p.mae <= target && (cur.mae > target || p.bits < cur.bits):
			best[family] = p
		case p.mae > target && cur.mae > target && p.mae < cur.mae:
			best[family] = p
		}
	}

	// Pythia-125M gradients for one epoch (125M params × 16 bits × 2
	// all-reduce passes × 1000 steps/epoch — modeled).
	traffic := 125e6 * 16 * 2 * 1000

	t := &Table{
		ID:      "fig15",
		Title:   "100 Gbps system: codec+NIC area and one-epoch gradient energy",
		Columns: []string{"codec", "ratio", "area mm²", "energy J"},
	}
	for _, bc := range hw.BaselineCodecs {
		p, ok := best[bc.Name]
		if !ok {
			continue
		}
		ratio := 16 / p.bits
		area := hw.SystemArea(bc.EncArea, bc.DecArea, ratio)
		enc := hw.Component{EnergyPerBitPJ: bc.EncPJ}
		dec := hw.Component{EnergyPerBitPJ: bc.DecPJ}
		energy := hw.TransferEnergyPJ(enc, dec, ratio, traffic) * 1e-12
		t.AddRow(bc.Name+" ("+p.method+")", f2(ratio), f2(area), f2(energy))
	}
	if p, ok := best["three-in-one"]; ok {
		ratio := 16 / p.bits
		area := hw.SystemArea(hw.ThreeInOneEnc.AreaMM2, hw.ThreeInOneDec.AreaMM2, ratio)
		energy := hw.TransferEnergyPJ(hw.ThreeInOneEnc, hw.ThreeInOneDec, ratio, traffic) * 1e-12
		t.AddRow("three-in-one", f2(ratio), f2(area), f2(energy))
	}
	t.AddRow("no compression (NIC only)", "1.00", f2(hw.NICMellanoxCX5.AreaMM2),
		f2(traffic*hw.NCCLEndToEnd.EnergyPerBitPJ*1e-12))
	t.Notes = append(t.Notes,
		"paper Fig. 15: the three-in-one's higher information efficiency shrinks the NIC (the dominant cost), giving the best area and energy")
	return t
}

// familyOf maps a grid method name to its entropy-coder family, or to
// "three-in-one".
func familyOf(method string) string {
	for _, c := range []string{"Huffman", "Deflate", "LZ4", "CABAC"} {
		if len(method) > len(c) && method[len(method)-len(c):] == c {
			return c
		}
	}
	return "three-in-one"
}

// Fig16 runs the cluster-level model: the area-vs-performance Pareto sweep
// and the energy-efficiency-vs-model-size projection.
func Fig16(ctx *Ctx) *Table {
	// The paper sweeps >2,000 configurations; the full profile matches it.
	maxGPUs := 768
	if ctx.Quick {
		maxGPUs = 128
	}
	codecs := []cluster.CodecSpec{cluster.NoCodec, cluster.NVCodec, cluster.ThreeInOne}
	pts := cluster.Sweep(cluster.LLaMA7B, cluster.DefaultGPU, cluster.DefaultNIC, codecs, maxGPUs)

	t := &Table{
		ID:      "fig16",
		Title:   fmt.Sprintf("Cluster modeling (%d configurations swept)", len(pts)),
		Columns: []string{"area budget mm²", "uncompressed tok/s", "NVENC/DEC tok/s", "three-in-one tok/s", "speedup"},
	}
	byCodec := map[string][]cluster.Point{}
	for _, p := range pts {
		byCodec[p.Cfg.Codec.Name] = append(byCodec[p.Cfg.Codec.Name], p)
	}
	for _, budget := range []float64{15000, 30000, 50000, 80000} {
		u, okU := cluster.BestUnderArea(byCodec["uncompressed"], budget)
		v, okV := cluster.BestUnderArea(byCodec["nvenc/dec"], budget)
		c, okC := cluster.BestUnderArea(byCodec["three-in-one"], budget)
		if !okU || !okV || !okC {
			continue
		}
		t.AddRow(f2(budget), f2(u.Throughput), f2(v.Throughput), f2(c.Throughput),
			fmt.Sprintf("%.2fx", c.Throughput/u.Throughput))
	}

	// (b) energy efficiency vs model size with memory-driven pipelines.
	for _, params := range []float64{7e9, 13e9, 30e9, 70e9} {
		llmCfg := cluster.ScaleModel(cluster.LLaMA7B, params)
		pp := cluster.MinPP(llmCfg, cluster.DefaultGPU)
		base := cluster.Config{GPU: cluster.DefaultGPU, NIC: cluster.DefaultNIC, Codec: cluster.NoCodec, DP: 4, PP: pp, NICsPerGPU: 1}
		comp := base
		comp.Codec = cluster.ThreeInOne
		ratio := cluster.EnergyPerToken(llmCfg, base) / cluster.EnergyPerToken(llmCfg, comp)
		t.Notes = append(t.Notes, fmt.Sprintf("(b) %.0fB params (PP=%d): compression energy win %.2fx", params/1e9, pp, ratio))
	}
	t.Notes = append(t.Notes,
		"paper Fig. 16: compression dominates the Pareto frontier (~1.7x at 50k mm²); the energy win grows with model scale")
	return t
}
