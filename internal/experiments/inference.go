package experiments

import (
	"fmt"

	"repro/internal/baselines"
	"repro/internal/codec"
	"repro/internal/core"
	"repro/internal/llm"
	"repro/internal/nn"
	"repro/internal/nvcodec"
)

// captureCalibration runs forward passes and collects each linear layer's
// inputs — the calibration sets GPTQ and AWQ depend on (and LLM.265 does
// not, which is the versatility claim).
func captureCalibration(ctx *Ctx, modelName string, batches int) map[string]*nn.Mat {
	m := ctx.Model(modelName)
	corpus := ctx.Corpus()
	linears := llm.LinearsByName(m)
	acc := map[string]*nn.Mat{}
	rng := newRng(77)
	for b := 0; b < batches; b++ {
		tokens, _ := corpus.Batch(rng, 4, m.Cfg.SeqLen)
		m.Forward(tokens)
		for name, lin := range linears {
			x := lin.CachedInput()
			if x == nil {
				continue
			}
			if acc[name] == nil {
				acc[name] = x.Clone()
			} else if acc[name].R < 512 {
				merged := nn.NewMat(acc[name].R+x.R, x.C)
				copy(merged.V, acc[name].V)
				copy(merged.V[len(acc[name].V):], x.V)
				acc[name] = merged
			}
		}
	}
	return acc
}

// calibrated runs a calibration-based quantizer (baselines.GPTQ or AWQ) on
// every matrix calib holds layer inputs for, and plain RTN on any other.
func calibrated(q func(w, x *nn.Mat, bits, group int) (*nn.Mat, float64, error),
	calib map[string]*nn.Mat, bits, group int) func(string) llm.Compressor {
	return func(name string) llm.Compressor {
		x, ok := calib[name]
		if !ok {
			return llm.RTN(bits, group)
		}
		return func(w *nn.Mat) (*nn.Mat, float64, error) { return q(w, x, bits, group) }
	}
}

// codecPerMatrix compresses every matrix with the tensor codec at bits, each
// through its own rate controller, so every QP search starts from that
// matrix's data.
func codecPerMatrix(opts core.Options, bits float64) func(string) llm.Compressor {
	return func(string) llm.Compressor { return llm.Codec(opts, bits) }
}

// perLayer is codecPerMatrix at each matrix's layer budget: budgets[i] for
// block i, the last budget for the head and any name without a block index.
func perLayer(opts core.Options, budgets []float64) func(string) llm.Compressor {
	return func(name string) llm.Compressor {
		b := budgets[len(budgets)-1]
		var i int
		if _, err := fmt.Sscanf(name, "block%d.", &i); err == nil && i < len(budgets) {
			b = budgets[i]
		}
		return llm.Codec(opts, b)
	}
}

// everyMatrix applies the stateless c to every matrix.
func everyMatrix(c llm.Compressor) func(string) llm.Compressor {
	return func(string) llm.Compressor { return c }
}

// evalCompressed compresses the model with the compressors compressor
// returns, measures mean task accuracy, then restores the weights. It returns
// the achieved average bits.
func evalCompressed(ctx *Ctx, modelName string, compressor func(string) llm.Compressor) (bits, acc float64) {
	m := ctx.Model(modelName)
	snap := llm.SnapshotWeights(m)
	defer llm.RestoreWeights(m, snap)
	bits, err := llm.CompressModel(m, compressor)
	if err != nil {
		panic(err)
	}
	_, acc = llm.EvalTasks(m, ctx.Tasks())
	return bits, acc
}

// Fig5 sweeps accuracy against average bit-width for LLM.265 (variable and
// fixed bitrate) vs GPTQ, AWQ and RTN on the 7B-class stand-in.
func Fig5(ctx *Ctx) *Table {
	modelName := "llama-mini"
	m := ctx.Model(modelName)
	_, baseAcc := llm.EvalTasks(m, ctx.Tasks())
	calib := captureCalibration(ctx, modelName, 4)

	t := &Table{
		ID:      "fig5",
		Title:   "Accuracy vs average bit-width (uncompressed accuracy: " + f2(baseAcc) + ")",
		Columns: []string{"method", "bits/value", "accuracy", "normalized"},
	}
	add := func(method string, bits, acc float64) {
		t.AddRow(method, f2(bits), f2(acc), f2(acc/baseAcc))
	}

	budgets := []float64{1.2, 1.6, 2.0, 2.5, 3.0, 4.0}
	if ctx.Quick {
		budgets = []float64{1.6, 2.5, 3.5}
	}
	opts := core.DefaultOptions()
	for _, b := range budgets {
		bits, acc := evalCompressed(ctx, modelName, codecPerMatrix(opts, b))
		add("LLM.265 (fixed)", bits, acc)
	}
	// Variable bitrate: search the per-layer slope with a cheap perplexity
	// objective, then evaluate the winner on the tasks.
	ks := []float64{-0.2, 0, 0.2}
	if ctx.Quick {
		ks = []float64{0, 0.2}
	}
	for _, b := range budgets {
		sched, _, err := core.SearchVariableSchedule(m.Cfg.Layers, b, ks, func(budgets []float64) float64 {
			snap := llm.SnapshotWeights(m)
			defer llm.RestoreWeights(m, snap)
			if _, err := llm.CompressModel(m, perLayer(opts, budgets)); err != nil {
				panic(err)
			}
			return llm.Perplexity(m, ctx.Corpus(), 3)
		})
		if err != nil {
			panic(err)
		}
		bits, acc := evalCompressed(ctx, modelName, perLayer(opts, sched))
		add("LLM.265 (variable)", bits, acc)
	}

	intBits := []int{2, 3, 4}
	if ctx.Quick {
		intBits = []int{3}
	}
	for _, b := range intBits {
		bits, acc := evalCompressed(ctx, modelName, calibrated(baselines.GPTQ, calib, b, 0))
		add("GPTQ", bits, acc)
		bits, acc = evalCompressed(ctx, modelName, calibrated(baselines.AWQ, calib, b, 0))
		add("AWQ", bits, acc)
		bits, acc = evalCompressed(ctx, modelName, everyMatrix(llm.RTN(b, 0)))
		add("RTN", bits, acc)
	}
	t.Notes = append(t.Notes,
		"paper Fig. 5: LLM.265 holds accuracy to ~3 bits and degrades gracefully below; GPTQ/AWQ need ~4.25 bits and collapse under 3",
		"variable bitrate should match or beat fixed at equal budget, most visibly below 3 bits")
	return t
}

// Table1 reproduces the 70B-class comparison at ~3 bits on three tasks.
func Table1(ctx *Ctx) *Table {
	modelName := "llama-mid"
	m := ctx.Model(modelName)
	tasks := ctx.Tasks()
	pick := tasks[:3] // stand-ins for PIQA / WinoGrande / HellaSwag
	calib := captureCalibration(ctx, modelName, 4)

	t := &Table{
		ID:      "table1",
		Title:   "70B-class stand-in, ~3-bit weight compression",
		Columns: []string{"avg bits", "algorithm", pick[0].Name, pick[1].Name, pick[2].Name},
	}
	evalRow := func(label string, compressor func(string) llm.Compressor) {
		snap := llm.SnapshotWeights(m)
		defer llm.RestoreWeights(m, snap)
		var bits float64
		if compressor != nil {
			var err error
			bits, err = llm.CompressModel(m, compressor)
			if err != nil {
				panic(err)
			}
		} else {
			bits = 16
		}
		accs := make([]string, len(pick))
		for i, task := range pick {
			accs[i] = f2(llm.EvalTask(m, task))
		}
		t.AddRow(f2(bits), label, accs[0], accs[1], accs[2])
	}

	evalRow("- (BF16)", nil)
	// On the substrate's ≤128-row matrices a 128-group spans the whole
	// input dimension, so the "-128G" variants coincide with per-column
	// grids; their metadata (0.44 b/v here vs the paper's 0.25) is charged
	// honestly either way.
	evalRow("GPTQ-128G", calibrated(baselines.GPTQ, calib, 3, 128))
	evalRow("AWQ-128G", calibrated(baselines.AWQ, calib, 3, 128))
	evalRow("GPTQ", calibrated(baselines.GPTQ, calib, 3, 0))
	evalRow("AWQ", calibrated(baselines.AWQ, calib, 3, 0))
	evalRow("LLM.265", codecPerMatrix(core.DefaultOptions(), 2.88))
	t.Notes = append(t.Notes, "paper Table 1: LLM.265 at 2.88 bits matches the 3.25-bit group-wise baselines and beats the 3.0-bit per-tensor ones")
	return t
}

// Fig6 compares the three codec profiles at matched bit budgets.
func Fig6(ctx *Ctx) *Table {
	modelName := "llama-mini"
	m := ctx.Model(modelName)
	_, baseAcc := llm.EvalTasks(m, ctx.Tasks())

	budgets := []float64{1.4, 1.8, 2.4, 3.0, 4.0}
	if ctx.Quick {
		budgets = []float64{1.8, 3.0}
	}
	t := &Table{
		ID:      "fig6",
		Title:   "Codec selection (normalized accuracy; uncompressed acc " + f2(baseAcc) + ")",
		Columns: append([]string{"bits/value"}, "H.264", "H.265", "AV1"),
	}
	for _, b := range budgets {
		row := []string{f2(b)}
		for _, prof := range []codec.Profile{codec.H264, codec.HEVC, codec.AV1} {
			opts := core.DefaultOptions()
			opts.Profile = prof
			_, acc := evalCompressed(ctx, modelName, codecPerMatrix(opts, b))
			row = append(row, f2(acc/baseAcc))
		}
		t.AddRow(row...)
	}
	t.Notes = append(t.Notes, "paper Fig. 6: above ~1.8 bits the three codecs overlap within noise")
	return t
}

// Table2 prints the GPU support matrix (paper Table 2).
func Table2(*Ctx) *Table {
	t := &Table{
		ID:      "table2",
		Title:   "GPU support for video codecs",
		Columns: []string{"GPU gen.", "H.264", "H.265", "AV1", "VP9"},
	}
	desc := func(s nvcodec.Support, ok bool) string {
		if !ok {
			return "-"
		}
		res := "4K"
		if s.MaxDim >= 8192 {
			res = "8K"
		}
		switch {
		case s.Encode && s.Decode:
			return res + " Enc/Dec"
		case s.Decode:
			return res + " Dec"
		default:
			return res + " Enc"
		}
	}
	for _, g := range nvcodec.Generations() {
		row := []string{g.Name}
		for _, c := range []string{"H.264", "H.265", "AV1", "VP9"} {
			s, ok := g.Codecs[c]
			row = append(row, desc(s, ok))
		}
		t.AddRow(row...)
	}
	return t
}

// Fig7 applies LLM.265 vs AWQ vs RTN to the other model families.
func Fig7(ctx *Ctx) *Table {
	t := &Table{
		ID:      "fig7",
		Title:   "Model compression across families (mean task accuracy at ~3 bits)",
		Columns: []string{"family", "uncompressed", "LLM.265@2.9", "AWQ@3", "RTN@3"},
	}
	for _, name := range []string{"t5-mini", "vit-mini"} {
		m := ctx.Model(name)
		// Family-specific tasks from the same generator (the readout is
		// what differs across Fig. 7's subplots).
		tasks := llm.GenerateTasks(ctx.Corpus(), int64(len(name)), 24)
		evalAll := func() float64 {
			var sum float64
			for _, task := range tasks {
				sum += llm.EvalTask(m, task)
			}
			return sum / float64(len(tasks))
		}
		base := evalAll()
		run := func(compressor func(string) llm.Compressor) float64 {
			snap := llm.SnapshotWeights(m)
			defer llm.RestoreWeights(m, snap)
			if _, err := llm.CompressModel(m, compressor); err != nil {
				panic(err)
			}
			return evalAll()
		}
		calib := captureCalibration(ctx, name, 3)
		t.AddRow(name, f2(base),
			f2(run(codecPerMatrix(core.DefaultOptions(), 2.9))),
			f2(run(calibrated(baselines.AWQ, calib, 3, 0))),
			f2(run(everyMatrix(llm.RTN(3, 0)))))
	}
	t.Notes = append(t.Notes, "paper Fig. 7: LLM.265 surpasses AWQ and RTN across all four task families")
	return t
}

// Fig8 compares KV-cache and boundary-activation compression across RTN,
// rotation-based baselines and LLM.265.
func Fig8(ctx *Ctx) *Table {
	modelName := "llama-mid"
	m := ctx.Model(modelName)
	corpus := ctx.Corpus()
	tasks := ctx.Tasks()[:3]
	stages := 2
	nEval := 8
	if ctx.Quick {
		nEval = 4
	}

	rng := newRng(8)
	rot := baselines.RandomRotation(rng, m.Cfg.Dim)
	rot2 := baselines.RandomRotation(newRng(9), m.Cfg.Dim)

	dim := m.Cfg.Dim // K, V and activations are [B·T, dim]: RTN(b, dim) is per-row
	opts := core.DefaultOptions()
	same := func(c llm.Compressor) nn.KVHook { return llm.KVHook(c, c) }
	codecKV := func(bits float64) nn.KVHook { return llm.KVHook(llm.Codec(opts, bits), llm.Codec(opts, bits)) }

	evalCfg := func(kv nn.KVHook, act llm.Compressor) (float64, float64) {
		m.SetKVHook(kv)
		defer m.SetKVHook(nil)
		toks, tgts := corpus.ValidBatches(nEval, 4, m.Cfg.SeqLen)
		ppl, err := llm.BoundaryPerplexity(m, toks, tgts, stages, act)
		if err != nil {
			panic(err)
		}
		var acc float64
		for _, task := range tasks {
			acc += llm.EvalTask(m, task)
		}
		return ppl, acc / float64(len(tasks))
	}

	t := &Table{
		ID:      "fig8",
		Title:   "KV-cache + activation compression (ppl lower / acc higher is better)",
		Columns: []string{"config", "perplexity", "Δppl %", "accuracy"},
	}
	basePPL, baseAcc := evalCfg(nil, nil)
	t.AddRow("FP16 baseline", f2(basePPL), "0.0", f2(baseAcc))

	type cfg struct {
		name string
		kv   nn.KVHook
		act  llm.Compressor
	}
	cfgs := []cfg{
		{"RTN KV3", same(llm.RTN(3, dim)), nil},
		{"SpinQuant KV3", same(llm.Rotated(rot2, 3)), nil},
		{"QuaRot KV3", same(llm.Rotated(rot, 3)), nil},
		{"LLM.265 KV2.9", codecKV(2.9), nil},
		{"RTN A4", nil, llm.RTN(4, dim)},
		{"QuaRot A4", nil, llm.Rotated(rot, 4)},
		{"LLM.265 A3.5", nil, llm.Codec(opts, 3.5)},
		{"RTN KV3+A4", same(llm.RTN(3, dim)), llm.RTN(4, dim)},
		{"QuaRot KV3+A4", same(llm.Rotated(rot, 3)), llm.Rotated(rot, 4)},
		{"LLM.265 KV2.9+A3.5", codecKV(2.9), llm.Codec(opts, 3.5)},
	}
	for _, c := range cfgs {
		ppl, acc := evalCfg(c.kv, c.act)
		t.AddRow(c.name, f2(ppl), fmt.Sprintf("%.1f", 100*(ppl/basePPL-1)), f2(acc))
	}
	t.Notes = append(t.Notes,
		"paper Fig. 8: LLM.265 at KV 2.9b + A 3.5b costs ~7% perplexity and ~1% accuracy; RTN KV3 nearly destroys the model")
	return t
}
