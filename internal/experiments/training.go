package experiments

import (
	"context"
	"fmt"
	"math/rand"

	"repro/internal/allreduce"
	"repro/internal/core"
	"repro/internal/llm"
	"repro/internal/nn"
	"repro/internal/train"
)

// freshModel builds an untrained model from a zoo spec with a fixed init
// seed so every training-experiment arm starts from identical weights.
func freshModel(name string, seed int64) *nn.Transformer {
	spec, ok := llm.Zoo()[name]
	if !ok {
		panic(fmt.Sprintf("experiments: unknown model %q", name))
	}
	return nn.NewTransformer(rand.New(rand.NewSource(seed)), spec.Cfg)
}

// Fig9 reproduces pipeline-parallel training with compressed inter-stage
// communication: uncompressed, LLM.265(A), LLM.265(A)+GQ and LLM.265(A+G)
// with residual compensation.
func Fig9(ctx *Ctx) *Table {
	const modelName = "pythia-pp"
	corpus := ctx.Corpus()
	steps := ctx.trainSteps(800)
	switchStep := steps * 5 / 16 // the paper's 2500/8000 ratio

	type arm struct {
		name string
		cfg  train.PipelineConfig
	}
	pp := func(act, grad llm.Compressor) train.PipelineConfig {
		return train.PipelineConfig{Stages: 4, AccumSteps: 2, CompressActivations: act, CompressActGrads: grad}
	}
	opts := core.DefaultOptions()
	arms := []arm{
		{"uncompressed", pp(nil, nil)},
		{"LLM.265(A@3.5)", pp(llm.Codec(opts, 3.5), nil)},
		{"LLM.265(A)+GQ (RTN-8 grads)", pp(llm.Codec(opts, 3.5), llm.RTN(8, 128))},
		{"LLM.265(A+G) residual comp.", pp(llm.Codec(opts, 3.5), llm.Residual(opts, 3.5, switchStep))},
	}

	t := &Table{
		ID:      "fig9",
		Title:   fmt.Sprintf("Pipeline-parallel training (%d steps, 4 stages)", steps),
		Columns: []string{"config", "act bits", "grad bits", "loss@25%", "loss@100%", "final val ppl"},
	}
	for _, a := range arms {
		m := freshModel(modelName, 1234)
		res, err := train.RunPipeline(m, corpus, nn.NewAdam(3e-3), a.cfg, steps, 55)
		if err != nil {
			panic(err)
		}
		q := res.Curve[len(res.Curve)/4].Loss
		last := res.Curve[len(res.Curve)-1].Loss
		t.AddRow(a.name, f2(res.ActBits), f2(res.GradBits), f2(q), f2(last), f2(res.FinalPPL))
	}
	t.Notes = append(t.Notes,
		"paper Fig. 9: LLM.265(A) converges at least as fast as uncompressed (78% comm saved); naive gradient RTN deviates; residual compensation (avg ~10.1 bits) tracks the uncompressed loss")
	return t
}

// dpArm is one Fig. 10 configuration: build returns the optimizer, the
// all-reduce's compression choice (wire codec + error feedback; the zero
// Config is the uncompressed FP16 link) and an optional per-step callback
// (used by the warm-up baselines to freeze the optimizer's variance).
type dpArm struct {
	name  string
	build func(steps int) (nn.Optimizer, allreduce.Config, func(step int))
}

// dpArms lists the Fig. 10 arms. Error feedback is part of the 1-bit
// algorithm and off for RTN (the naive-quantizer baseline) and for LLM.265,
// which the paper runs without it.
func dpArms() []dpArm {
	plain := func(c allreduce.CodecFactory, ef bool) func(int) (nn.Optimizer, allreduce.Config, func(int)) {
		return func(int) (nn.Optimizer, allreduce.Config, func(int)) {
			return nn.NewAdam(3e-3), allreduce.Config{Codec: c, ErrorFeedback: ef}, nil
		}
	}
	oneBit := func(lamb bool) func(steps int) (nn.Optimizer, allreduce.Config, func(int)) {
		return func(steps int) (nn.Optimizer, allreduce.Config, func(int)) {
			warmup := steps * 15 / 100
			rcfg := allreduce.Config{Codec: allreduce.SignCodec(warmup), ErrorFeedback: true}
			if lamb {
				opt := nn.NewLAMB(2e-3)
				return opt, rcfg, func(step int) { opt.FreezeVariance = step+1 >= warmup }
			}
			opt := nn.NewAdam(3e-3)
			return opt, rcfg, func(step int) { opt.FreezeVariance = step+1 >= warmup }
		}
	}
	llm265 := func(bits float64) func(int) (nn.Optimizer, allreduce.Config, func(int)) {
		return plain(allreduce.RateCodec(core.DefaultOptions(), bits), false)
	}
	return []dpArm{
		{"uncompressed", plain(nil, false)},
		{"LLM.265 (2.6b)", llm265(2.6)},
		{"LLM.265 (1.4b)", llm265(1.4)},
		{"LLM.265 (0.8b)", llm265(0.8)},
		{"1-bit Adam", oneBit(false)},
		{"1-bit LAMB", oneBit(true)},
		{"RTN 4-bit", plain(allreduce.RTNCodec(4, 128), false)},
		{"RTN 2-bit", plain(allreduce.RTNCodec(2, 128), false)},
	}
}

// fig10Models caches the trained DP models, with each arm's error-feedback
// setting, for Fig. 11.
var fig10Models map[string]fig10Model

type fig10Model struct {
	m  *nn.Transformer
	ef string // "on" / "off"
}

// Fig10 reproduces data-parallel training with compressed gradients.
func Fig10(ctx *Ctx) *Table {
	const modelName = "pythia-dp"
	corpus := ctx.Corpus()
	steps := ctx.trainSteps(800)

	t := &Table{
		ID:      "fig10",
		Title:   fmt.Sprintf("Data-parallel training (%d steps, 4 replicas)", steps),
		Columns: []string{"config", "error feedback", "avg bits", "final loss", "final val ppl"},
	}
	fig10Models = map[string]fig10Model{}
	for _, a := range dpArms() {
		m := freshModel(modelName, 4321)
		opt, rcfg, onStep := a.build(steps)
		res, err := train.RunDataParallel(context.Background(), m, corpus, opt,
			train.DPConfig{Replicas: 4, Batch: 4}, rcfg, steps, 66, onStep)
		if err != nil {
			panic(err)
		}
		ef := "off"
		if rcfg.ErrorFeedback {
			ef = "on"
		}
		fig10Models[a.name] = fig10Model{m, ef}
		t.AddRow(a.name, ef, f2(res.AvgBits), f2(res.Curve[len(res.Curve)-1].Loss), f2(res.FinalPPL))
	}
	t.Notes = append(t.Notes,
		"paper Fig. 10 ordering: LLM.265(2.6) > RTN-4 > LLM.265(1.4) > LLM.265(0.8) ~ 1-bit LAMB > RTN-2; LLM.265 needs no warm-up or optimizer change")
	return t
}

// Fig11 evaluates the Fig. 10 models on the downstream task suite.
func Fig11(ctx *Ctx) *Table {
	if fig10Models == nil {
		Fig10(ctx)
	}
	tasks := ctx.Tasks()
	t := &Table{
		ID:      "fig11",
		Title:   "Downstream accuracy of DP-trained models",
		Columns: []string{"config", "error feedback", "mean accuracy", "vs uncompressed"},
	}
	base := 0.0
	if a, ok := fig10Models["uncompressed"]; ok {
		_, base = llm.EvalTasks(a.m, tasks)
	}
	for _, name := range []string{"uncompressed", "LLM.265 (2.6b)", "LLM.265 (1.4b)", "1-bit Adam", "RTN 4-bit"} {
		a, ok := fig10Models[name]
		if !ok {
			continue
		}
		_, acc := llm.EvalTasks(a.m, tasks)
		rel := "-"
		if base > 0 {
			rel = f2(acc / base)
		}
		t.AddRow(name, a.ef, f2(acc), rel)
	}
	t.Notes = append(t.Notes,
		"paper Fig. 11: LLM.265(1.4b) keeps ≥95.2% and LLM.265(2.6b) ≥96.6% of the uncompressed model's accuracy")
	return t
}

// realGradientBucket trains the DP stand-in briefly and returns the
// flattened weight-matrix gradient bucket of the final step — the tensor
// family the Fig. 14/15 information-efficiency studies compress.
func realGradientBucket(ctx *Ctx, steps int) []float32 {
	corpus := ctx.Corpus()
	m := freshModel("pythia-dp", 1414)
	opt := nn.NewAdam(3e-3)
	rng := rand.New(rand.NewSource(14))
	for step := 0; step < steps; step++ {
		toks, tgts := corpus.Batch(rng, 4, m.Cfg.SeqLen)
		m.ZeroGrads()
		m.TrainStep(toks, tgts)
		if step < steps-1 {
			opt.Step(m.Params())
		}
	}
	var flat []float32
	for _, p := range m.Params() {
		if p.G.R >= 8 && p.G.C >= 8 {
			flat = append(flat, p.G.V...)
		}
	}
	return flat
}
