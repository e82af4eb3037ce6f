// Package train simulates the two distributed-training regimes of §5:
// pipeline parallelism (activations and activation gradients cross stage
// boundaries) and data parallelism (weight gradients cross replicas), with
// pluggable compression at every communication seam. Because this is a
// single-process simulation, "communication" is a function call — what we
// measure is exactly what the paper measures: the loss/perplexity
// trajectory under lossy communication and the bits that crossed the wire.
package train

import (
	"math/rand"

	"repro/internal/data"
	"repro/internal/llm"
	"repro/internal/nn"
)

// PipelineConfig configures pipeline-parallel training.
type PipelineConfig struct {
	Stages int // must divide the model's layer count

	// CompressActivations is applied to boundary activations on the forward
	// pass; CompressActGrads to boundary gradients on the backward pass. A nil
	// compressor is the uncompressed FP16 link (16 bits per value).
	CompressActivations llm.Compressor
	CompressActGrads    llm.Compressor

	MicroBatch int // sequences per microbatch
	AccumSteps int // gradient accumulation (microbatches per step)

	EvalEvery   int // validation cadence in steps (0 = never)
	EvalBatches int
}

// CurvePoint is one sampled point of a training trajectory.
type CurvePoint struct {
	Step int
	Loss float64 // running training loss at this step
	PPL  float64 // validation perplexity (only on eval steps, else 0)
}

// PipelineResult summarizes a pipeline-parallel run.
type PipelineResult struct {
	Curve        []CurvePoint
	FinalPPL     float64
	ActBits      float64 // average bits/value for boundary activations
	GradBits     float64 // average bits/value for boundary act-gradients
	BoundaryVals float64 // values that crossed boundaries (per direction)
}

// RunPipeline trains the model for steps optimizer steps under the given
// stage partitioning and compression, reporting the trajectory. The
// simulation runs microbatches sequentially (forward+backward per
// microbatch, gradient accumulation across them), which is numerically
// identical to GPipe-style scheduling.
func RunPipeline(m *nn.Transformer, corpus *data.Corpus, opt nn.Optimizer,
	cfg PipelineConfig, steps int, seed int64) (*PipelineResult, error) {

	if len(m.Blocks)%cfg.Stages != 0 {
		panic("train: stages must divide layer count")
	}
	perStage := len(m.Blocks) / cfg.Stages
	rng := rand.New(rand.NewSource(seed))
	res := &PipelineResult{}
	var actBitsSum, gradBitsSum, actVals float64
	lossEMA := 0.0

	for step := 0; step < steps; step++ {
		m.ZeroGrads()
		var stepLoss float64
		for mb := 0; mb < cfg.AccumSteps; mb++ {
			tokens, targets := corpus.Batch(rng, cfg.MicroBatch, m.Cfg.SeqLen)
			x := m.EmbedForward(tokens)
			for i := range m.Blocks {
				x = m.BlockForward(i, x)
				if isBoundary(i, perStage, len(m.Blocks)) && cfg.CompressActivations != nil {
					cx, bits, err := cfg.CompressActivations(x)
					if err != nil {
						return nil, err
					}
					x = cx
					actBitsSum += bits * float64(len(x.V))
					actVals += float64(len(x.V))
				} else if isBoundary(i, perStage, len(m.Blocks)) {
					actBitsSum += 16 * float64(len(x.V))
					actVals += float64(len(x.V))
				}
			}
			logits := m.HeadForward(x)
			loss, dlogits := nn.LossAndGrad(logits, targets)
			stepLoss += loss / float64(cfg.AccumSteps)
			dx := m.HeadBackward(dlogits)
			for i := len(m.Blocks) - 1; i >= 0; i-- {
				if i+1 < len(m.Blocks) && isBoundary(i, perStage, len(m.Blocks)) {
					if cfg.CompressActGrads != nil {
						cdx, bits, err := cfg.CompressActGrads(dx)
						if err != nil {
							return nil, err
						}
						dx = cdx
						gradBitsSum += bits * float64(len(dx.V))
					} else {
						gradBitsSum += 16 * float64(len(dx.V))
					}
				}
				dx = m.BlockBackward(i, dx)
			}
			m.EmbedBackward(dx)
		}
		// Average the accumulated gradients.
		for _, p := range m.Params() {
			nn.ScaleInPlace(p.G, 1/float32(cfg.AccumSteps))
		}
		opt.Step(m.Params())

		lossEMA = emaUpdate(step, lossEMA, stepLoss)
		pt := CurvePoint{Step: step, Loss: lossEMA}
		if cfg.EvalEvery > 0 && (step+1)%cfg.EvalEvery == 0 {
			toks, tgts := corpus.ValidBatches(cfg.EvalBatches, 4, m.Cfg.SeqLen)
			pt.PPL = m.Perplexity(toks, tgts)
		}
		res.Curve = append(res.Curve, pt)
	}
	toks, tgts := corpus.ValidBatches(max(cfg.EvalBatches, 4), 4, m.Cfg.SeqLen)
	res.FinalPPL = m.Perplexity(toks, tgts)
	if actVals > 0 {
		res.ActBits = actBitsSum / actVals
		res.GradBits = gradBitsSum / actVals
		res.BoundaryVals = actVals
	}
	return res, nil
}

// isBoundary reports whether the output of block i crosses a stage boundary.
func isBoundary(i, perStage, total int) bool {
	return (i+1)%perStage == 0 && i+1 < total
}
