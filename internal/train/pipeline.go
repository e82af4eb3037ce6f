// Package train simulates the two distributed-training regimes of §5:
// pipeline parallelism (activations and activation gradients cross stage
// boundaries) and data parallelism (weight gradients cross replicas), with
// pluggable compression at every communication seam. Because this is a
// single-process simulation, "communication" is a function call — what we
// measure is exactly what the paper measures: the loss trajectory and final
// validation perplexity under lossy communication, and the bits that crossed
// the wire. Each config holds only what a figure varies; the microbatch size
// and the validation batches are constants.
package train

import (
	"errors"
	"math/rand"

	"repro/internal/data"
	"repro/internal/llm"
	"repro/internal/nn"
)

// microBatch is the sequences per pipeline microbatch; evalBatches the
// validation batches both trainers' final perplexity reads.
const (
	microBatch  = 4
	evalBatches = 4
)

// PipelineConfig configures pipeline-parallel training.
type PipelineConfig struct {
	Stages int // ≥ 1, must divide the model's layer count

	// CompressActivations is applied to boundary activations on the forward
	// pass; CompressActGrads to boundary gradients on the backward pass. A nil
	// compressor is the uncompressed FP16 link (16 bits per value).
	CompressActivations llm.Compressor
	CompressActGrads    llm.Compressor

	AccumSteps int // gradient accumulation (microbatches per step), ≥ 1
}

// CurvePoint is one sampled point of a training trajectory.
type CurvePoint struct {
	Step int
	Loss float64 // running training loss at this step
}

// PipelineResult summarizes a pipeline-parallel run.
type PipelineResult struct {
	Curve    []CurvePoint
	FinalPPL float64
	ActBits  float64 // average bits/value for boundary activations
	GradBits float64 // average bits/value for boundary act-gradients
}

// RunPipeline trains the model for steps optimizer steps under the given
// stage partitioning and compression, reporting the trajectory. The
// simulation runs microbatches sequentially (forward+backward per
// microbatch, gradient accumulation across them), which is numerically
// identical to GPipe-style scheduling.
func RunPipeline(m *nn.Transformer, corpus *data.Corpus, opt nn.Optimizer,
	cfg PipelineConfig, steps int, seed int64) (*PipelineResult, error) {

	if cfg.Stages < 1 || len(m.Blocks)%cfg.Stages != 0 {
		return nil, errors.New("train: Stages must be at least 1 and divide the block count")
	}
	if cfg.AccumSteps < 1 {
		return nil, errors.New("train: AccumSteps must be at least 1")
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
			tokens, targets := corpus.Batch(rng, microBatch, m.Cfg.SeqLen)
			x := m.EmbedForward(tokens)
			for i := range m.Blocks {
				x = m.BlockForward(i, x)
				if isBoundary(i, perStage, len(m.Blocks)) {
					bits := 16.0 // the uncompressed FP16 link
					if cfg.CompressActivations != nil {
						var err error
						if x, bits, err = cfg.CompressActivations(x); err != nil {
							return nil, err
						}
					}
					actBitsSum += bits * float64(len(x.V))
					actVals += float64(len(x.V))
				}
			}
			logits := m.HeadForward(x)
			loss, dlogits := nn.LossAndGrad(logits, targets)
			stepLoss += loss / float64(cfg.AccumSteps)
			dx := m.HeadBackward(dlogits)
			for i := len(m.Blocks) - 1; i >= 0; i-- {
				if isBoundary(i, perStage, len(m.Blocks)) {
					bits := 16.0
					if cfg.CompressActGrads != nil {
						var err error
						if dx, bits, err = cfg.CompressActGrads(dx); err != nil {
							return nil, err
						}
					}
					gradBitsSum += bits * float64(len(dx.V))
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
		res.Curve = append(res.Curve, CurvePoint{Step: step, Loss: lossEMA})
	}
	res.FinalPPL = llm.Perplexity(m, corpus, evalBatches)
	if actVals > 0 {
		res.ActBits = actBitsSum / actVals
		res.GradBits = gradBitsSum / actVals
	}
	return res, nil
}

// isBoundary reports whether the output of block i crosses a stage boundary.
func isBoundary(i, perStage, total int) bool {
	return (i+1)%perStage == 0 && i+1 < total
}
