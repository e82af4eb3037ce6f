package core

import (
	"context"

	"repro/internal/dct"
	"repro/internal/quant"
)

// RateController amortizes QP search across repeated encodes of
// similarly-distributed tensors (e.g. the per-step gradients of a training
// run): the first call bisects, later calls nudge the QP by one step when
// the achieved rate drifts from the target. This mirrors how a hardware
// encoder's rate control tracks a bitrate target across frames.
type RateController struct {
	Opts   Options
	Target float64 // bits per value

	qp     int
	primed bool
}

// NewRateController returns a controller targeting bitsPerValue.
func NewRateController(opts Options, bitsPerValue float64) *RateController {
	return &RateController{Opts: opts, Target: bitsPerValue}
}

// encode compresses t near the bitrate target, keeping the encoder's
// reconstruction planes for Roundtrip.
func (rc *RateController) encode(t *Tensor) (encoding, error) {
	ctx, stack := context.Background(), []*Tensor{t}
	if rc.primed {
		p, err := rc.Opts.encodeStack(ctx, stack, rc.qp)
		if err != nil {
			return encoding{}, err
		}
		// Small drift: nudge one QP step for the next call.
		if bpv := p.BitsPerValue(); bpv <= rc.Target*1.2 && bpv >= rc.Target*0.55 {
			if bpv > rc.Target && rc.qp < dct.MaxQP {
				rc.qp++
			} else if bpv < rc.Target*0.85 && rc.qp > 0 {
				rc.qp--
			}
			return p, nil
		}
		// Large drift (the input distribution shifted): fall back to a full
		// bisection for this tensor and adopt its QP.
	}
	p, err := rc.Opts.stackToBitrate(ctx, stack, rc.Target)
	if err != nil {
		return encoding{}, err
	}
	rc.qp, rc.primed = p.QP, true
	return p, nil
}

// Roundtrip compresses t and returns what a receiver reconstructs — the
// encoder's own reconstruction, no decode — with the achieved bits per value.
func (rc *RateController) Roundtrip(t *Tensor) (*Tensor, float64, error) {
	p, err := rc.encode(t)
	if err != nil {
		return nil, 0, err
	}
	return p.recon()[0], p.BitsPerValue(), nil
}

// GradientCompressor implements the paper's residual-compensation gradient
// compression (§5.1): the gradient is compressed to PrimaryBits, then the
// residual G − Comp(G) is compressed too — with LLM.265 at ResidualBits for
// the first SwitchStep steps, and with 8-bit RTN afterwards (needed because
// gradient range variance grows by orders of magnitude as training
// progresses).
type GradientCompressor struct {
	Opts         Options
	PrimaryBits  float64 // e.g. 3.5
	ResidualBits float64 // e.g. 3.5
	SwitchStep   int     // e.g. 2500
	RTNBits      int     // e.g. 8

	step      int
	primaryRC *RateController
	residRC   *RateController
}

// NewGradientCompressor returns a compressor with the paper's settings.
func NewGradientCompressor(opts Options, primaryBits, residualBits float64, switchStep, rtnBits int) *GradientCompressor {
	return &GradientCompressor{
		Opts:         opts,
		PrimaryBits:  primaryBits,
		ResidualBits: residualBits,
		SwitchStep:   switchStep,
		RTNBits:      rtnBits,
		primaryRC:    NewRateController(opts, primaryBits),
		residRC:      NewRateController(opts, residualBits),
	}
}

// Compress compresses grad with residual compensation, returning what the
// receiving worker reconstructs plus this step's bits per value.
func (g *GradientCompressor) Compress(grad *Tensor) (*Tensor, float64, error) {
	primary, pBits, err := g.primaryRC.Roundtrip(grad)
	if err != nil {
		return nil, 0, err
	}
	resid := grad.Clone()
	for i := range resid.Data {
		resid.Data[i] -= primary.Data[i]
	}
	var rRec []float32
	var rBits float64
	if g.step < g.SwitchStep {
		rec, bits, err := g.residRC.Roundtrip(resid)
		if err != nil {
			return nil, 0, err
		}
		rRec, rBits = rec.Data, bits
	} else {
		rRec = quant.RTNAsymmetric(resid.Data, g.RTNBits)
		rBits = float64(g.RTNBits)
	}
	out := NewTensor(grad.Rows, grad.Cols)
	for i := range out.Data {
		out.Data[i] = primary.Data[i] + rRec[i]
	}
	g.step++
	return out, pBits + rBits, nil
}
