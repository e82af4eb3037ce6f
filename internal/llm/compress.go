package llm

import (
	"context"
	"fmt"
	"math"

	"repro/internal/baselines"
	"repro/internal/core"
	"repro/internal/dct"
	"repro/internal/nn"
	"repro/internal/quant"
)

// Compressor lossily round-trips one matrix — a weight, a K or V projection,
// a pipeline-boundary activation or its gradient — returning what a receiver
// reconstructs and the cost in bits per value. It may hold state across calls
// (Codec's rate controller, Residual's step count), so each call site owns
// its own. An error goes to the caller, or, where the seam has no error
// result, becomes a panic: handing back the uncompressed matrix instead would
// report FP16 quality under a compressed label.
type Compressor func(*nn.Mat) (*nn.Mat, float64, error)

// Codec compresses with the tensor codec near bitsPerValue, tracking the target
// across calls as a hardware encoder's rate control does across frames: the
// first call searches the QP (EncodeStackToBitrate), later calls encode at the
// held QP (EncodeStackRecon) and nudge it a step for the next call, or search
// again when the rate leaves [0.55, 1.2]× the target. No call decodes.
func Codec(opts core.Options, bitsPerValue float64) Compressor {
	qp, primed := 0, false
	return func(m *nn.Mat) (*nn.Mat, float64, error) {
		ctx, stack := context.Background(), []*core.Tensor{core.FromSlice(m.R, m.C, m.V)}
		if primed {
			enc, rec, err := opts.EncodeStackRecon(ctx, stack, qp)
			if err != nil {
				return nil, 0, err
			}
			if bpv := enc.BitsPerValue(); bpv <= bitsPerValue*1.2 && bpv >= bitsPerValue*0.55 {
				if bpv > bitsPerValue && qp < dct.MaxQP {
					qp++
				} else if bpv < bitsPerValue*0.85 && qp > 0 {
					qp--
				}
				return &nn.Mat{R: m.R, C: m.C, V: rec[0].Data}, bpv, nil
			}
		}
		enc, rec, err := opts.EncodeStackToBitrate(ctx, stack, bitsPerValue)
		if err != nil {
			return nil, 0, err
		}
		qp, primed = enc.QP, true
		return &nn.Mat{R: m.R, C: m.C, V: rec[0].Data}, enc.BitsPerValue(), nil
	}
}

// Residual is the paper's residual-compensation gradient compression (§5.1):
// a Codec at bitsPerValue, then a second Codec at bitsPerValue for the
// residual G − Comp(G) for switchStep calls and 8-bit RTN (charged 8.00 b/v)
// after, as gradient range variance grows by orders of magnitude in training.
// A call charges both passes' bits.
func Residual(opts core.Options, bitsPerValue float64, switchStep int) Compressor {
	primary, codecPass, step := Codec(opts, bitsPerValue), Codec(opts, bitsPerValue), 0
	rtnPass := func(m *nn.Mat) (*nn.Mat, float64, error) {
		return &nn.Mat{R: m.R, C: m.C, V: quant.RTNAsymmetric(m.V, 8)}, 8, nil
	}
	return func(m *nn.Mat) (*nn.Mat, float64, error) {
		out, pBits, err := primary(m)
		if err != nil {
			return nil, 0, err
		}
		resid := &nn.Mat{R: m.R, C: m.C, V: make([]float32, len(m.V))}
		for i, v := range m.V {
			resid.V[i] = v - out.V[i]
		}
		pass := codecPass
		if step >= switchStep {
			pass = rtnPass
		}
		r, rBits, err := pass(resid)
		if err != nil {
			return nil, 0, err
		}
		for i, v := range r.V {
			out.V[i] += v
		}
		step++
		return out, pBits + rBits, nil
	}
}

// RTN quantizes with asymmetric round-to-nearest over groups of group
// consecutive values — the whole matrix when group ≤ 0, one row when group
// is the column count — charging one FP16 scale and zero point per group.
func RTN(bits, group int) Compressor {
	return func(m *nn.Mat) (*nn.Mat, float64, error) {
		rec, bpv := quant.RTNGroupwise(m.V, bits, group)
		return &nn.Mat{R: m.R, C: m.C, V: rec}, bpv, nil
	}
}

// Rotated is per-row RTN in the basis rot (QuaRot/SpinQuant,
// baselines.RotatedRTN).
func Rotated(rot *nn.Mat, bits int) Compressor {
	return func(m *nn.Mat) (*nn.Mat, float64, error) {
		rec, bpv := baselines.RotatedRTN(m, rot, bits)
		return rec, bpv, nil
	}
}

// KVHook round-trips every layer's key projection through k and its value
// projection through v — the KV-cache compression of §4.2. The hook has no
// error result, so a compressor error panics.
func KVHook(k, v Compressor) nn.KVHook {
	return func(_ int, km, vm *nn.Mat) (*nn.Mat, *nn.Mat) {
		return mustRoundtrip(k, km), mustRoundtrip(v, vm)
	}
}

func mustRoundtrip(c Compressor, m *nn.Mat) *nn.Mat {
	rec, _, err := c(m)
	if err != nil {
		panic(err)
	}
	return rec
}

// BoundaryPerplexity is m's perplexity on the batches toks (targets tgts)
// run as a pipeline of stages, with the activations crossing each stage
// boundary round-tripped through c — §4.2's inference-time communication
// compression. A nil c leaves the boundaries uncompressed.
func BoundaryPerplexity(m *nn.Transformer, toks [][][]int, tgts [][]int, stages int, c Compressor) (float64, error) {
	perStage := len(m.Blocks) / stages
	var nll float64
	var count int
	for i := range toks {
		x := m.EmbedForward(toks[i])
		for b := range m.Blocks {
			x = m.BlockForward(b, x)
			if (b+1)%perStage == 0 && b+1 < len(m.Blocks) && c != nil {
				var err error
				if x, _, err = c(x); err != nil {
					return 0, fmt.Errorf("llm: boundary after block %d: %w", b, err)
				}
			}
		}
		loss, _ := nn.LossAndGrad(m.HeadForward(x), tgts[i])
		n := 0
		for _, t := range tgts[i] {
			if t >= 0 {
				n++
			}
		}
		nll += loss * float64(n)
		count += n
	}
	return math.Exp(nll / float64(count)), nil
}
