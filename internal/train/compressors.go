package train

import (
	"repro/internal/core"
	"repro/internal/llm"
	"repro/internal/nn"
	"repro/internal/quant"
)

// LLM265Transform compresses boundary tensors with the tensor codec at a
// fractional bitrate (the LLM.265(A) configuration of Fig. 9).
func LLM265Transform(opts core.Options, bitsPerValue float64) TensorTransform {
	rc := core.NewRateController(opts, bitsPerValue)
	return func(m *nn.Mat) (*nn.Mat, float64, error) {
		d, bits, err := rc.Roundtrip(llm.MatToTensor(m))
		if err != nil {
			return nil, 0, err
		}
		return llm.TensorToMat(d), bits, nil
	}
}

// LLM265ResidualTransform compresses with the paper's residual-compensation
// scheme (LLM.265(A+G)): primary at primaryBits, residual at residualBits
// until switchStep, 8-bit RTN afterwards.
func LLM265ResidualTransform(opts core.Options, primaryBits, residualBits float64, switchStep int) TensorTransform {
	gc := core.NewGradientCompressor(opts, primaryBits, residualBits, switchStep, 8)
	return func(m *nn.Mat) (*nn.Mat, float64, error) {
		d, bits, err := gc.Compress(llm.MatToTensor(m))
		if err != nil {
			return nil, 0, err
		}
		return llm.TensorToMat(d), bits, nil
	}
}

// RTNTransform quantizes boundary tensors with group-wise RTN (the "GQ"
// configuration that Fig. 9 shows diverging).
func RTNTransform(bits, groupSize int) TensorTransform {
	return func(m *nn.Mat) (*nn.Mat, float64, error) {
		rec, bpv := quant.RTNGroupwise(m.V, bits, groupSize)
		out := nn.NewMat(m.R, m.C)
		copy(out.V, rec)
		return out, bpv, nil
	}
}
