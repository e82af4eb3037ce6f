// Package baselines implements the compression methods the paper compares
// LLM.265 against: the calibration-based post-training quantizers GPTQ and
// AWQ, and rotation-based quantization (QuaRot/SpinQuant). (The 1-bit Adam /
// 1-bit LAMB gradient compressor is a wire codec: allreduce.SignCodec with the
// ring's error feedback.)
package baselines

import (
	"errors"
	"math"

	"repro/internal/nn"
)

// GPTQ quantizes w ([in, out], y = x·W convention) to the given bit width
// using second-order error compensation (Frantar et al.): input dimensions
// are quantized in order and the as-yet-unquantized dimensions absorb the
// projected error through the inverse-Hessian Cholesky factor.
//
// x is the calibration input matrix [n, in]; groupSize > 0 switches to
// group-wise scales along the input dimension (the "-128G" variants) and is
// reflected in the returned bits-per-value.
func GPTQ(w, x *nn.Mat, bits, groupSize int) (*nn.Mat, float64, error) {
	in, out := w.R, w.C
	if x.C != in {
		return nil, 0, errors.New("baselines: calibration width mismatch")
	}
	// H = XᵀX / n + λI, λ = 1% of mean diagonal (the GPTQ damping trick).
	h := make([]float64, in*in)
	for n := 0; n < x.R; n++ {
		row := x.Row(n)
		for i := 0; i < in; i++ {
			xi := float64(row[i])
			if xi == 0 {
				continue
			}
			for j := i; j < in; j++ {
				h[i*in+j] += xi * float64(row[j])
			}
		}
	}
	var diagMean float64
	for i := 0; i < in; i++ {
		diagMean += h[i*in+i]
	}
	diagMean /= float64(in)
	if diagMean == 0 {
		diagMean = 1
	}
	lambda := 0.01 * diagMean
	for i := 0; i < in; i++ {
		h[i*in+i] += lambda
		for j := i + 1; j < in; j++ {
			h[j*in+i] = h[i*in+j]
		}
	}

	hinv, err := invertSPD(h, in)
	if err != nil {
		return nil, 0, err
	}
	// Upper Cholesky of H⁻¹: H⁻¹ = UᵀU.
	u, err := choleskyUpper(hinv, in)
	if err != nil {
		return nil, 0, err
	}

	work := w.Clone()
	rec := nn.NewMat(in, out)

	gs := groupSize
	if gs <= 0 {
		gs = in
	}
	groups := 0
	var scale, zero []float64
	for i := 0; i < in; i++ {
		if i%gs == 0 {
			// (Re)fit asymmetric grids per column over this group's rows of
			// the *current* (error-compensated) weights.
			scale, zero = fitGrids(work, i, min(i+gs, in), bits)
			groups++
		}
		d := u[i*in+i]
		for j := 0; j < out; j++ {
			q := quantScalar(float64(work.At(i, j)), scale[j], zero[j], bits)
			rec.Set(i, j, float32(q))
			if d != 0 {
				errv := (float64(work.At(i, j)) - q) / d
				// Propagate to unquantized dims.
				for k := i + 1; k < in; k++ {
					work.Set(k, j, work.At(k, j)-float32(errv*u[i*in+k]))
				}
			}
		}
	}
	meta := float64(groups*out) * 32 // FP16 scale+zero per column per group
	bpv := float64(bits) + meta/float64(in*out)
	return rec, bpv, nil
}

// fitGrids computes per-column asymmetric min/max grids over rows [r0, r1).
func fitGrids(w *nn.Mat, r0, r1, bits int) (scale, zero []float64) {
	out := w.C
	scale = make([]float64, out)
	zero = make([]float64, out)
	levels := float64(int64(1)<<bits) - 1
	for j := 0; j < out; j++ {
		lo, hi := math.Inf(1), math.Inf(-1)
		for i := r0; i < r1; i++ {
			v := float64(w.At(i, j))
			if v < lo {
				lo = v
			}
			if v > hi {
				hi = v
			}
		}
		if hi == lo {
			scale[j], zero[j] = 1, lo
			continue
		}
		scale[j] = (hi - lo) / levels
		zero[j] = lo
	}
	return scale, zero
}

func quantScalar(v, scale, zero float64, bits int) float64 {
	levels := float64(int64(1)<<bits) - 1
	q := math.Round((v - zero) / scale)
	if q < 0 {
		q = 0
	}
	if q > levels {
		q = levels
	}
	return zero + q*scale
}

// invertSPD inverts a symmetric positive-definite matrix via Cholesky.
func invertSPD(a []float64, n int) ([]float64, error) {
	l, err := choleskyLower(a, n)
	if err != nil {
		return nil, err
	}
	// Invert L by forward substitution, then A⁻¹ = L⁻ᵀ L⁻¹.
	linv := make([]float64, n*n)
	for j := 0; j < n; j++ {
		linv[j*n+j] = 1 / l[j*n+j]
		for i := j + 1; i < n; i++ {
			var s float64
			for k := j; k < i; k++ {
				s += l[i*n+k] * linv[k*n+j]
			}
			linv[i*n+j] = -s / l[i*n+i]
		}
	}
	inv := make([]float64, n*n)
	for i := 0; i < n; i++ {
		for j := 0; j <= i; j++ {
			var s float64
			for k := i; k < n; k++ {
				s += linv[k*n+i] * linv[k*n+j]
			}
			inv[i*n+j] = s
			inv[j*n+i] = s
		}
	}
	return inv, nil
}

// choleskyLower returns L with A = LLᵀ.
func choleskyLower(a []float64, n int) ([]float64, error) {
	l := make([]float64, n*n)
	for i := 0; i < n; i++ {
		for j := 0; j <= i; j++ {
			s := a[i*n+j]
			for k := 0; k < j; k++ {
				s -= l[i*n+k] * l[j*n+k]
			}
			if i == j {
				if s <= 0 {
					return nil, errors.New("baselines: matrix not positive definite")
				}
				l[i*n+i] = math.Sqrt(s)
			} else {
				l[i*n+j] = s / l[j*n+j]
			}
		}
	}
	return l, nil
}

// choleskyUpper returns U = Lᵀ with A = UᵀU (the factor GPTQ indexes by
// rows: U[i, i:] drives the error propagation for dimension i).
func choleskyUpper(a []float64, n int) ([]float64, error) {
	l, err := choleskyLower(a, n)
	if err != nil {
		return nil, err
	}
	u := make([]float64, n*n)
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			u[i*n+j] = l[j*n+i]
		}
	}
	return u, nil
}
