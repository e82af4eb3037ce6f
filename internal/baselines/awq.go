package baselines

import (
	"errors"
	"math"
	"math/rand"

	"repro/internal/nn"
	"repro/internal/quant"
)

// AWQ implements activation-aware weight quantization (Lin et al.): salient
// input channels — those with large average activation magnitude — are
// protected by scaling them up before RTN quantization and down after. The
// scale exponent α is grid-searched to minimize the output reconstruction
// error ‖X·W − X·Ŵ‖² on the calibration set.
//
// w is [in, out] (y = x·W), x is [n, in]. groupSize ≤ 0 quantizes per
// column; otherwise group-wise along the input dimension.
func AWQ(w, x *nn.Mat, bits, groupSize int) (*nn.Mat, float64, error) {
	in, out := w.R, w.C
	if x.C != in {
		return nil, 0, errors.New("baselines: calibration width mismatch")
	}
	// Average activation magnitude per input channel.
	actMag := make([]float64, in)
	for n := 0; n < x.R; n++ {
		row := x.Row(n)
		for i := 0; i < in; i++ {
			actMag[i] += math.Abs(float64(row[i]))
		}
	}
	for i := range actMag {
		actMag[i] = actMag[i]/float64(x.R) + 1e-8
	}

	quantizeScaled := func(alpha float64) (*nn.Mat, float64) {
		s := make([]float64, in)
		for i := range s {
			s[i] = math.Pow(actMag[i], alpha)
			if s[i] < 1e-6 {
				s[i] = 1e-6
			}
		}
		scaled := nn.NewMat(in, out)
		for i := 0; i < in; i++ {
			for j := 0; j < out; j++ {
				scaled.Set(i, j, float32(float64(w.At(i, j))*s[i]))
			}
		}
		rec, bpv := rtnColumns(scaled, bits, groupSize)
		for i := 0; i < in; i++ {
			inv := 1 / s[i]
			for j := 0; j < out; j++ {
				rec.Set(i, j, float32(float64(rec.At(i, j))*inv))
			}
		}
		return rec, bpv
	}

	var (
		best    *nn.Mat
		bestErr = math.Inf(1)
		bestBpv float64
	)
	for _, alpha := range []float64{0, 0.25, 0.5, 0.75, 1.0} {
		rec, bpv := quantizeScaled(alpha)
		e := outputError(x, w, rec)
		if e < bestErr {
			best, bestErr, bestBpv = rec, e, bpv
		}
	}
	return best, bestBpv, nil
}

// rtnColumns RTN-quantizes each column (or input-dim group per column) of w
// asymmetrically, returning the reconstruction and bits per value including
// scale metadata.
func rtnColumns(w *nn.Mat, bits, groupSize int) (*nn.Mat, float64) {
	in, out := w.R, w.C
	gs := groupSize
	if gs <= 0 {
		gs = in
	}
	rec := nn.NewMat(in, out)
	groups := 0
	for g0 := 0; g0 < in; g0 += gs {
		g1 := min(g0+gs, in)
		scale, zero := fitGrids(w, g0, g1, bits)
		groups++
		for i := g0; i < g1; i++ {
			for j := 0; j < out; j++ {
				rec.Set(i, j, float32(quantScalar(float64(w.At(i, j)), scale[j], zero[j], bits)))
			}
		}
	}
	meta := float64(groups*out) * 32
	return rec, float64(bits) + meta/float64(in*out)
}

// outputError computes ‖X·A − X·B‖² — the functional error AWQ minimizes.
func outputError(x, a, b *nn.Mat) float64 {
	diff := nn.NewMat(a.R, a.C)
	for i := range diff.V {
		diff.V[i] = a.V[i] - b.V[i]
	}
	y := nn.MatMul(x, diff)
	var s float64
	for _, v := range y.V {
		s += float64(v) * float64(v)
	}
	return s
}

// RandomRotation returns a random orthonormal d×d matrix (Gram-Schmidt on a
// Gaussian draw) — the incoherence-processing rotation of QuaRot/SpinQuant.
func RandomRotation(rng *rand.Rand, d int) *nn.Mat {
	q := nn.RandMat(rng, d, d, 1)
	// Modified Gram-Schmidt over rows.
	for i := 0; i < d; i++ {
		ri := q.Row(i)
		for j := 0; j < i; j++ {
			rj := q.Row(j)
			var dot float64
			for k := range ri {
				dot += float64(ri[k]) * float64(rj[k])
			}
			for k := range ri {
				ri[k] -= float32(dot) * rj[k]
			}
		}
		var norm float64
		for _, v := range ri {
			norm += float64(v) * float64(v)
		}
		norm = math.Sqrt(norm)
		if norm < 1e-9 {
			ri[i%d] = 1
			norm = 1
		}
		for k := range ri {
			ri[k] = float32(float64(ri[k]) / norm)
		}
	}
	return q
}

// RotatedRTN quantizes data ([n, d] rows) in a rotated basis: y = x·Q is
// RTN-quantized per row, then rotated back — the QuaRot/SpinQuant recipe
// that spreads outliers across dimensions before quantization. Returns the
// reconstruction and bits per value (one FP16 scale+zero per row).
func RotatedRTN(data *nn.Mat, rot *nn.Mat, bits int) (*nn.Mat, float64) {
	if rot.R != data.C || rot.C != data.C {
		panic("baselines: rotation shape mismatch")
	}
	y := nn.MatMul(data, rot)
	for i := 0; i < y.R; i++ {
		row := y.Row(i)
		q := quant.RTNAsymmetric(row, bits)
		copy(row, q)
	}
	back := nn.MatMulABT(y, rot) // y·Qᵀ = y·Q⁻¹
	meta := float64(data.R) * 32
	return back, float64(bits) + meta/float64(data.R*data.C)
}
