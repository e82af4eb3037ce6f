package baselines

import (
	"math"
	"math/rand"
	"testing"

	"repro/internal/nn"
	"repro/internal/quant"
	"repro/internal/tensorgen"
)

// calib builds a weight matrix and correlated calibration activations.
func calib(seed int64, n, in, out int) (*nn.Mat, *nn.Mat) {
	rng := rand.New(rand.NewSource(seed))
	w := nn.NewMat(in, out)
	copy(w.V, tensorgen.Weights(rng, in, out))
	x := nn.NewMat(n, in)
	copy(x.V, tensorgen.Activations(rng, n, in))
	return w, x
}

func TestGPTQBeatsRTNOnFunctionalError(t *testing.T) {
	// GPTQ's whole point: lower ‖XW − XŴ‖ than naive RTN at equal bits.
	w, x := calib(1, 256, 32, 48)
	for _, bits := range []int{3, 4} {
		rec, bpv, err := GPTQ(w, x, bits, 0)
		if err != nil {
			t.Fatal(err)
		}
		if bpv < float64(bits) {
			t.Fatalf("bits accounting too low: %.2f < %d", bpv, bits)
		}
		rtn, _ := rtnColumns(w, bits, 0)
		eG := outputError(x, w, rec)
		eR := outputError(x, w, rtn)
		if eG >= eR {
			t.Fatalf("bits=%d: GPTQ err %.4f not below RTN err %.4f", bits, eG, eR)
		}
	}
}

func TestGPTQGroupwise(t *testing.T) {
	w, x := calib(2, 256, 64, 32)
	rec, bpv, err := GPTQ(w, x, 3, 16)
	if err != nil {
		t.Fatal(err)
	}
	wantMeta := 32.0 * float64(64/16*32) / float64(64*32) // scales per group per col
	if math.Abs(bpv-(3+wantMeta)) > 1e-9 {
		t.Fatalf("groupwise bpv %.3f, want %.3f", bpv, 3+wantMeta)
	}
	if outputError(x, w, rec) >= outputError(x, w, mustRTN(w, 3, 64)) {
		t.Fatal("groupwise GPTQ lost to per-tensor RTN")
	}
}

func mustRTN(w *nn.Mat, bits, group int) *nn.Mat {
	rec, _ := rtnColumns(w, bits, group)
	return rec
}

func TestGPTQShapeMismatch(t *testing.T) {
	w := nn.NewMat(8, 8)
	x := nn.NewMat(10, 9)
	if _, _, err := GPTQ(w, x, 4, 0); err == nil {
		t.Fatal("mismatched calibration accepted")
	}
}

func TestAWQProtectsSalientChannels(t *testing.T) {
	// Make channel 3 carry huge activations; AWQ must beat plain RTN on
	// functional error.
	rng := rand.New(rand.NewSource(3))
	in, out, n := 32, 48, 256
	w := nn.NewMat(in, out)
	copy(w.V, tensorgen.Weights(rng, in, out))
	x := nn.NewMat(n, in)
	for i := 0; i < n; i++ {
		for c := 0; c < in; c++ {
			v := rng.NormFloat64()
			if c == 3 {
				v *= 60
			}
			x.Set(i, c, float32(v))
		}
	}
	rec, bpv, err := AWQ(w, x, 3, 0)
	if err != nil {
		t.Fatal(err)
	}
	if bpv < 3 {
		t.Fatalf("bpv %.2f", bpv)
	}
	rtn, _ := rtnColumns(w, 3, 0)
	if outputError(x, w, rec) >= outputError(x, w, rtn) {
		t.Fatalf("AWQ err %.4f not below RTN err %.4f",
			outputError(x, w, rec), outputError(x, w, rtn))
	}
}

func TestRandomRotationIsOrthonormal(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	q := RandomRotation(rng, 16)
	// QQᵀ = I.
	qqt := nn.MatMulABT(q, q)
	for i := 0; i < 16; i++ {
		for j := 0; j < 16; j++ {
			want := 0.0
			if i == j {
				want = 1
			}
			if math.Abs(float64(qqt.At(i, j))-want) > 1e-4 {
				t.Fatalf("QQᵀ[%d][%d] = %f", i, j, qqt.At(i, j))
			}
		}
	}
}

func TestRotatedRTNHandlesOutliers(t *testing.T) {
	// The QuaRot claim: rotation spreads activation outliers, so RTN in the
	// rotated basis beats RTN in the raw basis at low bits.
	rng := rand.New(rand.NewSource(5))
	rows, d := 128, 32
	a := nn.NewMat(rows, d)
	copy(a.V, tensorgen.Activations(rng, rows, d))
	rot := RandomRotation(rng, d)
	recRot, _ := RotatedRTN(a, rot, 4)
	recRaw := nn.NewMat(rows, d)
	for i := 0; i < rows; i++ {
		copy(recRaw.Row(i), quant.RTNAsymmetric(a.Row(i), 4))
	}
	mseRot := matMSE(a, recRot)
	mseRaw := matMSE(a, recRaw)
	if mseRot >= mseRaw {
		t.Fatalf("rotated RTN MSE %.6g not below raw RTN %.6g", mseRot, mseRaw)
	}
}

func matMSE(a, b *nn.Mat) float64 {
	var s float64
	for i := range a.V {
		d := float64(a.V[i]) - float64(b.V[i])
		s += d * d
	}
	return s / float64(len(a.V))
}

func TestCholeskyInverse(t *testing.T) {
	// Verify invertSPD on a known SPD matrix.
	n := 4
	a := []float64{
		4, 1, 0, 0,
		1, 3, 1, 0,
		0, 1, 2, 1,
		0, 0, 1, 2,
	}
	inv, err := invertSPD(a, n)
	if err != nil {
		t.Fatal(err)
	}
	// A·A⁻¹ = I.
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			var s float64
			for k := 0; k < n; k++ {
				s += a[i*n+k] * inv[k*n+j]
			}
			want := 0.0
			if i == j {
				want = 1
			}
			if math.Abs(s-want) > 1e-9 {
				t.Fatalf("(A·A⁻¹)[%d][%d] = %f", i, j, s)
			}
		}
	}
}

func TestCholeskyUpperFactorization(t *testing.T) {
	n := 3
	a := []float64{4, 2, 0, 2, 5, 1, 0, 1, 3}
	u, err := choleskyUpper(a, n)
	if err != nil {
		t.Fatal(err)
	}
	// UᵀU = A.
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			var s float64
			for k := 0; k < n; k++ {
				s += u[k*n+i] * u[k*n+j]
			}
			if math.Abs(s-a[i*n+j]) > 1e-9 {
				t.Fatalf("UᵀU[%d][%d] = %f, want %f", i, j, s, a[i*n+j])
			}
		}
	}
}

func TestRejectNonSPD(t *testing.T) {
	a := []float64{1, 2, 2, 1} // indefinite
	if _, err := choleskyLower(a, 2); err == nil {
		t.Fatal("indefinite matrix accepted")
	}
}
