package dct

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func randBlock(rng *rand.Rand, n int, amp int32) []int32 {
	b := make([]int32, n*n)
	for i := range b {
		b[i] = rng.Int31n(2*amp+1) - amp
	}
	return b
}

func TestForwardInverseLossless(t *testing.T) {
	// Without quantization the integer transform must reconstruct residuals
	// within a tiny fixed-point error.
	rng := rand.New(rand.NewSource(1))
	for _, n := range []int{4, 8, 16, 32} {
		tr := NewDCT(n)
		for trial := 0; trial < 20; trial++ {
			res := randBlock(rng, n, 255)
			coef := make([]int32, n*n)
			rec := make([]int32, n*n)
			tr.Forward(coef, res)
			tr.Inverse(rec, coef)
			for i := range res {
				if d := rec[i] - res[i]; d < -2 || d > 2 {
					t.Fatalf("n=%d trial=%d idx=%d: rec %d want %d", n, trial, i, rec[i], res[i])
				}
			}
		}
	}
}

func TestDST4RoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	tr := NewDST4()
	for trial := 0; trial < 50; trial++ {
		res := randBlock(rng, 4, 255)
		coef := make([]int32, 16)
		rec := make([]int32, 16)
		tr.Forward(coef, res)
		tr.Inverse(rec, coef)
		for i := range res {
			if d := rec[i] - res[i]; d < -2 || d > 2 {
				t.Fatalf("idx=%d: rec %d want %d", i, rec[i], res[i])
			}
		}
	}
}

func TestDCBlockConcentratesEnergy(t *testing.T) {
	// A constant block must transform to a single DC coefficient.
	for _, n := range []int{4, 8, 16, 32} {
		tr := NewDCT(n)
		res := make([]int32, n*n)
		for i := range res {
			res[i] = 100
		}
		coef := make([]int32, n*n)
		tr.Forward(coef, res)
		// DC of orthonormal DCT of constant c is c·n; coefBits scale is 64.
		wantDC := int32(100 * n * 64)
		if d := coef[0] - wantDC; d < -n64() || d > n64() {
			t.Errorf("n=%d: DC=%d want ~%d", n, coef[0], wantDC)
		}
		for i := 1; i < n*n; i++ {
			if coef[i] < -64 || coef[i] > 64 {
				t.Errorf("n=%d: AC[%d]=%d, want ~0", n, i, coef[i])
			}
		}
	}
}

func n64() int32 { return 512 }

func TestQuantizeDequantizeError(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	n := 8
	tr := NewDCT(n)
	for _, qp := range []int{4, 16, 28, 40} {
		step := Qstep(qp)
		res := randBlock(rng, n, 200)
		coef := make([]int32, n*n)
		tr.Forward(coef, res)
		lev := make([]int32, n*n)
		Quantize(lev, coef, qp)
		deq := make([]int32, n*n)
		Dequantize(deq, lev, qp)
		for i := range coef {
			err := math.Abs(float64(deq[i]-coef[i])) / 64 // orthonormal domain
			// Dead-zone quantizer error is bounded by ~(2/3)·step plus
			// rounding slack.
			if err > step*0.70+0.55 {
				t.Fatalf("qp=%d idx=%d: err %.3f > bound (step %.3f)", qp, i, err, step)
			}
		}
	}
}

func TestQstepDoublesEverySixQP(t *testing.T) {
	for qp := 0; qp+6 <= MaxQP; qp++ {
		r := Qstep(qp+6) / Qstep(qp)
		if math.Abs(r-2) > 1e-9 {
			t.Fatalf("Qstep(%d+6)/Qstep(%d) = %f, want 2", qp, qp, r)
		}
	}
	if math.Abs(Qstep(4)-1) > 1e-12 {
		t.Fatalf("Qstep(4)=%f, want 1", Qstep(4))
	}
	if Qstep(-5) != Qstep(0) || Qstep(99) != Qstep(MaxQP) {
		t.Fatal("Qstep clamping broken")
	}
}

func TestHigherQPLargerError(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	n := 16
	tr := NewDCT(n)
	res := randBlock(rng, n, 255)
	mse := func(qp int) float64 {
		coef := make([]int32, n*n)
		tr.Forward(coef, res)
		Quantize(coef, coef, qp)
		Dequantize(coef, coef, qp)
		rec := make([]int32, n*n)
		tr.Inverse(rec, coef)
		var s float64
		for i := range res {
			d := float64(rec[i] - res[i])
			s += d * d
		}
		return s / float64(n*n)
	}
	if !(mse(10) < mse(25) && mse(25) < mse(40)) {
		t.Fatalf("MSE not monotone in QP: %f %f %f", mse(10), mse(25), mse(40))
	}
}

func TestRoundTripQuantizedProperty(t *testing.T) {
	// Property: for any residual block and QP, reconstruction error per
	// sample is bounded by a constant times Qstep.
	f := func(seed int64, qp8 uint8) bool {
		qp := int(qp8) % 40
		rng := rand.New(rand.NewSource(seed))
		n := []int{4, 8, 16}[rng.Intn(3)]
		tr := NewDCT(n)
		res := randBlock(rng, n, 255)
		coef := make([]int32, n*n)
		tr.Forward(coef, res)
		Quantize(coef, coef, qp)
		Dequantize(coef, coef, qp)
		rec := make([]int32, n*n)
		tr.Inverse(rec, coef)
		// Error energy bound: each of n² coefficients errs by < step, so
		// per-sample |err| ≤ n·step is extremely loose; check RMS ≤ step.
		var s float64
		for i := range res {
			d := float64(rec[i] - res[i])
			s += d * d
		}
		rms := math.Sqrt(s / float64(n*n))
		return rms <= Qstep(qp)*0.75+1.0
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 80}); err != nil {
		t.Fatal(err)
	}
}

func TestForwardFloatOrthonormal(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	n := 8
	src := make([]float64, n*n)
	var energy float64
	for i := range src {
		src[i] = rng.NormFloat64()
		energy += src[i] * src[i]
	}
	coef := ForwardFloat(src, n)
	var cenergy float64
	for _, c := range coef {
		cenergy += c * c
	}
	if math.Abs(energy-cenergy) > 1e-9*energy {
		t.Fatalf("energy not preserved: %f vs %f", energy, cenergy)
	}
	rec := InverseFloat(coef, n)
	for i := range src {
		if math.Abs(rec[i]-src[i]) > 1e-9 {
			t.Fatalf("idx %d: %f vs %f", i, rec[i], src[i])
		}
	}
}

func TestDCTSpreadsOutliers(t *testing.T) {
	// The Fig. 3 mechanism: a single large outlier in the spatial domain is
	// amortized across all transform coefficients, so the coefficient-domain
	// peak is much smaller than the input peak.
	n := 8
	src := make([]float64, n*n)
	src[27] = 128 // isolated outlier
	coef := ForwardFloat(src, n)
	var peak float64
	for _, c := range coef {
		if math.Abs(c) > peak {
			peak = math.Abs(c)
		}
	}
	// Basis entries are at most √(2/n), so the peak coefficient of a
	// 128-impulse is at most 128·(2/n) = 32 for n=8 — a 4× amortization.
	if peak > 128.0*2/float64(n)+1e-9 {
		t.Fatalf("outlier not amortized: coef peak %.2f", peak)
	}
	if peak < 128.0/float64(n) {
		t.Fatalf("suspiciously small peak %.2f; transform likely wrong", peak)
	}
}

// denseForward and denseInverse are the plain O(n³) products A·res·Aᵀ and
// Aᵀ·coef·A the butterfly kernels must equal bit for bit: same matrix, same
// int64 sums, same single rounding shift.
func denseForward(mat []int32, n int, dst, res []int32) {
	tmp := make([]int64, n*n)
	for k := 0; k < n; k++ {
		for i := 0; i < n; i++ {
			a := int64(mat[k*n+i])
			for j := 0; j < n; j++ {
				tmp[k*n+j] += a * int64(res[i*n+j])
			}
		}
	}
	const shift = 2*matrixBits - coefBits
	const half = int64(1) << (shift - 1)
	out := make([]int32, n*n)
	for k := 0; k < n; k++ {
		for l := 0; l < n; l++ {
			var acc int64
			for j := 0; j < n; j++ {
				acc += tmp[k*n+j] * int64(mat[l*n+j])
			}
			out[k*n+l] = int32((acc + half) >> shift)
		}
	}
	copy(dst, out)
}

func denseInverse(mat []int32, n int, dst, coef []int32) {
	tmpT := make([]int64, n*n) // tmpT[j][i] = (Aᵀ·coef)[i][j]
	for k := 0; k < n; k++ {
		for j := 0; j < n; j++ {
			c := int64(coef[k*n+j])
			for i := 0; i < n; i++ {
				tmpT[j*n+i] += c * int64(mat[k*n+i])
			}
		}
	}
	const shift = 2*matrixBits + coefBits
	const half = int64(1) << (shift - 1)
	acc := make([]int64, n*n)
	for k := 0; k < n; k++ {
		for i := 0; i < n; i++ {
			v := tmpT[k*n+i]
			for j := 0; j < n; j++ {
				acc[i*n+j] += v * int64(mat[k*n+j])
			}
		}
	}
	for i, v := range acc {
		dst[i] = int32((v + half) >> shift)
	}
}

// checkAgainstDense runs both directions of tr on block, in place and out of
// place, against the dense reference.
func checkAgainstDense(t *testing.T, tr *Transform, mat []int32, block []int32, what string) {
	t.Helper()
	n := tr.Size()
	want, got := make([]int32, n*n), make([]int32, n*n)
	for _, dir := range []struct {
		name  string
		fast  func(dst, src []int32)
		dense func(mat []int32, n int, dst, src []int32)
	}{{"Forward", tr.Forward, denseForward}, {"Inverse", tr.Inverse, denseInverse}} {
		dir.dense(mat, n, want, block)
		dir.fast(got, block)
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("%s n=%d %s: [%d] = %d, dense reference %d", dir.name, n, what, i, got[i], want[i])
			}
		}
		copy(got, block)
		dir.fast(got, got) // dst aliasing src
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("%s n=%d %s in place: [%d] = %d, dense reference %d", dir.name, n, what, i, got[i], want[i])
			}
		}
	}
}

func dstMatrix() []int32 {
	mat := make([]int32, 16)
	for i, v := range dstMat {
		mat[i] = int32(v)
	}
	return mat
}

func TestButterflyMatchesDenseCorners4(t *testing.T) {
	// Every 4×4 block over {−255, 0, 255}: 3¹⁶ ≈ 43M is too many, so the
	// exhaustive part is every row pattern (3⁴) in every row position with
	// the other rows drawn from the same corner set by a fixed generator —
	// each 1-D pass sees all 81 corner vectors in both passes.
	corner := [3]int32{-255, 0, 255}
	dctT, dstT := NewDCT(4), NewDST4()
	dctM, dstM := dctMatrix(4), dstMatrix()
	rng := rand.New(rand.NewSource(11))
	block := make([]int32, 16)
	for pat := 0; pat < 81; pat++ {
		for pos := 0; pos < 4; pos++ {
			for transpose := 0; transpose < 2; transpose++ {
				for i := range block {
					block[i] = corner[rng.Intn(3)]
				}
				for j, p := 0, pat; j < 4; j, p = j+1, p/3 {
					if transpose == 0 {
						block[pos*4+j] = corner[p%3]
					} else {
						block[j*4+pos] = corner[p%3]
					}
				}
				checkAgainstDense(t, dctT, dctM, block, "corner")
				checkAgainstDense(t, dstT, dstM, block, "corner (DST)")
			}
		}
	}
}

func TestButterflyMatchesDense(t *testing.T) {
	rng := rand.New(rand.NewSource(12))
	for _, n := range []int{4, 8, 16, 32} {
		tr, mat := NewDCT(n), dctMatrix(n)
		block := make([]int32, n*n)
		checkAgainstDense(t, tr, mat, block, "all-zero")
		for _, amp := range []int32{255, 1 << 20, math.MaxInt32 / 2} {
			for trial := 0; trial < 25; trial++ {
				checkAgainstDense(t, tr, mat, randBlock(rng, n, amp), "random")
				// Worst-case signs: every sample at ±amp.
				for i := range block {
					block[i] = amp - 2*amp*int32(rng.Intn(2))
				}
				checkAgainstDense(t, tr, mat, block, "±amp")
				// 90 % sparse, the post-quantisation shape.
				for i := range block {
					block[i] = 0
					if rng.Intn(10) == 0 {
						block[i] = rng.Int31n(2*amp+1) - amp
					}
				}
				checkAgainstDense(t, tr, mat, block, "sparse")
				// Non-zeros confined to a low-frequency corner.
				ext := 1 + rng.Intn(n/2)
				for i := range block {
					block[i] = 0
					if i/n < ext && i%n < ext && rng.Intn(2) == 0 {
						block[i] = rng.Int31n(2*amp+1) - amp
					}
				}
				checkAgainstDense(t, tr, mat, block, "low-frequency corner")
				// One coefficient anywhere, DC included.
				clear(block)
				block[rng.Intn(n*n)] = rng.Int31n(2*amp+1) - amp
				checkAgainstDense(t, tr, mat, block, "single coefficient")
				clear(block)
				block[0] = rng.Int31n(2*amp+1) - amp
				checkAgainstDense(t, tr, mat, block, "DC only")
			}
		}
	}
}

func TestInverseDropsStaleScratch(t *testing.T) {
	// Pass 1 skips all-zero rows, so pass 2 must not see what an earlier
	// block left in their place: dense, then sparse, on the same Transform.
	rng := rand.New(rand.NewSource(13))
	for _, n := range []int{8, 32} {
		tr, mat := NewDCT(n), dctMatrix(n)
		out := make([]int32, n*n)
		tr.Inverse(out, randBlock(rng, n, 1<<20))
		sparse := make([]int32, n*n)
		sparse[1], sparse[2*n] = 77, -5
		checkAgainstDense(t, tr, mat, sparse, "sparse after dense")
	}
}

func BenchmarkForward4(b *testing.B)  { benchForward(b, 4) }
func BenchmarkForward8(b *testing.B)  { benchForward(b, 8) }
func BenchmarkForward16(b *testing.B) { benchForward(b, 16) }
func BenchmarkForward32(b *testing.B) { benchForward(b, 32) }

func benchForward(b *testing.B, n int) {
	rng := rand.New(rand.NewSource(9))
	tr := NewDCT(n)
	res := randBlock(rng, n, 255)
	coef := make([]int32, n*n)
	b.SetBytes(int64(n * n))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tr.Forward(coef, res)
	}
}

func BenchmarkInverse4(b *testing.B)  { benchInverse(b, 4) }
func BenchmarkInverse8(b *testing.B)  { benchInverse(b, 8) }
func BenchmarkInverse16(b *testing.B) { benchInverse(b, 16) }
func BenchmarkInverse32(b *testing.B) { benchInverse(b, 32) }

// benchInverse times Inverse on a dense coefficient block (Forward of a
// ±255 residual) and on the same block after a QP 30 quantisation round
// trip, which is what the codec feeds it.
func benchInverse(b *testing.B, n int) {
	rng := rand.New(rand.NewSource(9))
	tr := NewDCT(n)
	dense := make([]int32, n*n)
	tr.Forward(dense, randBlock(rng, n, 20))
	sparse := make([]int32, n*n)
	Quantize(sparse, dense, 30)
	Dequantize(sparse, sparse, 30)
	rec := make([]int32, n*n)
	for _, in := range []struct {
		name string
		coef []int32
	}{{"dense", dense}, {"sparse", sparse}} {
		b.Run(in.name, func(b *testing.B) {
			b.SetBytes(int64(n * n))
			for i := 0; i < b.N; i++ {
				tr.Inverse(rec, in.coef)
			}
		})
	}
}
