package dct

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/quant"
	"repro/internal/tensorgen"
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
	n := tr.n
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

// quantizeBranchy and dequantizeFormula are the quantisers PR 17 shipped
// (commit c563641), kept verbatim as the differential references for the
// sign-mask and table forms that replaced them.

func quantizeBranchy(dst, coef []int32, qp int) {
	step := Qstep(qp) * quantScale
	inv := 1 / step
	for i, c := range coef {
		v := float64(c) * inv
		if v >= 0 {
			dst[i] = int32(v + 1.0/3.0)
		} else {
			dst[i] = -int32(-v + 1.0/3.0)
		}
	}
}

func dequantizeFormula(dst, levels []int32, qp int) {
	step := Qstep(qp) * quantScale
	for i, l := range levels {
		if l == 0 {
			dst[i] = 0
			continue
		}
		dst[i] = int32(math.Round(float64(l) * step))
	}
}

func requireSame(t *testing.T, got, want, in []int32, what string, qp int) {
	t.Helper()
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("%s qp=%d: %d -> %d, reference %d", what, qp, in[i], got[i], want[i])
		}
	}
}

// TestDequantizeEquivalence: the table form against the formula for every QP
// and every level in [−2¹⁶, 2¹⁶] — both sides of the table's edge — and at
// the ends of the int32 range. QPs outside [0, MaxQP] clamp as Qstep does.
func TestDequantizeEquivalence(t *testing.T) {
	const span = 1 << 16
	levels := make([]int32, 0, 2*span+5)
	for l := int32(-span); l <= span; l++ {
		levels = append(levels, l)
	}
	levels = append(levels, math.MinInt32, math.MinInt32+1, math.MaxInt32, 1<<24)
	got, want := make([]int32, len(levels)), make([]int32, len(levels))
	for qp := -2; qp <= MaxQP+2; qp++ {
		Dequantize(got, levels, qp)
		dequantizeFormula(want, levels, qp)
		requireSame(t, got, want, levels, "Dequantize", qp)
	}
}

// TestQuantizeEquivalence: the sign-mask form against the branchy one on
// ±(0…2²⁰) for a spread of QPs, on ±(0…2¹⁴) for every QP, and around every
// coefficient where |c|/step crosses a k + ⅔ boundary — where v + ⅓ rounds to
// an integer or just short of one.
func TestQuantizeEquivalence(t *testing.T) {
	check := func(coef []int32, qp int) {
		t.Helper()
		got, want := make([]int32, len(coef)), make([]int32, len(coef))
		Quantize(got, coef, qp)
		quantizeBranchy(want, coef, qp)
		requireSame(t, got, want, coef, "Quantize", qp)
	}
	ramp := func(limit int32) []int32 {
		coef := make([]int32, 0, 2*limit+2)
		for c := int32(0); c <= limit; c++ {
			coef = append(coef, c, -c)
		}
		return coef
	}
	small, large := ramp(1<<14), ramp(1<<20)
	for qp := -1; qp <= MaxQP+1; qp++ {
		check(small, qp)
		step := Qstep(qp) * quantScale
		edges := []int32{math.MinInt32, math.MinInt32 + 1, math.MaxInt32}
		for k := 0; k < 4096; k++ {
			c := int32((float64(k) + 2.0/3.0) * step)
			edges = append(edges, c-1, c, c+1, 1-c, -c, -c-1)
		}
		check(edges, qp)
	}
	for _, qp := range []int{0, 4, 12, 17, 30, MaxQP} {
		check(large, qp)
	}
}

// TestQuantizeDequantizeEquivalence: the fused pass against Quantize then
// Dequantize, its masks against the levels, in place and out of place.
func TestQuantizeDequantizeEquivalence(t *testing.T) {
	rng := rand.New(rand.NewSource(14))
	for _, n := range []int{4, 8, 16, 32} {
		for trial := 0; trial < 200; trial++ {
			qp := rng.Intn(MaxQP + 1)
			amp := int32(1) << uint(2+rng.Intn(19))
			coef := randBlock(rng, n, amp)
			if trial%5 == 0 { // low-frequency corner only: most masks empty
				for i := range coef {
					if i/n > 2 || i%n > 2 {
						coef[i] = 0
					}
				}
			}
			wantLev, wantDeq := make([]int32, n*n), make([]int32, n*n)
			Quantize(wantLev, coef, qp)
			Dequantize(wantDeq, wantLev, qp)
			lev, deq := make([]int32, n*n), make([]int32, n*n)
			var nz RowMasks
			nz[n-1] = ^uint32(0) // stale
			any := QuantizeDequantize(lev, deq, coef, n, qp, &nz)
			requireSame(t, lev, wantLev, coef, "fused levels", qp)
			requireSame(t, deq, wantDeq, coef, "fused reconstruction", qp)
			wantAny := false
			for k := 0; k < n; k++ {
				var m uint32
				for l := 0; l < n; l++ {
					if wantLev[k*n+l] != 0 {
						m |= 1 << uint(l)
						wantAny = true
					}
				}
				if nz[k] != m {
					t.Fatalf("n=%d qp=%d row %d: mask %#x, levels say %#x", n, qp, k, nz[k], m)
				}
			}
			if any != wantAny {
				t.Fatalf("n=%d qp=%d: any = %v, levels say %v", n, qp, any, wantAny)
			}
			inPlace := append([]int32(nil), coef...)
			QuantizeDequantize(lev, inPlace, inPlace, n, qp, &nz)
			requireSame(t, inPlace, wantDeq, coef, "fused reconstruction in place", qp)
		}
	}
}

// TestDequantizeMasksEquivalence: the decoder's fused pass against Dequantize
// for the values and against the scan Inverse makes of them for the masks — so
// InverseMasked under the reported masks is Inverse — at every QP, on blocks
// whose magnitudes straddle the table's edge at 256 and reach the decoder's
// level cap of ±2¹⁶, from empty through one coefficient to dense, in place
// and out of place.
func TestDequantizeMasksEquivalence(t *testing.T) {
	rng := rand.New(rand.NewSource(15))
	edge := []int32{1, -1, 255, -255, 256, -256, 257, -257, 1 << 16, -(1 << 16)}
	for _, n := range []int{4, 8, 16, 32} {
		tr := NewDCT(n)
		for qp := 0; qp <= MaxQP; qp++ {
			for trial := 0; trial < 12; trial++ {
				lev := make([]int32, n*n)
				switch trial {
				case 0: // all zero
				case 1: // one coefficient, anywhere
					lev[rng.Intn(n*n)] = edge[rng.Intn(len(edge))]
				case 2: // one row, one column
					for i := 0; i < n; i++ {
						lev[3*n+i], lev[i*n+2] = edge[rng.Intn(len(edge))], edge[rng.Intn(len(edge))]
					}
				default:
					density, amp := rng.Intn(101), int32(1)<<uint(rng.Intn(17))
					for i := range lev {
						if rng.Intn(100) < density {
							lev[i] = rng.Int31n(2*amp+1) - amp
						}
					}
					lev[rng.Intn(n*n)] = edge[rng.Intn(len(edge))]
				}
				want, got := make([]int32, n*n), make([]int32, n*n)
				Dequantize(want, lev, qp)
				var nz RowMasks
				nz[n-1] = ^uint32(0) // stale
				any := DequantizeMasked(got, lev, n, qp, &nz)
				requireSame(t, got, want, lev, "DequantizeMasked", qp)
				wantAny := false
				for k := 0; k < n; k++ {
					var m uint32
					for l := 0; l < n; l++ {
						if want[k*n+l] != 0 {
							m |= 1 << uint(l)
							wantAny = true
						}
					}
					if nz[k] != m {
						t.Fatalf("n=%d qp=%d trial %d row %d: mask %#x, dequantised levels say %#x", n, qp, trial, k, nz[k], m)
					}
				}
				if any != wantAny {
					t.Fatalf("n=%d qp=%d trial %d: any = %v, levels say %v", n, qp, trial, any, wantAny)
				}
				wantRes, gotRes := make([]int32, n*n), make([]int32, n*n)
				tr.Inverse(wantRes, want)
				tr.InverseMasked(gotRes, got, &nz)
				requireSame(t, gotRes, wantRes, lev, "InverseMasked under the reported masks", qp)
				inPlace := append([]int32(nil), lev...)
				DequantizeMasked(inPlace, inPlace, n, qp, &nz)
				requireSame(t, inPlace, want, lev, "DequantizeMasked in place", qp)
			}
		}
	}
}

// TestInverseEquivalence: Inverse and InverseMasked against the dense
// product on the inputs that steer each level of each pass down its dense
// (dot) or its sparse (axpy) form — fully dense, post-quantisation sparse, a
// single row, a single column, every density in between — at encoder-sized
// and at wrap-sized (|coef| ≈ 2³⁰) magnitudes.
func TestInverseEquivalence(t *testing.T) {
	rng := rand.New(rand.NewSource(15))
	for _, n := range []int{4, 8, 16, 32} {
		tr, mat := NewDCT(n), dctMatrix(n)
		want, got := make([]int32, n*n), make([]int32, n*n)
		check := func(coef []int32, what string) {
			t.Helper()
			denseInverse(mat, n, want, coef)
			tr.Inverse(got, coef)
			requireSameBlock(t, got, want, "Inverse n=%d %s", n, what)
			// Masks as QuantizeDequantize leaves them: exact.
			var nz RowMasks
			for i, v := range coef {
				if v != 0 {
					nz[i/n] |= 1 << uint(i%n)
				}
			}
			clear(got)
			tr.InverseMasked(got, coef, &nz)
			requireSameBlock(t, got, want, "InverseMasked n=%d %s", n, what)
			// A set bit over a zero coefficient is allowed.
			for k := range nz[:n] {
				nz[k] |= rng.Uint32() & (1<<uint(n) - 1)
			}
			tr.InverseMasked(got, coef, &nz)
			requireSameBlock(t, got, want, "InverseMasked n=%d %s, loose masks", n, what)
		}
		coef := make([]int32, n*n)
		for _, amp := range []int32{40, 1 << 12, 1<<30 - 1} {
			for trial := 0; trial < 20; trial++ {
				check(randBlock(rng, n, amp), "dense")
				dense := randBlock(rng, n, amp)
				Quantize(coef, dense, 30)
				Dequantize(coef, coef, 30)
				check(coef, "post-quantisation")
				clear(coef)
				copy(coef[rng.Intn(n)*n:][:n], randBlock(rng, n, amp))
				check(coef, "single row")
				clear(coef)
				for k, col := 0, rng.Intn(n); k < n; k++ {
					coef[k*n+col] = rng.Int31n(2*amp+1) - amp
				}
				check(coef, "single column")
				// Each coefficient kept with probability p: masks on both
				// sides of the dense/sparse threshold at every level.
				p := rng.Intn(101)
				for i := range coef {
					coef[i] = 0
					if rng.Intn(100) < p {
						coef[i] = rng.Int31n(2*amp+1) - amp
					}
				}
				check(coef, "thinned")
			}
		}
	}
}

func requireSameBlock(t *testing.T, got, want []int32, format string, args ...any) {
	t.Helper()
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf(format+": [%d] = %d, dense reference %d", append(args, i, got[i], want[i])...)
		}
	}
}

// benchCoefBlocks is the kernels' benchmark input: count n×n blocks cut from
// a generated weight plane, as residuals against their own mean and as the
// Forward coefficients of those. Kernels are timed rotating over the blocks —
// a loop over one block lets the branch predictor memorise its sign and zero
// pattern, which reads Quantize at 1 ns/px where the encoder pays 5.
func benchCoefBlocks(n, count int) (res, coef [][]int32) {
	const dim = 256
	rng := rand.New(rand.NewSource(9))
	pix, _, _ := quant.ToUint8(tensorgen.Weights(rng, dim, dim))
	tr := NewDCT(n)
	for b := 0; b < count; b++ {
		x0, y0 := rng.Intn(dim-n), rng.Intn(dim-n)
		r := make([]int32, n*n)
		var sum int32
		for i := range r {
			r[i] = int32(pix[(y0+i/n)*dim+x0+i%n])
			sum += r[i]
		}
		for i := range r {
			r[i] -= sum / int32(n*n)
		}
		c := make([]int32, n*n)
		tr.Forward(c, r)
		res, coef = append(res, r), append(coef, c)
	}
	return res, coef
}

const benchBlockCount = 64

// The two coding points of the rotating benchmarks: QP 12 leaves weight
// blocks dense, QP 30 leaves them sparse.
var benchQPs = []struct {
	name string
	qp   int
}{{"dense-qp12", 12}, {"sparse-qp30", 30}}

func BenchmarkForward4(b *testing.B)  { benchForward(b, 4) }
func BenchmarkForward8(b *testing.B)  { benchForward(b, 8) }
func BenchmarkForward16(b *testing.B) { benchForward(b, 16) }
func BenchmarkForward32(b *testing.B) { benchForward(b, 32) }

func benchForward(b *testing.B, n int) {
	res, _ := benchCoefBlocks(n, benchBlockCount)
	tr := NewDCT(n)
	coef := make([]int32, n*n)
	b.SetBytes(int64(n * n))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tr.Forward(coef, res[i%benchBlockCount])
	}
}

// benchForward's blocks are residuals against the block mean: in lane range
// for pass 1, and for pass 2 wherever the mean is a fair predictor. The
// Residual benchmarks time what an RD trial feeds Forward — the block minus
// its vertical prediction, the row above it repeated — where both guards hold
// on nearly every pair; GuardMiss32 scales those residuals out of range, so
// that every pair pays for its scan and packing and then runs unpacked: the
// price of a guard that fails, against ForwardResidual32.
func BenchmarkForwardResidual8(b *testing.B)   { benchForwardResidual(b, 8, 1) }
func BenchmarkForwardResidual16(b *testing.B)  { benchForwardResidual(b, 16, 1) }
func BenchmarkForwardResidual32(b *testing.B)  { benchForwardResidual(b, 32, 1) }
func BenchmarkForwardGuardMiss32(b *testing.B) { benchForwardResidual(b, 32, 1<<13) }

func benchForwardResidual(b *testing.B, n int, scale int32) {
	const dim = 256
	rng := rand.New(rand.NewSource(9))
	pix, _, _ := quant.ToUint8(tensorgen.Weights(rng, dim, dim))
	res := make([][]int32, benchBlockCount)
	for i := range res {
		x0, y0 := rng.Intn(dim-n), 1+rng.Intn(dim-n-1)
		res[i] = make([]int32, n*n)
		for j := range res[i] {
			res[i][j] = scale * (int32(pix[(y0+j/n)*dim+x0+j%n]) - int32(pix[(y0-1)*dim+x0+j%n]))
		}
	}
	tr := NewDCT(n)
	coef := make([]int32, n*n)
	b.SetBytes(int64(n * n))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tr.Forward(coef, res[i%benchBlockCount])
	}
}

func BenchmarkInverse4(b *testing.B)  { benchInverse(b, 4) }
func BenchmarkInverse8(b *testing.B)  { benchInverse(b, 8) }
func BenchmarkInverse16(b *testing.B) { benchInverse(b, 16) }
func BenchmarkInverse32(b *testing.B) { benchInverse(b, 32) }

// benchInverse times Inverse on what the codec feeds it: coefficient blocks
// after a quantisation round trip at each coding point.
func benchInverse(b *testing.B, n int) {
	_, coef := benchCoefBlocks(n, benchBlockCount)
	tr := NewDCT(n)
	rec := make([]int32, n*n)
	for _, pt := range benchQPs {
		deq := make([][]int32, len(coef))
		for i, c := range coef {
			deq[i] = make([]int32, n*n)
			Quantize(deq[i], c, pt.qp)
			Dequantize(deq[i], deq[i], pt.qp)
		}
		b.Run(pt.name, func(b *testing.B) {
			b.SetBytes(int64(n * n))
			for i := 0; i < b.N; i++ {
				tr.Inverse(rec, deq[i%benchBlockCount])
			}
		})
	}
}

func BenchmarkQuantize(b *testing.B) {
	const n = 16
	_, coef := benchCoefBlocks(n, benchBlockCount)
	lev := make([]int32, n*n)
	for _, pt := range benchQPs {
		b.Run(pt.name, func(b *testing.B) {
			b.SetBytes(n * n)
			for i := 0; i < b.N; i++ {
				Quantize(lev, coef[i%benchBlockCount], pt.qp)
			}
		})
	}
}

func BenchmarkDequantize(b *testing.B) {
	const n = 16
	_, coef := benchCoefBlocks(n, benchBlockCount)
	deq := make([]int32, n*n)
	for _, pt := range benchQPs {
		lev := make([][]int32, len(coef))
		for i, c := range coef {
			lev[i] = make([]int32, n*n)
			Quantize(lev[i], c, pt.qp)
		}
		b.Run(pt.name, func(b *testing.B) {
			b.SetBytes(n * n)
			for i := 0; i < b.N; i++ {
				Dequantize(deq, lev[i%benchBlockCount], pt.qp)
			}
		})
	}
}
