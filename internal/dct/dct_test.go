package dct

import (
	"encoding/binary"
	"math"
	"math/big"
	"math/bits"
	"math/rand"
	"slices"
	"testing"
	"testing/quick"

	"repro/internal/cpufeat"
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

// TestQstepTable: each committed Qstep is within 1.5 ulps of 2^((qp−4)/6),
// checked exactly: (q ∓ 1.5 ulp)⁶ bracket 2^(qp−4) in math/big. (math.Pow
// itself is no fixed reference: under GOARCH=386 it differs from these,
// amd64's values, by up to 2 ulps at QPs 2, 6, 18 and 24.)
func TestQstepTable(t *testing.T) {
	sixth := func(x *big.Float) *big.Float {
		y := new(big.Float).SetPrec(1024).Mul(x, x)
		return y.Mul(y, x).Mul(y, y)
	}
	for qp, q := range qstepTable {
		slack := new(big.Float).SetPrec(1024).SetFloat64(1.5 * (math.Nextafter(q, math.Inf(1)) - q))
		lo := new(big.Float).SetPrec(1024).Sub(big.NewFloat(q), slack)
		hi := new(big.Float).SetPrec(1024).Add(big.NewFloat(q), slack)
		want := new(big.Float).SetMantExp(big.NewFloat(1), qp-4)
		if sixth(lo).Cmp(want) > 0 || sixth(hi).Cmp(want) < 0 {
			t.Errorf("qstepTable[%d] = %v: more than 1.5 ulps from 2^(%d/6)", qp, q, qp-4)
		}
	}
}

// TestMatrixRoundingMargin: every entry of the DCT and DST matrices lies at
// least 1e-4 from the rounding boundary of its integer, so a last-ulp
// difference in a platform's Cos, Sin or Sqrt cannot move an integer of the
// transform (DESIGN.md §11.1).
func TestMatrixRoundingMargin(t *testing.T) {
	const margin = 1e-4
	check := func(name string, n, k, j int, v float64) {
		if f := v*(1<<matrixBits) - math.Floor(v*(1<<matrixBits)); math.Abs(f-0.5) < margin {
			t.Errorf("%s n=%d [%d][%d] = %v·2^%d: %.2g from a rounding boundary", name, n, k, j, v, matrixBits, math.Abs(f-0.5))
		}
	}
	for n := 4; n <= maxN; n *= 2 {
		for k := 0; k < n; k++ {
			ck := 1.0
			if k == 0 {
				ck = math.Sqrt(0.5)
			}
			for j := 0; j < n; j++ {
				check("DCT", n, k, j, math.Sqrt(2/float64(n))*ck*math.Cos(float64(2*j+1)*float64(k)*math.Pi/float64(2*n)))
			}
		}
	}
	for k := 0; k < 4; k++ {
		for j := 0; j < 4; j++ {
			check("DST", 4, k, j, 2/math.Sqrt(9)*math.Sin(float64(2*j+1)*float64(k+1)*math.Pi/9))
		}
	}
}

// TestLog2Fixed: Log2Fixed is low by less than one unit of 2^−Log2Frac
// against math.Log2, across every bit length and mantissas at both ends of
// an octave, and monotone.
func TestLog2Fixed(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	const unit = 1.0 / (1 << Log2Frac)
	prev := int64(-1)
	for x := uint64(1); x < 1<<16; x++ {
		if got := Log2Fixed(x); got < prev {
			t.Fatalf("Log2Fixed(%d) = %d < Log2Fixed(%d) = %d", x, got, x-1, prev)
		} else {
			prev = got
		}
	}
	for e := 0; e < 64; e++ {
		for _, x := range []uint64{1 << e, 1<<e | rng.Uint64()>>(64-e), 1<<e | (1<<e - 1)} {
			got := float64(Log2Fixed(x)) * unit
			if want := math.Log2(float64(x)); got > want+1e-12 || got < want-unit-1e-9 {
				t.Fatalf("Log2Fixed(%#x) = %v, math.Log2 %v", x, got, want)
			}
		}
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

// TestForwardEquivalence holds Forward, on every kernel path, to the dense
// product: the DCT at n = 4…32 and the DST-VII, on every block forEachBlock
// makes, out of place and with dst aliasing res. On the float path the float
// kernel — two folded products — is also called directly: it must take a
// block exactly when the block's magnitude scan is within Forward's float
// limit, which forEachBlock's guard blocks meet exactly and pass by one, and
// then write the dense product's integers.
func TestForwardEquivalence(t *testing.T) {
	for _, c := range refTransforms() {
		n := c.tr.n
		want, got := make([]int32, n*n), make([]int32, n*n)
		forEachBlock(n, func(block []int32, what string) {
			denseForward(c.mat, n, want, block)
			kernelPaths(func(simd bool) {
				check := func(how string) {
					if !slices.Equal(got, want) {
						requireSameBlock(t, got, want, "%s %s, %s, simd %v", c.name, how, what, simd)
					}
				}
				clear(got)
				c.tr.Forward(got, block)
				check("Forward")
				copy(got, block)
				c.tr.Forward(got, got)
				check("Forward in place")
				if simd && c.tr.bf != nil && cpufeat.Lanes8(n) {
					clear(got)
					if took := c.tr.forwardGEMM(got, block); took != (scan(block) <= c.tr.bf.fwdLimit) {
						t.Fatalf("%s forwardGEMM, %s: took the block = %v, scan %d against limit %d", c.name, what, took, scan(block), c.tr.bf.fwdLimit)
					} else if took {
						check("forwardGEMM")
					}
				}
			})
		})
	}
}

// TestInverseEquivalence holds Inverse and InverseMasked, on every kernel
// path, to the dense product on the same transforms and blocks as
// TestForwardEquivalence: InverseMasked under exact masks and under over-full
// ones (a set bit over a zero is harmless: whole extra rows included, which
// changes how the non-zero rows pair up), out of place and in place, one
// Transform through all the blocks. On the float path the float kernel is
// called directly, as Forward's is.
func TestInverseEquivalence(t *testing.T) {
	rng := rand.New(rand.NewSource(22))
	for _, c := range refTransforms() {
		n := c.tr.n
		want, got := make([]int32, n*n), make([]int32, n*n)
		forEachBlock(n, func(block []int32, what string) {
			denseInverse(c.mat, n, want, block)
			exact := exactMasks(block, n)
			loose := exact
			for k := range loose[:n] {
				if rng.Intn(3) == 0 {
					loose[k] |= rng.Uint32() & (1<<uint(n) - 1)
				}
			}
			kernelPaths(func(simd bool) {
				check := func(how string) {
					if !slices.Equal(got, want) {
						requireSameBlock(t, got, want, "%s %s, %s, simd %v", c.name, how, what, simd)
					}
				}
				clear(got)
				c.tr.Inverse(got, block)
				check("Inverse")
				clear(got)
				c.tr.InverseMasked(got, block, &exact)
				check("InverseMasked, exact masks")
				copy(got, block)
				c.tr.InverseMasked(got, got, &exact)
				check("InverseMasked in place, exact masks")
				clear(got)
				c.tr.InverseMasked(got, block, &loose)
				check("InverseMasked, over-full masks")
				copy(got, block)
				c.tr.InverseMasked(got, got, &loose)
				check("InverseMasked in place, over-full masks")
				if simd && c.tr.bf != nil && cpufeat.Lanes8(n) {
					clear(got)
					if took := c.tr.inverseGEMM(got, block); took != (scan(block) <= c.tr.bf.invLimit) {
						t.Fatalf("%s inverseGEMM, %s: took the block = %v, scan %d against limit %d", c.name, what, took, scan(block), c.tr.bf.invLimit)
					} else if took {
						check("inverseGEMM")
					}
				}
			})
		})
	}
}

func TestLaneLimits(t *testing.T) {
	// The table DESIGN.md §11.1 prints; a changed matrix must change both.
	want := map[int]int64{4: 1048574, 8: 741533, 16: 524286, 32: 370766}
	for n, w := range want {
		if got := guardLimits(n)[0]; got != w {
			t.Errorf("n=%d: lane limit %d, documented %d", n, got, w)
		}
	}
}

func TestGEMMLimitsPinned(t *testing.T) {
	// The table DESIGN.md §11.1 prints; a changed matrix must change both.
	want := map[int][2]int64{8: {4195199, 1073971244}, 16: {2097150, 536870909}, 32: {1048799, 268492810}}
	for n, w := range want {
		if got := guardLimits(n)[1:]; got[0] != w[0] || got[1] != w[1] {
			t.Errorf("n=%d: forward, inverse limits %v, documented %v", n, got, w)
		}
	}
}

// FuzzLanes: any block — int32s read from data, shifted up by shift — through
// Forward and InverseMasked (exact masks widened by loose) on every kernel
// path, against the dense product, for the transform size selects. The seeds
// are every guard's worst cases at its limit, for both directions: the paired
// passes' and the float kernels'. Plain `go test` replays them.
func FuzzLanes(f *testing.F) {
	for size, c := range refTransforms() {
		n := c.tr.n
		block := make([]int32, n*n)
		for si, s := range guardSigns(n) {
			for _, limit := range guardLimits(n) {
				for _, e := range guardEdges(limit)[:2] {
					for _, outer := range []bool{true, false} {
						guardBlock(block, s, outer, int32(1-2*si), e[0], e[1])
						data := make([]byte, 4*n*n)
						for i, v := range block {
							binary.LittleEndian.PutUint32(data[4*i:], uint32(v))
						}
						f.Add(uint8(size), uint8(0), data, uint32(0))
						f.Add(uint8(size), uint8(0), data[:4*n*n/2], uint32(0xA5A5A5A5))
					}
				}
			}
		}
	}
	transforms := refTransforms()
	f.Fuzz(func(t *testing.T, size, shift uint8, data []byte, loose uint32) {
		c := transforms[int(size)%len(transforms)]
		n := c.tr.n
		block := make([]int32, n*n)
		for i := 0; i < n*n && 4*i+4 <= len(data); i++ {
			block[i] = int32(binary.LittleEndian.Uint32(data[4*i:])) << (shift % 32)
		}
		nz := exactMasks(block, n)
		for k := range nz[:n] {
			nz[k] |= bits.RotateLeft32(loose, k) & (1<<uint(n) - 1)
		}
		fwd, inv, got := make([]int32, n*n), make([]int32, n*n), make([]int32, n*n)
		denseForward(c.mat, n, fwd, block)
		denseInverse(c.mat, n, inv, block)
		kernelPaths(func(simd bool) {
			c.tr.Forward(got, block)
			requireSameBlock(t, got, fwd, "%s Forward, simd %v", c.name, simd)
			c.tr.InverseMasked(got, block, &nz)
			requireSameBlock(t, got, inv, "%s InverseMasked, simd %v", c.name, simd)
		})
	})
}

// TestQuantizeEquivalence: Quantize against the branchy quantiser on
// ±(0…2²⁰) for a spread of QPs, on ±(0…2¹⁴) for every QP, and around every
// coefficient where |c|/step crosses a k + ⅔ boundary — where v + ⅓ rounds to
// an integer or just short of one.
func TestQuantizeEquivalence(t *testing.T) {
	check := func(coef []int32, qp int) {
		t.Helper()
		got, want := make([]int32, len(coef)), make([]int32, len(coef))
		Quantize(got, coef, qp)
		quantizeBranchy(want, coef, qp)
		requireSameBlock(t, got, want, "Quantize qp=%d", qp)
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

// TestDequantizeEquivalence: Dequantize against the formula for every QP and
// every level in [−2¹⁶, 2¹⁶] — both sides of the table's edge — and at the
// ends of the int32 range. QPs outside [0, MaxQP] clamp as Qstep does.
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
		requireSameBlock(t, got, want, "Dequantize qp=%d", qp)
	}
}

// TestQuantizeDequantizeEquivalence: the encoder's fused pass against the
// quantiser and dequantiser definitions and its masks against the levels', on
// every kernel path, on forEachBlock's blocks at a drawn QP each — as given,
// so that blocks quantising to all zeros hold any == false, and again with one
// coefficient drawn to quantise to a level on a side of the table's edge
// (255, 256, 257) — in place and out of place.
func TestQuantizeDequantizeEquivalence(t *testing.T) {
	kernelPaths(func(simd bool) {
		rng := rand.New(rand.NewSource(14))
		for _, n := range []int{4, 8, 16, 32} {
			wantLev, wantDeq := make([]int32, n*n), make([]int32, n*n)
			lev, deq := make([]int32, n*n), make([]int32, n*n)
			check := func(coef []int32, qp int, what string) {
				t.Helper()
				quantizeBranchy(wantLev, coef, qp)
				dequantizeFormula(wantDeq, wantLev, qp)
				wantNZ := exactMasks(wantLev, n)
				var nz RowMasks
				nz[n-1] = ^uint32(0) // stale
				any := QuantizeDequantize(lev, deq, coef, n, qp, &nz)
				requireSameBlock(t, lev, wantLev, "simd=%v n=%d qp=%d %s: levels", simd, n, qp, what)
				requireSameBlock(t, deq, wantDeq, "simd=%v n=%d qp=%d %s: reconstruction", simd, n, qp, what)
				if nz != wantNZ || any != (wantNZ != RowMasks{}) {
					t.Fatalf("simd=%v n=%d qp=%d %s: masks %x any %v, levels say %x", simd, n, qp, what, nz[:n], any, wantNZ[:n])
				}
				copy(deq, coef)
				QuantizeDequantize(lev, deq, deq, n, qp, &nz)
				requireSameBlock(t, deq, wantDeq, "simd=%v n=%d qp=%d %s: reconstruction in place", simd, n, qp, what)
			}
			forEachBlock(n, func(coef []int32, what string) {
				qp := rng.Intn(MaxQP + 1)
				check(coef, qp, what)
				edge := float64(dequantTableLen-1+rng.Intn(3)) + 0.1
				coef[rng.Intn(n*n)] = int32(edge*Qstep(qp)*quantScale) * (1 - 2*rng.Int31n(2))
				check(coef, qp, what+" + table edge")
			})
		}
	})
}

// TestDequantizeMasksEquivalence: the decoder's fused pass against the
// dequantiser definition and its masks against the levels' — so that
// InverseMasked under them is InverseMasked under exact masks, which
// TestInverseEquivalence holds — on every kernel path, on forEachBlock's
// blocks as levels at a drawn QP each — as given, so that all-zero blocks
// hold any == false, and again with one entry on a side of the table's edge
// at 256 or at the decoder's level cap of ±2¹⁶ — in place and out of place.
func TestDequantizeMasksEquivalence(t *testing.T) {
	kernelPaths(func(simd bool) {
		rng := rand.New(rand.NewSource(15))
		edge := []int32{1, -1, 255, -255, 256, -256, 257, -257, 1 << 16, -(1 << 16)}
		for _, n := range []int{4, 8, 16, 32} {
			want, got := make([]int32, n*n), make([]int32, n*n)
			check := func(lev []int32, qp int, what string) {
				t.Helper()
				dequantizeFormula(want, lev, qp)
				wantNZ := exactMasks(lev, n)
				var nz RowMasks
				nz[n-1] = ^uint32(0) // stale
				any := DequantizeMasked(got, lev, n, qp, &nz)
				requireSameBlock(t, got, want, "simd=%v n=%d qp=%d %s", simd, n, qp, what)
				if nz != wantNZ || any != (wantNZ != RowMasks{}) {
					t.Fatalf("simd=%v n=%d qp=%d %s: masks %x any %v, levels say %x", simd, n, qp, what, nz[:n], any, wantNZ[:n])
				}
				copy(got, lev)
				DequantizeMasked(got, got, n, qp, &nz)
				requireSameBlock(t, got, want, "simd=%v n=%d qp=%d %s: in place", simd, n, qp, what)
			}
			forEachBlock(n, func(lev []int32, what string) {
				qp := rng.Intn(MaxQP + 1)
				check(lev, qp, what)
				lev[rng.Intn(n*n)] = edge[rng.Intn(len(edge))]
				check(lev, qp, what+" + edge")
			})
		}
	})
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

// benchInverse times InverseMasked on what the codec feeds it: the
// dequantised blocks and non-zero masks QuantizeDequantize returns at each
// coding point, so the mask scan Inverse adds is not timed.
func benchInverse(b *testing.B, n int) {
	_, coef := benchCoefBlocks(n, benchBlockCount)
	tr := NewDCT(n)
	rec, lev := make([]int32, n*n), make([]int32, n*n)
	for _, pt := range benchQPs {
		deq, nz := make([][]int32, len(coef)), make([]RowMasks, len(coef))
		for i, c := range coef {
			deq[i] = make([]int32, n*n)
			QuantizeDequantize(lev, deq[i], c, n, pt.qp, &nz[i])
		}
		b.Run(pt.name, func(b *testing.B) {
			b.SetBytes(int64(n * n))
			for i := 0; i < b.N; i++ {
				j := i % benchBlockCount
				tr.InverseMasked(rec, deq[j], &nz[j])
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
