package quant

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func randVals(rng *rand.Rand, n int, scale float64) []float32 {
	v := make([]float32, n)
	for i := range v {
		v[i] = float32(rng.NormFloat64() * scale)
	}
	return v
}

func TestRTNMoreBitsLessError(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	data := randVals(rng, 4000, 1)
	prev := math.Inf(1)
	for _, bits := range []int{2, 3, 4, 6, 8} {
		m := MSE(data, RTNAsymmetric(data, bits))
		if m >= prev {
			t.Fatalf("bits=%d: MSE %.6f not below previous %.6f", bits, m, prev)
		}
		prev = m
	}
}

func TestRTNAsymmetricHandlesOffset(t *testing.T) {
	// The affine mapping spends its grid on [min, max], not on [-max, max]:
	// shifting a distribution away from zero must not cost precision.
	rng := rand.New(rand.NewSource(3))
	centred := randVals(rng, 2000, 1)
	shifted := make([]float32, len(centred))
	for i, v := range centred {
		shifted[i] = v + 5
	}
	at0 := MSE(centred, RTNAsymmetric(centred, 4))
	at5 := MSE(shifted, RTNAsymmetric(shifted, 4))
	if at5 > at0*1.01 {
		t.Fatalf("MSE %.6f on the shifted data, %.6f centred: the offset cost precision", at5, at0)
	}
}

func TestRTNGroupwiseBeatsPerTensorWithOutliers(t *testing.T) {
	// Group-wise quantization contains the damage of an outlier to its
	// group — the reason GPTQ-128G/AWQ-128G exist.
	rng := rand.New(rand.NewSource(4))
	data := randVals(rng, 4096, 1)
	data[100] = 80 // massive outlier
	perTensor := MSE(data, RTNAsymmetric(data, 3))
	grouped, bpv := RTNGroupwise(data, 3, 128)
	g := MSE(data, grouped)
	if g >= perTensor {
		t.Fatalf("groupwise MSE %.6f should beat per-tensor %.6f", g, perTensor)
	}
	wantBPV := 3 + 32.0/128
	if math.Abs(bpv-wantBPV) > 1e-9 {
		t.Fatalf("groupwise bpv = %.4f, want %.4f", bpv, wantBPV)
	}
}

func TestToFromUint8RoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	data := randVals(rng, 3000, 2)
	pix, scale, zero := ToUint8(data)
	back := FromUint8(pix, scale, zero)
	lo, hi := MinMax(data)
	maxErr := (float64(hi) - float64(lo)) / 255 / 2
	for i := range data {
		if err := math.Abs(float64(back[i]) - float64(data[i])); err > maxErr+1e-6 {
			t.Fatalf("idx %d: err %.6f > half-step %.6f", i, err, maxErr)
		}
	}
}

func TestToUint8Constant(t *testing.T) {
	data := []float32{3.5, 3.5, 3.5}
	pix, scale, zero := ToUint8(data)
	back := FromUint8(pix, scale, zero)
	for i := range back {
		if back[i] != 3.5 {
			t.Fatalf("constant roundtrip: %v", back)
		}
	}
}

func TestToUint8Property(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := rng.Intn(500) + 2
		data := randVals(rng, n, math.Abs(rng.NormFloat64())+0.1)
		pix, scale, zero := ToUint8(data)
		back := FromUint8(pix, scale, zero)
		lo, hi := MinMax(data)
		tol := (float64(hi)-float64(lo))/255*0.51 + 1e-5
		for i := range data {
			if math.Abs(float64(back[i])-float64(data[i])) > tol {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

func TestMXFPFormats(t *testing.T) {
	// E2M1 magnitudes are the well-known {0, .5, 1, 1.5, 2, 3, 4, 6}.
	want := []float64{0, 0.5, 1, 1.5, 2, 3, 4, 6}
	if len(MXFP4.grid) != len(want) {
		t.Fatalf("MXFP4 grid %v", MXFP4.grid)
	}
	for i, w := range want {
		if math.Abs(MXFP4.grid[i]-w) > 1e-12 {
			t.Fatalf("MXFP4 grid[%d] = %v, want %v", i, MXFP4.grid[i], w)
		}
	}
}

func TestMXFPAccuracyOrder(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	data := randVals(rng, 4096, 1)
	_, m4, _ := MXFPSymbols(data, MXFP4)
	_, m6, _ := MXFPSymbols(data, MXFP6)
	_, m8, _ := MXFPSymbols(data, MXFP8)
	e4, e6, e8 := MSE(data, m4), MSE(data, m6), MSE(data, m8)
	if !(e8 < e6 && e6 < e4) {
		t.Fatalf("MXFP error order wrong: fp4 %.6f fp6 %.6f fp8 %.6f", e4, e6, e8)
	}
}

func TestMXFPBlockScalingHandlesDynamicRange(t *testing.T) {
	// Values spanning many octaves across blocks: per-block scaling keeps
	// the relative error bounded everywhere.
	data := make([]float32, 128)
	for b := 0; b < 4; b++ {
		mag := math.Pow(10, float64(b)-2)
		for i := 0; i < 32; i++ {
			data[b*32+i] = float32(mag * (1 + float64(i)/40))
		}
	}
	_, q, _ := MXFPSymbols(data, MXFP6)
	for i := range data {
		rel := math.Abs(float64(q[i])-float64(data[i])) / math.Abs(float64(data[i]))
		if rel > 0.15 {
			t.Fatalf("idx %d: relative error %.3f too large", i, rel)
		}
	}
}

func TestMXFPZeroBlock(t *testing.T) {
	data := make([]float32, 64)
	_, q, _ := MXFPSymbols(data, MXFP4)
	for i, v := range q {
		if v != 0 {
			t.Fatalf("zero block produced %v at %d", v, i)
		}
	}
}

func TestMSEAndMAE(t *testing.T) {
	a := []float32{0, 0, 0, 0}
	b := []float32{1, -1, 2, 0}
	if got := MSE(a, b); got != 1.5 {
		t.Fatalf("MSE = %v, want 1.5", got)
	}
	if got := MAE(a, b); got != 1 {
		t.Fatalf("MAE = %v, want 1", got)
	}
}

// --- degenerate-input (NaN/±Inf) regression tests -------------------------
//
// math.Round(NaN) fails both clamp comparisons and uint8(NaN) is
// platform-dependent, so before sanitization a single NaN weight corrupted
// its whole plane nondeterministically. These tests pin the sanitized
// behaviour: NaN contributes 0, ±Inf clamps to the finite float32 range,
// and all outputs are finite and deterministic.

func nan32() float32 { return float32(math.NaN()) }
func inf32(sign int) float32 {
	return float32(math.Inf(sign))
}

func assertAllFinite(t *testing.T, vals []float32, label string) {
	t.Helper()
	for i, v := range vals {
		f := float64(v)
		if math.IsNaN(f) || math.IsInf(f, 0) {
			t.Fatalf("%s: non-finite output %v at %d", label, v, i)
		}
	}
}

func TestToUint8NaNInf(t *testing.T) {
	data := []float32{1, 2, nan32(), inf32(1), inf32(-1), 3, -4}
	pix1, scale1, zero1 := ToUint8(data)
	pix2, scale2, zero2 := ToUint8(data)
	// Deterministic across calls.
	if scale1 != scale2 || zero1 != zero2 {
		t.Fatalf("nondeterministic scale/zero: (%v,%v) vs (%v,%v)", scale1, zero1, scale2, zero2)
	}
	for i := range pix1 {
		if pix1[i] != pix2[i] {
			t.Fatalf("nondeterministic pixel %d: %d vs %d", i, pix1[i], pix2[i])
		}
	}
	// ±Inf clamp to the range extremes.
	if pix1[3] != 255 {
		t.Fatalf("+Inf mapped to %d, want 255", pix1[3])
	}
	if pix1[4] != 0 {
		t.Fatalf("-Inf mapped to %d, want 0", pix1[4])
	}
	// NaN behaves as value 0: near the middle of the ±MaxFloat32 range.
	if pix1[2] < 126 || pix1[2] > 129 {
		t.Fatalf("NaN mapped to %d, want ~127 (value 0 in a symmetric range)", pix1[2])
	}
	// Metadata finite, inversion produces no NaN.
	if math.IsNaN(float64(scale1)) || math.IsInf(float64(scale1), 0) ||
		math.IsNaN(float64(zero1)) || math.IsInf(float64(zero1), 0) {
		t.Fatalf("non-finite metadata: scale %v zero %v", scale1, zero1)
	}
	assertAllFinite(t, FromUint8(pix1, scale1, zero1), "FromUint8")
}

func TestToUint8AllNaN(t *testing.T) {
	data := []float32{nan32(), nan32(), nan32()}
	pix, scale, zero := ToUint8(data)
	if scale != 0 || zero != 0 {
		t.Fatalf("all-NaN: scale %v zero %v, want 0 0", scale, zero)
	}
	for i, p := range pix {
		if p != 0 {
			t.Fatalf("all-NaN: pixel %d = %d, want 0", i, p)
		}
	}
	assertAllFinite(t, FromUint8(pix, scale, zero), "FromUint8 all-NaN")
}

func TestToUint8NaNDoesNotShiftFiniteRange(t *testing.T) {
	// A NaN must not perturb the mapping of the finite values beyond
	// treating it as a 0 contribution to the range.
	clean := []float32{-1, -0.5, 0, 0.5, 1}
	dirty := append(append([]float32(nil), clean...), nan32())
	pixClean, sClean, zClean := ToUint8(clean)
	pixDirty, sDirty, zDirty := ToUint8(dirty)
	if sClean != sDirty || zClean != zDirty {
		t.Fatalf("NaN shifted the affine map: (%v,%v) vs (%v,%v)", sClean, zClean, sDirty, zDirty)
	}
	for i := range pixClean {
		if pixClean[i] != pixDirty[i] {
			t.Fatalf("NaN shifted pixel %d: %d vs %d", i, pixClean[i], pixDirty[i])
		}
	}
}

func TestRTNAsymmetricNaNInf(t *testing.T) {
	data := []float32{1, nan32(), -2, inf32(1), inf32(-1), 0.5}
	out := RTNAsymmetric(data, 4)
	assertAllFinite(t, out, "RTNAsymmetric")
	out2 := RTNAsymmetric(data, 4)
	for i := range out {
		if out[i] != out2[i] {
			t.Fatalf("nondeterministic at %d: %v vs %v", i, out[i], out2[i])
		}
	}
	// Groupwise path shares the same guard.
	gw, _ := RTNGroupwise(data, 4, 3)
	assertAllFinite(t, gw, "RTNGroupwise")
}

// TestMXFPSymbolsNaNInf: the MX kernel sanitizes before scaling. One +Inf in
// a full block used to give MXFPSymbols an infinite shared scale and a NaN in
// every element of that block.
func TestMXFPSymbolsNaNInf(t *testing.T) {
	block := randVals(rand.New(rand.NewSource(7)), MXBlockSize, 1)
	block[5] = inf32(1)
	for _, data := range [][]float32{{1, nan32(), -2, inf32(1), inf32(-1), 0.5}, block} {
		_, rec, _ := MXFPSymbols(data, MXFP8)
		assertAllFinite(t, rec, "MXFPSymbols")
	}
}

func TestMinMaxEmptyAndDegenerate(t *testing.T) {
	if lo, hi := MinMax(nil); lo != 0 || hi != 0 {
		t.Fatalf("empty minMax = (%v, %v), want (0, 0)", lo, hi)
	}
	if lo, hi := MinMax([]float32{nan32()}); lo != 0 || hi != 0 {
		t.Fatalf("NaN-only minMax = (%v, %v), want (0, 0)", lo, hi)
	}
	lo, hi := MinMax([]float32{inf32(-1), inf32(1)})
	if lo != -math.MaxFloat32 || hi != math.MaxFloat32 {
		t.Fatalf("Inf minMax = (%v, %v), want float32 extremes", lo, hi)
	}
}

// TestToUint8Equivalence holds ToUint8 and MinMax, on every kernel path, to
// toUint8Def and minMaxDef bit for bit — pixels, scale and zero, whose sign
// tells −0 from +0 — on NaN, ±Inf, ±0, subnormals and ±MaxFloat32 at every
// position, constant inputs, exact .5 ties of the map, ramps and random
// values at every length from 0 to 40 and at 1,000 and 1,003.
func TestToUint8Equivalence(t *testing.T) {
	nan, inf := float32(math.NaN()), float32(math.Inf(1))
	negZero := float32(math.Copysign(0, -1))
	specials := []float32{nan, inf, -inf, 0, negZero, math.MaxFloat32, -math.MaxFloat32, math.SmallestNonzeroFloat32, 1, -1}
	var inputs [][]float32
	rng := uint32(1)
	next := func() float32 {
		rng = rng*1664525 + 1013904223
		return float32(int32(rng)>>8) / (1 << 20)
	}
	for n := 0; n <= 40; n++ {
		ramp, random, ties := make([]float32, n), make([]float32, n), make([]float32, n)
		for i := range ramp {
			// ties: steps of ½ between ends 0 and 255, so the map's factor
			// is 1 and every odd step an exact tie.
			ramp[i], random[i], ties[i] = float32(i)-7, next(), float32(i%511)/2
		}
		if n > 1 {
			ties[0], ties[n-1] = 0, 255
		}
		inputs = append(inputs, ramp, random, ties)
		for _, c := range specials {
			constant := make([]float32, n)
			for i := range constant {
				constant[i] = c
			}
			inputs = append(inputs, constant)
			for i := 0; i < n; i++ {
				withRamp, withZeros := append([]float32(nil), ramp...), make([]float32, n)
				withRamp[i], withZeros[i] = c, c
				withZeros[(i+3)%n] = negZero
				inputs = append(inputs, withRamp, withZeros)
			}
		}
	}
	for _, n := range []int{1000, 1003} {
		random := make([]float32, n)
		for i := range random {
			random[i] = next()
		}
		random[n/3], random[n/2] = nan, -inf
		inputs = append(inputs, random)
	}
	same := func(a, b float32) bool { return math.Float32bits(a) == math.Float32bits(b) }
	for k, data := range inputs {
		wantPix, wantScale, wantZero := toUint8Def(data)
		wantLo, wantHi := minMaxDef(data)
		kernelPaths(func(simd bool) {
			pix, scale, zero := ToUint8(data)
			if !same(scale, wantScale) || !same(zero, wantZero) {
				t.Fatalf("input %d %v, simd %v: scale %v zero %v, definition %v %v", k, data, simd, scale, zero, wantScale, wantZero)
			}
			for i := range wantPix {
				if pix[i] != wantPix[i] {
					t.Fatalf("input %d %v, simd %v: pixel %d = %d, definition %d", k, data, simd, i, pix[i], wantPix[i])
				}
			}
			if lo, hi := MinMax(data); !same(lo, wantLo) || !same(hi, wantHi) {
				t.Fatalf("input %d %v, simd %v: MinMax (%v, %v), definition (%v, %v)", k, data, simd, lo, hi, wantLo, wantHi)
			}
		})
	}
}
