package quant

import (
	"math"
	"math/rand"
	"testing"
)

func TestRTNSymbolsMatchDequant(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	data := randVals(rng, 1000, 1)
	sym, rec, sideBits := RTNSymbols(data, 4, 128)
	if sideBits != 8*32 {
		t.Fatalf("side bits = %d, want 8 groups × 32", sideBits)
	}
	// The symbols must stay within the 4-bit alphabet and the
	// reconstruction must match plain groupwise RTN.
	for i, s := range sym {
		if s > 15 {
			t.Fatalf("symbol %d out of range: %d", i, s)
		}
	}
	plain, _ := RTNGroupwise(data, 4, 128)
	for i := range rec {
		if rec[i] != plain[i] {
			t.Fatalf("reconstruction differs from RTNGroupwise at %d", i)
		}
	}
}

func TestRTNSymbolsConstantGroup(t *testing.T) {
	data := make([]float32, 64)
	for i := range data {
		data[i] = 3
	}
	sym, rec, _ := RTNSymbols(data, 3, 32)
	for i := range rec {
		if rec[i] != 3 || sym[i] != 0 {
			t.Fatalf("constant group mishandled: rec %v sym %v", rec[i], sym[i])
		}
	}
}

// TestRTNSymbolsNaNInf: non-finite inputs must sanitize exactly like
// RTNGroupwise (NaN→0, ±Inf→±MaxFloat32) — a finite reconstruction equal to
// the groupwise one and an in-alphabet symbol, not byte(math.Round(NaN)).
func TestRTNSymbolsNaNInf(t *testing.T) {
	data := []float32{1, nan32(), -2, inf32(1), inf32(-1), 0.5}
	for _, group := range []int{3, 6, 0} {
		sym, rec, _ := RTNSymbols(data, 4, group)
		assertAllFinite(t, rec, "RTNSymbols")
		want, _ := RTNGroupwise(data, 4, group)
		for i := range rec {
			if rec[i] != want[i] {
				t.Fatalf("group %d: rec[%d] = %v, RTNGroupwise %v", group, i, rec[i], want[i])
			}
			if sym[i] > 15 {
				t.Fatalf("group %d: symbol %d out of the 4-bit alphabet: %d", group, i, sym[i])
			}
		}
		// NaN sits at value 0: its symbol is the level nearest 0 in its
		// group's range, the same level a literal 0 gets.
		zeroed := append([]float32(nil), data...)
		zeroed[1] = 0
		symZ, _, _ := RTNSymbols(zeroed, 4, group)
		if sym[1] != symZ[1] {
			t.Fatalf("group %d: NaN coded as %d, literal 0 as %d", group, sym[1], symZ[1])
		}
	}
}

func TestMXFPSymbolsSignAndScales(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	data := randVals(rng, 512, 2)
	sym, rec, sideBits := MXFPSymbols(data, MXFP6)
	if sideBits != 8*512/MXBlockSize {
		t.Fatalf("side bits = %d, want one 8-bit scale per block", sideBits)
	}
	// Sign bit must agree with the reconstruction sign.
	for i := range rec {
		if rec[i] < 0 && sym[i]&0x80 == 0 {
			t.Fatalf("negative value without sign bit at %d", i)
		}
		if rec[i] > 0 && sym[i]&0x80 != 0 {
			t.Fatalf("positive value with sign bit at %d", i)
		}
	}
}

// TestMXFPSharedExponent: a block's shared exponent is the smallest e with
// amax ≤ fmax·2^e — k for amax = fmax·2^k and for the float64 below it, k+1
// for the one above — for k in [−20, 20] and the element maxima of the MX
// formats here and of OCP's (7.5, 448, 57344, 28672).
func TestMXFPSharedExponent(t *testing.T) {
	for _, fmax := range []float64{MXFP4.Max(), MXFP6.Max(), MXFP8.Max(), 7.5, 448, 57344, 28672} {
		for k := -20; k <= 20; k++ {
			at := math.Ldexp(fmax, k)
			for amax, want := range map[float64]int{at: k, math.Nextafter(at, 0): k, math.Nextafter(at, math.Inf(1)): k + 1} {
				if got := mxScaleExp(amax, fmax); got != want {
					t.Errorf("fmax %v, k %d, amax %v: exponent %d, want %d", fmax, k, amax, got, want)
				}
			}
		}
	}
}
