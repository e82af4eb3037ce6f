// Package quant implements the scalar quantizers LLM.265 is compared against
// and composed with: round-to-nearest (RTN) quantization in asymmetric
// and group-wise forms, 8-bit conversion for the codec front-end,
// and microscaling floating-point (MXFP) formats.
package quant

import (
	"fmt"
	"math"
	"slices"

	"repro/internal/cpufeat"
)

// Sanitize maps a possibly non-finite input value onto the finite float64
// range: NaN becomes 0 (a NaN weight must not poison range statistics or
// quantize to platform-dependent garbage — math.Round(NaN) fails every clamp
// comparison and uint8(NaN) is unspecified in Go), and ±Inf clamps to the
// largest finite float32 magnitude.
func Sanitize(v float32) float64 {
	f := float64(v)
	switch {
	case math.IsNaN(f):
		return 0
	case math.IsInf(f, 1):
		return math.MaxFloat32
	case math.IsInf(f, -1):
		return -math.MaxFloat32
	}
	return f
}

// RTNAsymmetric quantizes with a min-max affine mapping (zero-point
// quantization), returning the dequantized values.
func RTNAsymmetric(data []float32, bits int) []float32 {
	out := make([]float32, len(data))
	RTNGroup(data, bits, nil, out)
	return out
}

// RTNGroup is the one asymmetric round-to-nearest kernel every group-wise
// RTN consumer shares (RTNGroupwise, RTNSymbols, the allreduce RTN wire
// codec): it scans data for its sanitized range [lo, hi], quantizes every
// value to a level code in [0, 2^bits−1] and writes the reconstruction
// lo + code·(hi−lo)/(2^bits−1) into rec. codes may be nil when only the
// reconstruction is wanted. A constant group codes as all zeros and
// reconstructs as lo.
func RTNGroup(data []float32, bits int, codes []uint16, rec []float32) (lo, hi float32) {
	if bits < 1 || bits > 16 {
		panic(fmt.Sprintf("quant: bits %d out of range", bits))
	}
	lo, hi = MinMax(data)
	if hi == lo {
		for i := range data {
			if codes != nil {
				codes[i] = 0
			}
			rec[i] = lo
		}
		return lo, hi
	}
	levels := float64(int64(1)<<bits) - 1
	scale := (float64(hi) - float64(lo)) / levels
	for i, v := range data {
		q := math.Round((Sanitize(v) - float64(lo)) / scale)
		if q < 0 {
			q = 0
		}
		if q > levels {
			q = levels
		}
		if codes != nil {
			codes[i] = uint16(q)
		}
		rec[i] = float32(float64(lo) + float64(q*scale))
	}
	return lo, hi
}

// RTNGroupwise applies asymmetric RTN independently to groups of groupSize
// consecutive values — all of data when groupSize ≤ 0 (the "-128G"
// configurations in the paper's Table 1 use 128). It returns the dequantized
// values and the effective storage cost in bits per value, accounting for
// one FP16 scale and FP16 zero-point per group.
func RTNGroupwise(data []float32, bits, groupSize int) ([]float32, float64) {
	rec, sideBits := rtnGroups(data, bits, groupSize, nil)
	return rec, float64(bits) + float64(sideBits)/float64(len(data))
}

// rtnGroups is the group loop under RTNGroupwise and RTNSymbols: RTNGroup on
// every run of groupSize values (all of data when groupSize ≤ 0), writing the
// level codes too when codes is non-nil. sideBits is what the groups' FP16
// scales and zero points take: 32 a group.
func rtnGroups(data []float32, bits, groupSize int, codes []uint16) (rec []float32, sideBits int) {
	if groupSize <= 0 {
		groupSize = len(data)
	}
	rec = make([]float32, len(data))
	for start := 0; start < len(data); start += groupSize {
		end := min(start+groupSize, len(data))
		var c []uint16
		if codes != nil {
			c = codes[start:end]
		}
		RTNGroup(data[start:end], bits, c, rec[start:end])
		sideBits += 32
	}
	return rec, sideBits
}

// MinMax scans for the finite value range: NaN entries contribute nothing
// (they behave as 0 after sanitization) and ±Inf clamps to the float32
// extremes, so the result is always finite. Empty or all-degenerate input
// yields (0, 0). Of equal extremes the first is kept, which tells −0 from
// +0. On AVX2 the whole multiples of eight are scanned in float32 lanes
// (minMaxAVX2), which do not keep the first of two zeros, so a zero extreme is
// then re-read as the first value that sanitizes to zero.
func MinMax(data []float32) (lo, hi float32) {
	if len(data) == 0 {
		return 0, 0
	}
	lo64, hi64 := math.Inf(1), math.Inf(-1)
	n := 0
	if cpufeat.AVX2FMA && len(data) >= 8 {
		n = len(data) &^ 7
		l, h := minMaxAVX2(&data[0], n)
		lo64, hi64 = float64(l), float64(h)
	}
	for _, v := range data[n:] {
		f := Sanitize(v)
		if f < lo64 {
			lo64 = f
		}
		if f > hi64 {
			hi64 = f
		}
	}
	if n > 0 && (lo64 == 0 || hi64 == 0) {
		z := firstZero(data)
		if lo64 == 0 {
			lo64 = z
		}
		if hi64 == 0 {
			hi64 = z
		}
	}
	return float32(lo64), float32(hi64)
}

// firstZero is the sanitized value, +0 or −0, of data's first element that
// sanitizes to zero; data must hold one.
func firstZero(data []float32) float64 {
	for _, v := range data {
		if f := Sanitize(v); f == 0 {
			return f
		}
	}
	panic("quant: no zero")
}

// ToUint8 maps data onto [0, 255] with an affine min-max transform, returning
// the pixels plus the scale and zero needed to invert: v ≈ zero + scale·pix.
// This is the codec front-end conversion (§3.2: "FP16 values need to be
// first rounded to 8 bits ... before feeding to HEVC codec").
//
// Degenerate inputs are deterministic on every platform: NaN values are
// treated as 0 (mapped to the pixel nearest value 0 within the finite range)
// and ±Inf clamps to the largest finite float32 magnitude, so one bad weight
// can no longer corrupt a whole plane nondeterministically.
func ToUint8(data []float32) (pix []uint8, scale, zero float32) {
	lo, hi := MinMax(data)
	pix = make([]uint8, len(data))
	if hi == lo {
		return pix, 0, lo
	}
	s := (float64(hi) - float64(lo)) / 255
	inv := 1 / s
	n := 0
	if cpufeat.AVX2FMA && len(data) >= 8 {
		n = len(data) &^ 7
		toUint8AVX2(&pix[0], &data[0], n, float64(lo), inv)
	}
	for i, v := range data[n:] {
		q := math.Round((Sanitize(v) - float64(lo)) * inv)
		if q < 0 {
			q = 0
		}
		if q > 255 {
			q = 255
		}
		pix[n+i] = uint8(q)
	}
	return pix, float32(s), lo
}

// FromUint8 inverts ToUint8. The common case evaluates the affine map in
// float32, bit-identical to the historical behaviour; only if that overflows
// — extreme scales produced by ±Inf-laced inputs whose range clamps to
// ±MaxFloat32 — is the element re-evaluated in float64 and clamped to the
// finite float32 range, so the reconstruction can never contain ±Inf.
func FromUint8(pix []uint8, scale, zero float32) []float32 {
	out := make([]float32, len(pix))
	FromUint8Into(out, pix, scale, zero)
	return out
}

// FromUint8Into is FromUint8 writing into dst, which must be at least as long
// as pix.
func FromUint8Into(dst []float32, pix []uint8, scale, zero float32) {
	dst = dst[:len(pix)]
	s, z := float64(scale), float64(zero)
	for i, p := range pix {
		v := zero + float32(scale*float32(p))
		if f := float64(v); math.IsInf(f, 0) || math.IsNaN(f) {
			v = clampFinite32(z + float64(s*float64(p)))
		}
		dst[i] = v
	}
}

// clampFinite32 converts a float64 to float32, clamping to the finite range.
func clampFinite32(v float64) float32 {
	if v > math.MaxFloat32 {
		return math.MaxFloat32
	}
	if v < -math.MaxFloat32 {
		return -math.MaxFloat32
	}
	return float32(v)
}

// MXFPFormat describes a microscaling floating-point element format
// (exponent/mantissa bit split), per the OCP MX spec the paper cites [67].
type MXFPFormat struct {
	Name    string
	ExpBits int
	ManBits int
	grid    []float64 // positive representable magnitudes, ascending
}

// Standard MX element formats.
var (
	MXFP4 = newMXFPFormat("MXFP4", 2, 1)
	MXFP6 = newMXFPFormat("MXFP6", 3, 2)
	MXFP8 = newMXFPFormat("MXFP8", 4, 3)
)

func newMXFPFormat(name string, e, m int) *MXFPFormat {
	f := &MXFPFormat{Name: name, ExpBits: e, ManBits: m}
	bias := 1<<(e-1) - 1
	seen := map[float64]bool{}
	// Subnormals: exponent field 0 → value = mant/2^m · 2^(1-bias).
	for mant := 0; mant < 1<<m; mant++ {
		v := float64(mant) / float64(int(1)<<m) * math.Pow(2, float64(1-bias))
		if !seen[v] {
			seen[v] = true
			f.grid = append(f.grid, v)
		}
	}
	// Normals.
	for exp := 1; exp < 1<<e; exp++ {
		for mant := 0; mant < 1<<m; mant++ {
			v := (1 + float64(mant)/float64(int(1)<<m)) * math.Pow(2, float64(exp-bias))
			if !seen[v] {
				seen[v] = true
				f.grid = append(f.grid, v)
			}
		}
	}
	slices.Sort(f.grid)
	return f
}

// Max reports the largest representable magnitude.
func (f *MXFPFormat) Max() float64 { return f.grid[len(f.grid)-1] }

// nearestIndex returns the index of the grid magnitude closest to v ≥ 0.
func (f *MXFPFormat) nearestIndex(v float64) int {
	lo, hi := 0, len(f.grid)-1
	for lo < hi {
		mid := (lo + hi) / 2
		if f.grid[mid] < v {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	if lo > 0 && v-f.grid[lo-1] < f.grid[lo]-v {
		return lo - 1
	}
	return lo
}

// MSE computes the mean squared error between two equal-length slices.
func MSE(a, b []float32) float64 {
	if len(a) != len(b) {
		panic("quant: MSE length mismatch")
	}
	var s float64
	for i := range a {
		d := float64(a[i]) - float64(b[i])
		s += float64(d * d)
	}
	return s / float64(len(a))
}

// MAE computes the mean absolute error between two equal-length slices.
func MAE(a, b []float32) float64 {
	if len(a) != len(b) {
		panic("quant: MAE length mismatch")
	}
	var s float64
	for i := range a {
		s += math.Abs(float64(a[i]) - float64(b[i]))
	}
	return s / float64(len(a))
}
