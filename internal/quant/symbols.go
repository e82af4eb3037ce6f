package quant

import "math"

// RTNSymbols quantizes data with group-wise asymmetric RTN (groupSize ≤ 0:
// one group) and additionally returns the integer level of every value as a
// byte symbol — the serialization that feeds the chained entropy-coding
// pipelines of §7.1 (quantize → symbols → Huffman/Deflate/LZ4/CABAC). bits
// must be ≤ 8. sideBits is the groups' FP16 scales and zero points, 32 a
// group; entropy coding replaces the `bits` part of the raw cost.
func RTNSymbols(data []float32, bits, groupSize int) (symbols []byte, rec []float32, sideBits int) {
	if bits < 1 || bits > 8 {
		panic("quant: RTNSymbols needs 1..8 bits")
	}
	codes := make([]uint16, len(data))
	rec, sideBits = rtnGroups(data, bits, groupSize, codes)
	symbols = make([]byte, len(data))
	for i, q := range codes {
		symbols[i] = byte(q)
	}
	return symbols, rec, sideBits
}

// MXBlockSize is the standard MX scaling-block length.
const MXBlockSize = 32

// MXFPSymbols quantizes data into the MX format: each block of MXBlockSize
// values shares an 8-bit power-of-two scale and elements are rounded to the
// format's grid. It returns one byte symbol per value (grid index with the
// sign in the top bit) for the chained entropy-coding pipelines, the
// dequantized values, and the blocks' shared scales in bits, 8 a block.
// Inputs are sanitized first (NaN as 0, ±Inf at the float32 extremes), so one
// non-finite value cannot turn its block's scale, and with it every element,
// into NaN.
func MXFPSymbols(data []float32, f *MXFPFormat) (symbols []byte, rec []float32, sideBits int) {
	symbols = make([]byte, len(data))
	rec = make([]float32, len(data))
	for start := 0; start < len(data); start += MXBlockSize {
		end := min(start+MXBlockSize, len(data))
		sideBits += 8
		var amax float64
		for _, v := range data[start:end] {
			if a := math.Abs(Sanitize(v)); a > amax {
				amax = a
			}
		}
		if amax == 0 {
			continue
		}
		// Shared scale: power of two putting amax at the top of the grid.
		scale := math.Ldexp(1, mxScaleExp(amax, f.Max()))
		for i := start; i < end; i++ {
			v := Sanitize(data[i]) / scale
			idx := f.nearestIndex(math.Abs(v))
			q, sym := f.grid[idx], byte(idx)
			if v < 0 {
				q, sym = -q, sym|0x80
			}
			symbols[i] = sym
			rec[i] = clampFinite32(q * scale)
		}
	}
	return symbols, rec, sideBits
}

// mxScaleExp is the smallest e with amax ≤ fmax·2^e, from math.Frexp's exact
// exponents (a rounded log₂ of amax/fmax misses an amax an ulp above fmax·2^k).
func mxScaleExp(amax, fmax float64) int {
	fa, ea := math.Frexp(amax)
	ff, ef := math.Frexp(fmax)
	if fa > ff {
		ea++
	}
	return ea - ef
}
