package quant

import "math"

// RTNSymbols quantizes data with group-wise asymmetric RTN and additionally
// returns the integer level of every value as a byte symbol — the
// serialization that feeds the chained entropy-coding pipelines of §7.1
// (quantize → symbols → Huffman/Deflate/LZ4/CABAC). bits must be ≤ 8.
// The raw storage cost is bits per value plus 32 bits of FP16 scale+zero per
// group; entropy coding replaces the `bits` part.
func RTNSymbols(data []float32, bits, groupSize int) (symbols []byte, rec []float32, groups int) {
	if bits < 1 || bits > 8 {
		panic("quant: RTNSymbols needs 1..8 bits")
	}
	if groupSize <= 0 {
		groupSize = len(data)
	}
	symbols = make([]byte, len(data))
	rec = make([]float32, len(data))
	codes := make([]uint16, groupSize)
	for start := 0; start < len(data); start += groupSize {
		end := start + groupSize
		if end > len(data) {
			end = len(data)
		}
		groups++
		RTNGroup(data[start:end], bits, codes, rec[start:end])
		for i, q := range codes[:end-start] {
			symbols[start+i] = byte(q)
		}
	}
	return symbols, rec, groups
}

// MXFPSymbols quantizes data into the MX format and returns one byte symbol
// per value (grid index with the sign in the top bit) plus one scale byte
// per block, for the chained entropy-coding pipelines.
func MXFPSymbols(data []float32, f *MXFPFormat) (symbols []byte, rec []float32, scaleBytes int) {
	symbols = make([]byte, len(data))
	rec = make([]float32, len(data))
	for start := 0; start < len(data); start += MXBlockSize {
		end := start + MXBlockSize
		if end > len(data) {
			end = len(data)
		}
		scaleBytes++
		var amax float64
		for _, v := range data[start:end] {
			if a := math.Abs(float64(v)); a > amax {
				amax = a
			}
		}
		if amax == 0 {
			continue
		}
		e := math.Ceil(math.Log2(amax / f.Max()))
		scale := math.Pow(2, e)
		for i := start; i < end; i++ {
			v := float64(data[i]) / scale
			idx := f.nearestIndex(math.Abs(v))
			q := f.grid[idx]
			sym := byte(idx)
			if v < 0 {
				q = -q
				sym |= 0x80
			}
			symbols[i] = sym
			rec[i] = float32(q * scale)
		}
	}
	return symbols, rec, scaleBytes
}

// nearestIndex returns the grid index closest to |v|.
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
