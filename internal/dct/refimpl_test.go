package dct

import (
	"math"
	"math/bits"
	"math/rand"
	"testing"

	"repro/internal/cpufeat"
)

// The definitions the package's kernels are held to (DESIGN.md §11.1), one
// per kernel, each compared directly with every path of its kernel:
//
//	Forward (DCT and DST-VII)             denseForward: A·res·Aᵀ, one rounding shift
//	Inverse, InverseMasked                denseInverse: Aᵀ·coef·A, one rounding shift
//	Quantize                              quantizeBranchy
//	Dequantize                            dequantizeFormula
//	QuantizeDequantize, DequantizeMasked  those two, and exactMasks
//	SATD                                  refSATD: H·res·Hᵀ by plain products
//
// beside the inputs every transform test shares (forEachBlock) and the kernel
// paths they run on (kernelPaths).

// denseForward and denseInverse are the plain O(n³) products A·res·Aᵀ and
// Aᵀ·coef·A of the integer matrix mat: int64 sums, one rounding shift.
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
	out := make([]int32, n*n)
	for k := 0; k < n; k++ {
		for l := 0; l < n; l++ {
			var acc int64
			for j := 0; j < n; j++ {
				acc += tmp[k*n+j] * int64(mat[l*n+j])
			}
			out[k*n+l] = roundShift(acc, fwdShift)
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
		dst[i] = roundShift(v, invShift)
	}
}

// A refTransform is a transform the package builds beside the matrix its
// definition multiplies by.
type refTransform struct {
	name string
	tr   *Transform
	mat  []int32
}

func refTransforms() []refTransform {
	dst := make([]int32, 16)
	for i, v := range dstMat {
		dst[i] = int32(v)
	}
	return []refTransform{
		{"DCT n=4", NewDCT(4), dctMatrix(4)},
		{"DCT n=8", NewDCT(8), dctMatrix(8)},
		{"DCT n=16", NewDCT(16), dctMatrix(16)},
		{"DCT n=32", NewDCT(32), dctMatrix(32)},
		{"DST-VII", NewDST4(), dst},
	}
}

// quantizeBranchy and dequantizeFormula are the quantisers by their
// definitions: the dead-zone rounding with a branch on the sign, and the
// rounded product of level and step.
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

// exactMasks is the RowMasks of an n×n block by definition: bit l of row k
// set exactly when entry (k, l) is non-zero.
func exactMasks(block []int32, n int) RowMasks {
	var nz RowMasks
	for i, v := range block {
		if v != 0 {
			nz[i/n] |= 1 << uint(i%n)
		}
	}
	return nz
}

// refSATD is H·res·Hᵀ by plain products over the natural-order Hadamard matrix
// (Sylvester doubling), normalised as SATD documents. satd4/satd8's butterflies
// give the same transform up to a row permutation, which the sum of absolute
// coefficients does not see.
func refSATD(res []int32, n int) int64 {
	h := [][]int64{{1}}
	for len(h) < n {
		m := len(h)
		nh := make([][]int64, 2*m)
		for i := range nh {
			nh[i] = make([]int64, 2*m)
			for j := range nh[i] {
				nh[i][j] = h[i%m][j%m]
				if i >= m && j >= m {
					nh[i][j] = -nh[i][j]
				}
			}
		}
		h = nh
	}
	var sum int64
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			var s int64
			for k := 0; k < n; k++ {
				for l := 0; l < n; l++ {
					s += h[i][k] * int64(res[k*n+l]) * h[j][l]
				}
			}
			sum += max(s, -s)
		}
	}
	if n == 4 {
		return (sum + 1) >> 1
	}
	return (sum + 2) >> 2
}

// kernelPaths calls f once for each kernel path this host runs, with
// cpufeat.AVX2FMA set to select it: the pure-Go kernels (simd false) always,
// the float kernels (simd true) where the CPU has AVX2 and FMA. It restores
// the flag.
func kernelPaths(f func(simd bool)) {
	host := cpufeat.AVX2FMA
	defer func() { cpufeat.AVX2FMA = host }()
	for _, simd := range []bool{false, true} {
		if simd && !host {
			break
		}
		cpufeat.AVX2FMA = simd
		f(simd)
	}
}

func requireSameBlock(t testing.TB, got, want []int32, format string, args ...any) {
	t.Helper()
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf(format+": [%d] = %d, definition %d", append(args, i, got[i], want[i])...)
		}
	}
}

// scan is the magnitude scan of dct.go's Lanes over a block.
func scan(block []int32) int64 {
	var s int32
	for _, v := range block {
		s |= v ^ v>>31
	}
	return int64(s)
}

// The guards. A pass switches paths at a magnitude scan: the paired passes at
// laneLimit (dct.go, "Lanes"), and for n ≥ 8 Forward and the inverse at their
// float kernels' limits (gemm.go).

func guardLimits(n int) []int64 {
	bf := &butterflies[bits.TrailingZeros(uint(n))-2]
	if n == 4 {
		return []int64{bf.laneLimit}
	}
	return []int64{bf.laneLimit, bf.fwdLimit, bf.invLimit}
}

// guardEdges are the (positive, negative) magnitudes a guard of limit L is
// tried at: each side of it; L with its negatives one larger (the largest
// magnitude a scan of L hides); odd values up to twice L and beyond (an odd a
// has a|(a−1) = a, so a block of ±a scans as exactly a: these are the ones a
// doubled limit would wrongly take), capped at the int32 range.
func guardEdges(limit int64) [][2]int32 {
	clamp := func(v int64) int32 { return int32(min(v, math.MaxInt32)) }
	edges := [][2]int32{{clamp(limit), clamp(limit + 1)}, {clamp(limit + 1), clamp(limit + 2)}}
	for _, a := range []int64{limit - 1, limit, limit + 1, limit + 2, (limit + limit/2) | 1, 2*limit - 1, 2*limit + 1, 4*limit + 1} {
		edges = append(edges, [2]int32{clamp(a), clamp(a)})
	}
	return edges
}

// widest returns the row and the column of the n-point DCT matrix with the
// largest L1 norm, and the row's norm.
func widest(mat []int32, n int) (row, col int, rowL1 int64) {
	var colL1 int64
	for k := 0; k < n; k++ {
		var r, c int64
		for j := 0; j < n; j++ {
			r += int64(max(mat[k*n+j], -mat[k*n+j]))
			c += int64(max(mat[j*n+k], -mat[j*n+k]))
		}
		if r > rowL1 {
			rowL1, row = r, k
		}
		if c > colL1 {
			colL1, col = c, k
		}
	}
	return row, col, rowL1
}

// signsOf returns ±1 per entry of row k of mat, or of column k: the vector
// that row or column sums to its L1 norm.
func signsOf(mat []int32, n, k int, column bool) []int32 {
	s := make([]int32, n)
	for j := range s {
		v := mat[k*n+j]
		if column {
			v = mat[j*n+k]
		}
		s[j] = 1 | v>>31
	}
	return s
}

// guardBlock fills block with sign pattern s at magnitude pos where the sign
// is +1 and neg where it is −1 (times pol): outer, the sign s[i]·s[j], drives
// output (w, w) of both passes to max|input|·L1² when s is row or column w's,
// the float kernels' worst case; rows, the sign s[j] in every row, drives pass
// 1 of every row pair to max|input|·L1, the paired passes' worst case.
func guardBlock(block, s []int32, outer bool, pol, pos, neg int32) {
	n := len(s)
	for i := range block {
		sign := pol * s[i%n]
		if outer {
			sign *= s[i/n]
		}
		block[i] = pos
		if sign < 0 {
			block[i] = -neg
		}
	}
}

// guardSigns are the sign patterns of the widest row and the widest column of
// the n-point DCT matrix: the worst cases of the forward and the inverse pass.
func guardSigns(n int) [2][]int32 {
	mat := dctMatrix(n)
	row, col, _ := widest(mat, n)
	return [2][]int32{signsOf(mat, n, row, false), signsOf(mat, n, col, true)}
}

// forEachBlock calls f with every n×n block the transform tests feed their
// kernels, the same blocks to both directions (block is reused between calls):
//
//   - each guard at its edges (guardLimits, guardEdges, guardSigns): the
//     worst-case blocks of guardBlock in both polarities; the rows block cut to
//     1, 2, 3 and n−1 non-zero rows (how pass 1 of the inverse pairs them);
//     mixed pairs — one row of each in residual range, or a guard row on the
//     low columns beside a sparse row on the high ones (a pair under two
//     masks); thinned, single-row, single-column and random blocks at the
//     same magnitudes;
//   - pass 2's worst case for the paired passes: the outer product a·s[i]·u[j]
//     swept from far inside laneLimit to four times it, whole and with all but
//     one column cut to a third, while pass 1 stays packed;
//   - at magnitudes from 1 through residuals, levels and wrap-sized values:
//     random, random signs, 90 % sparse, thinned at a drawn density (masks on
//     both sides of every level's dense/sparse threshold), a low-frequency
//     corner, one row, one column, one coefficient, DC only, and a random
//     block through a QP 30 quantisation round trip — the sparse ones after a
//     dense block, so that a pass that skips rows must not read an earlier
//     block's;
//   - for n = 4, every row pattern over {−255, 0, 255} in every row and every
//     column position, the rest from the same corners.
func forEachBlock(n int, f func(block []int32, what string)) {
	rng := rand.New(rand.NewSource(int64(20 + n)))
	block := make([]int32, n*n)
	fill := func(keep func(i int) bool, amp int32) {
		for i := range block {
			block[i] = 0
			if keep(i) {
				block[i] = int32(rng.Int63n(2*int64(amp)+1) - int64(amp))
			}
		}
	}
	all := func(int) bool { return true }
	signs := guardSigns(n)
	for _, limit := range guardLimits(n) {
		for si, s := range signs {
			for _, e := range guardEdges(limit) {
				pos, neg := e[0], e[1]
				for _, pol := range []int32{1, -1} {
					guardBlock(block, s, true, pol, pos, neg)
					f(block, "outer guard block")
					guardBlock(block, s, false, pol, pos, neg)
					f(block, "rows guard block")
				}
				perm := rng.Perm(n)
				for _, count := range []int{1, 2, 3, n - 1} {
					guardBlock(block, s, false, 1, pos, neg)
					for _, k := range perm[count:] {
						clear(block[k*n:][:n])
					}
					f(block, "rows guard block, some rows")
				}
				for odd := 0; odd < 2; odd++ {
					guardBlock(block, s, false, -1, pos, neg)
					for i := range block {
						if i/n%2 == odd {
							block[i] = int32(rng.Intn(511) - 255)
						}
					}
					f(block, "rows guard block beside residual rows")
				}
				clear(block)
				k0, k1 := rng.Intn(n/2), n/2+rng.Intn(n/2)
				for l := 0; l < n/2; l++ {
					block[k0*n+l] = pos * s[l]
				}
				block[k1*n+n-1], block[k1*n+n/2] = 77, -5
				f(block, "guard row on the low columns beside a sparse row on the high ones")
				guardBlock(block, s, si == 0, 1, pos, neg)
				for i := range block {
					if rng.Intn(4) != 0 {
						block[i] = 0
					}
				}
				f(block, "thinned guard block")
				row, col := rng.Intn(n), rng.Intn(n)
				fill(func(i int) bool { return i/n == row }, pos)
				f(block, "guard magnitude, one row")
				fill(func(i int) bool { return i%n == col }, pos)
				f(block, "guard magnitude, one column")
				fill(all, pos)
				f(block, "guard magnitude, random")
			}
		}
	}
	// res[i][j] = a·s[i]·u[j] puts a·L1·s[i] down column wide of the
	// intermediate, aligned with a row of A, u the signs of row wide.
	mat := dctMatrix(n)
	wide, _, l1 := widest(mat, n)
	u := signsOf(mat, n, wide, false)
	top := int32(4 * butterflies[bits.TrailingZeros(uint(n))-2].laneLimit / l1)
	for _, k1 := range []int{wide, 1, n - 1} {
		s := signsOf(mat, n, k1, false)
		for a := int32(1); a <= top; a += 1 + top/31 {
			for i := range block {
				block[i] = a * s[i/n] * u[i%n]
			}
			f(block, "pass-2 outer product")
			for i := range block {
				if i%n != wide {
					block[i] /= 3
				}
			}
			f(block, "pass-2 outer product, one column whole")
		}
	}
	for _, amp := range []int32{1, 40, 255, 511, 1 << 12, 1 << 18, 1 << 20, 1<<30 - 1, math.MaxInt32 / 2} {
		for trial := 0; trial < 3; trial++ {
			dense := func() {
				fill(all, amp)
				f(block, "dense random")
			}
			dense()
			for i := range block {
				block[i] = amp - 2*amp*int32(rng.Intn(2))
			}
			f(block, "random signs")
			fill(func(int) bool { return rng.Intn(10) == 0 }, amp)
			f(block, "90 % sparse")
			p := rng.Intn(101)
			fill(func(int) bool { return rng.Intn(100) < p }, amp)
			f(block, "thinned")
			ext := 1 + rng.Intn(n/2)
			fill(func(i int) bool { return i/n < ext && i%n < ext && rng.Intn(2) == 0 }, amp)
			f(block, "low-frequency corner")
			row, col, at := rng.Intn(n), rng.Intn(n), rng.Intn(n*n)
			for _, one := range []struct {
				what string
				keep func(i int) bool
			}{
				{"one row", func(i int) bool { return i/n == row }},
				{"one column", func(i int) bool { return i%n == col }},
				{"one coefficient", func(i int) bool { return i == at }},
				{"DC only", func(i int) bool { return i == 0 }},
			} {
				dense()
				fill(one.keep, amp)
				f(block, one.what)
			}
			fill(all, amp)
			Quantize(block, block, 30)
			Dequantize(block, block, 30)
			f(block, "QP 30 round trip")
		}
	}
	if n == 4 {
		corner := [3]int32{-255, 0, 255}
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
					f(block, "4×4 corner")
				}
			}
		}
	}
}
