// Package dct implements the transform-coding stage of the codec: integer
// DCT-II transforms of sizes 4, 8, 16 and 32 (plus the DST-VII used for 4×4
// intra blocks, mirroring HEVC), together with the QP-driven scalar quantizer
// Qstep = 2^((QP-4)/6).
//
// Convention. Each transform holds a fixed-point version of the orthonormal
// transform matrix, A = round(D · 2^matrixBits) where D is orthonormal. The
// forward transform returns coefficients scaled by 2^coefBits relative to the
// orthonormal transform of the input, and the inverse undoes both scales.
// Keeping the matrices orthonormal (rather than HEVC's hand-tuned integers)
// preserves the energy-compaction behaviour the paper analyzes (§3.1,
// Fig. 3) while making round-trip bounds easy to reason about.
//
// Kernels. The DCT passes are HEVC-style even/odd partial butterflies over
// that same matrix A, not a different transform (DESIGN.md §11, "Kernels").
// Rounding keeps the cosine symmetry A[k][n−1−j] = (−1)ᵏ·A[k][j], and the
// even rows restricted to the first n/2 columns keep it again at length n/2,
// so a length-n pass folds its input into sums and differences, multiplies
// the differences by the (n/2)×(n/2) odd-row sub-matrix and recurses on the
// sums: ≈ n²/3 multiplies instead of n². Because the rounded half-size matrix
// is not the even rows of the rounded full-size one (HEVC's hand-tuned
// matrices nest; round(D·2¹⁰) does not), every size cuts its own per-level
// odd sub-matrices from its own A. All sums are int64 and the only rounding
// is the final shift, so the butterfly computes the same polynomial in the
// inputs as the dense product A·X·Aᵀ; two's-complement arithmetic is a ring,
// so the outputs are bit-identical to the dense product for every input,
// including decoder inputs large enough to wrap. Range, for the record: a
// row of A has L1 norm ≤ √n·2¹⁰, so |res| ≤ 255 gives forward pass-1 sums
// < 2²¹ and pass-2 sums < 2³⁴, far inside int64; the inverse makes no range
// assumption because the decoder feeds it untrusted levels. The dense product
// is the definition (refimpl_test.go). The 4×4 DST-VII has no such symmetry
// and stays a plain 4×4 matrix product. On amd64 with AVX2 and FMA, the DCTs
// of n = 8, 16 and 32 run as float64 matrix products instead whenever a block
// is small enough for them to be exact (gemm.go), which every encoder block is.
package dct

import (
	"fmt"
	"math"
	"math/bits"

	"repro/internal/cpufeat"
)

const (
	matrixBits = 10 // fractional bits in the fixed-point transform matrices
	coefBits   = 6  // coefficients carry an extra 2^6 scale vs orthonormal

	maxN = 32 // largest transform edge
)

// butterfly is the even/odd factorisation of one DCT size: read-only after
// init and shared by every Transform of that size.
type butterfly struct {
	n      int
	levels int // folds above the 4-point tail: log2(n)−2, len of odd in use
	// odd[lv] is the h×h sub-matrix the level-lv fold multiplies its
	// differences by, h = n>>(lv+1): row m holds A[(2m+1)<<lv][0:h]. Levels
	// with h ≥ 4 only; the last two folds are the straight-line 4-point tail.
	// Each is symmetric — (2m+1)(2j+1) is, in the cosine's argument — so the
	// inverse, which needs the transpose, reads the same rows.
	odd [3][]int64
	// The 4-point tail at coefficient stride s = n/4: dc = A[0][0] (row 0 is
	// constant), mid = A[2s][0], and the 2×2 odd block a1 = A[s][0:2],
	// a3 = A[3s][0:2].
	dc, mid int64
	a1, a3  [2]int64
	// laneLimit is the largest magnitude scan (see the lanes comment below)
	// under which a pass may carry two vectors through forward or inverse at
	// once.
	laneLimit int64
	// fold and unfold are A's left half as float64 panels for foldAVX2 and
	// unfoldAVX2, and fwdLimit and invLimit the magnitude scans under which
	// Forward and the inverse may take them through the float kernels
	// (gemm.go).
	fold, unfold       []float64
	fwdLimit, invLimit int64
}

// butterflies holds the tables for n = 4, 8, 16, 32 at index log2(n)−2.
var butterflies [4]butterfly

// levelBits[lv] selects the coefficient indices k = (2m+1)<<lv — the rows
// whose odd sub-matrix belongs to level lv.
var levelBits = [3]uint32{0xAAAAAAAA, 0x44444444, 0x10101010}

// dstMat is the 4×4 DST-VII matrix round(S·2^matrixBits), row-major, and
// dstMatT its transpose.
var dstMat, dstMatT [16]int64

func init() {
	for i := range butterflies {
		butterflies[i] = newButterfly(dctMatrix(4<<i), 4<<i)
	}
	const n = 4
	for k := 0; k < n; k++ {
		for j := 0; j < n; j++ {
			v := 2 / math.Sqrt(2*float64(n)+1) *
				math.Sin(float64(2*j+1)*float64(k+1)*math.Pi/float64(2*n+1))
			dstMat[k*n+j] = int64(math.Round(v * (1 << matrixBits)))
			dstMatT[j*n+k] = dstMat[k*n+j]
		}
	}
}

// dctMatrix returns A = round(D·2^matrixBits) for the orthonormal n-point
// DCT-II D, row-major.
func dctMatrix(n int) []int32 {
	mat := make([]int32, n*n)
	for k := 0; k < n; k++ {
		ck := 1.0
		if k == 0 {
			ck = math.Sqrt(0.5)
		}
		for j := 0; j < n; j++ {
			v := math.Sqrt(2/float64(n)) * ck *
				math.Cos(float64(2*j+1)*float64(k)*math.Pi/float64(2*n))
			mat[k*n+j] = int32(math.Round(v * (1 << matrixBits)))
		}
	}
	return mat
}

// newButterfly cuts the per-level odd sub-matrices out of mat, checking the
// symmetry each fold relies on — at level lv the rows k = r<<lv restricted to
// the first L = n>>lv columns must satisfy A[k][L−1−j] = (−1)ʳ·A[k][j] — and
// that each sub-matrix equals its transpose, which the inverse relies on.
func newButterfly(mat []int32, n int) butterfly {
	b := butterfly{n: n, levels: bits.TrailingZeros(uint(n)) - 2}
	at := func(k, j int) int64 { return int64(mat[k*n+j]) }
	for lv, L := 0, n; L > 1; lv, L = lv+1, L/2 {
		h := L / 2
		for r := 0; r < L; r++ {
			for j := 0; j < h; j++ {
				want := at(r<<lv, j)
				if r%2 == 1 {
					want = -want
				}
				if at(r<<lv, L-1-j) != want {
					panic(fmt.Sprintf("dct: n=%d matrix row %d breaks the even/odd symmetry at level %d", n, r<<lv, lv))
				}
			}
		}
		if h < 4 {
			continue
		}
		b.odd[lv] = make([]int64, h*h)
		for m := 0; m < h; m++ {
			for j := 0; j < h; j++ {
				b.odd[lv][m*h+j] = at((2*m+1)<<lv, j)
				if at((2*j+1)<<lv, m) != b.odd[lv][m*h+j] {
					panic(fmt.Sprintf("dct: n=%d odd sub-matrix of level %d is not symmetric at (%d, %d)", n, lv, m, j))
				}
			}
		}
	}
	s := n / 4
	b.dc, b.mid = at(0, 0), at(2*s, 0)
	b.a1 = [2]int64{at(s, 0), at(s, 1)}
	b.a3 = [2]int64{at(3*s, 0), at(3*s, 1)}
	// forward sums along rows of A and inverse along its columns, so the
	// largest L1 norm of either bounds every output of both per unit of input.
	var l1 int64
	for k := 0; k < n; k++ {
		var row, col int64
		for j := 0; j < n; j++ {
			row += max(at(k, j), -at(k, j))
			col += max(at(j, k), -at(j, k))
		}
		l1 = max(l1, row, col)
	}
	b.laneLimit = math.MaxInt32/l1 - 1
	if b.laneLimit < 1<<8 {
		panic(fmt.Sprintf("dct: n=%d lane limit %d would send 8-bit residuals down the unpacked path", n, b.laneLimit))
	}
	b.fwdLimit, b.invLimit = gemmLimit(l1, fwdShift), gemmLimit(l1, invShift)
	// The panels' layouts are the kernels' (gemm_amd64.s): fold[r][j][q] =
	// A[8r+q][j], unfold[r][m][q] = A[2m+q/4][4r+q%4], for j, m < n/2.
	b.fold, b.unfold = make([]float64, n*n/2), make([]float64, n*n/2)
	for r := 0; r < n/8; r++ {
		for j := 0; j < n/2; j++ {
			for q := 0; q < 8; q++ {
				b.fold[(r*n/2+j)*8+q] = float64(at(8*r+q, j))
				b.unfold[(r*n/2+j)*8+q] = float64(at(2*j+q/4, 4*r+q%4))
			}
		}
	}
	return b
}

// Lanes. forward and inverse are linear maps over ℤ computed in int64 with no
// rounding, and two's-complement int64 is a ring, so feeding them the packed
// vector x[j] = p[j] + q[j]<<32 yields exactly (A·p)[k] + (A·q)[k]<<32 mod 2⁶⁴
// whatever the intermediate sums borrow from each other — one butterfly for
// two vectors. The packed output splits back uniquely as long as both true
// outputs fit an int32: lo = int64(int32(v)) is then A·p, and (v−lo)>>32 is
// A·q. Every |output| ≤ max|input|·L1, L1 the largest absolute row or column
// sum of A, so a pair is packed when its inputs' magnitude scan is within
// laneLimit and otherwise goes through the same function one vector at a time.
//
// The scan ORs v ^ v>>31 (v>>63 for int64) over the pair's inputs. For v ≥ 0
// that term is v and for v < 0 it is −v−1, one short of |v|; the OR of
// non-negative terms is at least each of them and below twice the largest. So
// a scan ≤ laneLimit proves max|input| ≤ laneLimit+1 (the error that matters:
// the limit is (2³¹−1)/L1 − 1, giving |output| ≤ (laneLimit+1)·L1 ≤ 2³¹−1),
// while a scan above it may belong to inputs as small as laneLimit/2 (the
// harmless error: those pairs take the unpacked path). laneLimit+1 < 2²¹, so
// q<<32 and the packed sum are far inside int64 too.

// packRows packs rows p and q into x[j] = p[j] + q[j]<<32 and returns their
// magnitude scan.
func packRows(x *[maxN]int64, p, q []int32) int64 {
	var scan int32
	q = q[:len(p)]
	for j, a := range p {
		b := q[j]
		scan |= (a ^ a>>31) | (b ^ b>>31)
		x[j] = int64(a) + int64(b)<<32
	}
	return int64(scan)
}

// The odd sub-matrix products, unrolled over fixed-size arrays: straight-line
// code with no bounds checks is what makes the butterfly pay in Go — the same
// arithmetic as a loop over slices ran 1.7× slower. There is no dot16: it
// would be past the inliner's budget, and sixteen calls per 32-point vector
// cost the inverse 9 %, so its two call sites spell out the pair of dot8s.

func dot4(a, x *[4]int64) int64 {
	return a[0]*x[0] + a[1]*x[1] + a[2]*x[2] + a[3]*x[3]
}

func dot8(a, x *[8]int64) int64 {
	return a[0]*x[0] + a[1]*x[1] + a[2]*x[2] + a[3]*x[3] + a[4]*x[4] + a[5]*x[5] + a[6]*x[6] + a[7]*x[7]
}

func axpy4(o, a *[4]int64, c int64) {
	o[0] += c * a[0]
	o[1] += c * a[1]
	o[2] += c * a[2]
	o[3] += c * a[3]
}

func axpy8(o, a *[8]int64, c int64) {
	o[0] += c * a[0]
	o[1] += c * a[1]
	o[2] += c * a[2]
	o[3] += c * a[3]
	o[4] += c * a[4]
	o[5] += c * a[5]
	o[6] += c * a[6]
	o[7] += c * a[7]
}

func axpy16(o, a *[16]int64, c int64) {
	axpy8((*[8]int64)(o[:8]), (*[8]int64)(a[:8]), c)
	axpy8((*[8]int64)(o[8:]), (*[8]int64)(a[8:]), c)
}

// fold replaces x[0:L] by its sums x[j]+x[L−1−j] in x[0:L/2] and puts the
// differences x[j]−x[L−1−j] in o[0:L/2].
func fold(x *[maxN]int64, o *[maxN / 2]int64, L int) {
	for j := 0; j < L/2; j++ {
		p, q := x[j], x[(L-1-j)&(maxN-1)]
		x[j], o[j] = p+q, p-q
	}
}

// unfold is fold's inverse-side twin: x[0:L/2] holds the even part e, and
// x[0:L] becomes e[j]+o[j] followed by e[j]−o[j] mirrored.
func unfold(x *[maxN]int64, o *[maxN / 2]int64, L int) {
	for j := 0; j < L/2; j++ {
		e := x[j]
		x[j], x[(L-1-j)&(maxN-1)] = e+o[j], e-o[j]
	}
}

// forward computes y = A·x for one length-n vector, clobbering x. o is
// workspace (the caller's, so that it is not zeroed once per vector).
func (b *butterfly) forward(y, x *[maxN]int64, o *[maxN / 2]int64) {
	lv := 0
	if b.n == 32 {
		fold(x, o, 32)
		for m := 0; m < 16; m++ {
			a := (*[16]int64)(b.odd[0][m*16:])
			y[2*m+1] = dot8((*[8]int64)(a[:8]), (*[8]int64)(o[:8])) + dot8((*[8]int64)(a[8:]), (*[8]int64)(o[8:]))
		}
		lv++
	}
	if b.n >= 16 {
		fold(x, o, 16)
		for m := 0; m < 8; m++ {
			y[((2*m+1)<<lv)&(maxN-1)] = dot8((*[8]int64)(b.odd[lv][m*8:]), (*[8]int64)(o[:8]))
		}
		lv++
	}
	if b.n >= 8 {
		fold(x, o, 8)
		for m := 0; m < 4; m++ {
			y[((2*m+1)<<lv)&(maxN-1)] = dot4((*[4]int64)(b.odd[lv][m*4:]), (*[4]int64)(o[:4]))
		}
	}
	s := b.n / 4
	e0, e1 := x[0]+x[3], x[1]+x[2]
	o0, o1 := x[0]-x[3], x[1]-x[2]
	y[0] = b.dc * (e0 + e1)
	y[s&(maxN-1)] = b.a1[0]*o0 + b.a1[1]*o1
	y[(2*s)&(maxN-1)] = b.mid * (e0 - e1)
	y[(3*s)&(maxN-1)] = b.a3[0]*o0 + b.a3[1]*o1
}

// denseOdd reports whether a level whose h odd coefficients have the non-zero
// mask ks takes the dense form of its product. Both forms sum the same int64
// terms, so the choice moves time only. An axpy pays a load and a store of
// the accumulator per multiply where a dot keeps it in a register; on weight
// blocks quantised at QP 12 to 34 (78 % to 3 % non-zero) any threshold from
// ⅜ to ¾ of the coefficients measured the same, never-dense cost 10–35 %
// at every density (pass 2's row mask is dense in the levels it touches) and
// always-dense 5–20 % on the sparse ones.
func denseOdd(ks uint32, h int) bool { return 2*bits.OnesCount32(ks) > h }

// inverse computes x = Aᵀ·c for one length-n coefficient vector. nz must have
// bit k set for every non-zero c[k] (a set bit over a zero is harmless). Each
// level above the 4-point tail computes its odd part o = Oᵀ·c_odd = O·c_odd
// (O is symmetric) one of two ways: mostly non-zero coefficients are gathered
// and multiplied a row of O at a time (dot, folded straight into x), sparse
// ones are visited by set bit and each scales its row of O into the workspace
// o (axpy), so that cost follows the non-zero coefficients either way.
func (b *butterfly) inverse(x, c *[maxN]int64, o *[maxN / 2]int64, nz uint32) {
	s := b.n / 4
	c0, c1, c2, c3 := c[0], c[s&(maxN-1)], c[(2*s)&(maxN-1)], c[(3*s)&(maxN-1)]
	e0, e1 := b.dc*c0+b.mid*c2, b.dc*c0-b.mid*c2
	o0 := b.a1[0]*c1 + b.a3[0]*c3
	o1 := b.a1[1]*c1 + b.a3[1]*c3
	x[0], x[1], x[2], x[3] = e0+o0, e1+o1, e1-o1, e0-o0
	lv := b.levels
	if b.n >= 8 {
		lv--
		if ks := nz & levelBits[lv]; denseOdd(ks, 4) {
			var cc [4]int64
			for m := range cc {
				cc[m] = c[((2*m+1)<<lv)&(maxN-1)]
			}
			for j := 0; j < 4; j++ {
				o, e := dot4((*[4]int64)(b.odd[lv][j*4:]), &cc), x[j]
				x[j], x[7-j] = e+o, e-o
			}
		} else {
			clear(o[:4])
			for ; ks != 0; ks &= ks - 1 {
				k := bits.TrailingZeros32(ks)
				axpy4((*[4]int64)(o[:4]), (*[4]int64)(b.odd[lv][k>>(lv+1)*4:]), c[k&(maxN-1)])
			}
			unfold(x, o, 8)
		}
	}
	if b.n >= 16 {
		lv--
		if ks := nz & levelBits[lv]; denseOdd(ks, 8) {
			var cc [8]int64
			for m := range cc {
				cc[m] = c[((2*m+1)<<lv)&(maxN-1)]
			}
			for j := 0; j < 8; j++ {
				o, e := dot8((*[8]int64)(b.odd[lv][j*8:]), &cc), x[j]
				x[j], x[15-j] = e+o, e-o
			}
		} else {
			clear(o[:8])
			for ; ks != 0; ks &= ks - 1 {
				k := bits.TrailingZeros32(ks)
				axpy8((*[8]int64)(o[:8]), (*[8]int64)(b.odd[lv][k>>(lv+1)*8:]), c[k&(maxN-1)])
			}
			unfold(x, o, 16)
		}
	}
	if b.n == 32 {
		if ks := nz & levelBits[0]; denseOdd(ks, 16) {
			var cc [16]int64
			for m := range cc {
				cc[m] = c[2*m+1]
			}
			for j := 0; j < 16; j++ {
				a := (*[16]int64)(b.odd[0][j*16:])
				o := dot8((*[8]int64)(a[:8]), (*[8]int64)(cc[:8])) + dot8((*[8]int64)(a[8:]), (*[8]int64)(cc[8:]))
				e := x[j]
				x[j], x[31-j] = e+o, e-o
			}
		} else {
			clear(o[:])
			for ; ks != 0; ks &= ks - 1 {
				k := bits.TrailingZeros32(ks)
				axpy16(o, (*[16]int64)(b.odd[0][k>>1*16:]), c[k&(maxN-1)])
			}
			unfold(x, o, 32)
		}
	}
}

// Transform is a 2-D separable integer transform of a fixed square size.
// Instances carry scratch buffers and are not safe for concurrent use.
type Transform struct {
	n   int
	bf  *butterfly // DCT tables; nil for the DST-VII (dstMat)
	tmp []int64    // the intermediate between the two separable passes
	f   []float64  // the float kernels' operands (gemm.go)
}

// NewDCT returns the integer DCT-II transform of size n (4, 8, 16 or 32).
func NewDCT(n int) *Transform {
	switch n {
	case 4, 8, 16, 32:
	default:
		panic(fmt.Sprintf("dct: unsupported size %d", n))
	}
	return &Transform{n: n, bf: &butterflies[bits.TrailingZeros(uint(n))-2], tmp: make([]int64, n*n)}
}

// NewDST4 returns the 4×4 DST-VII transform HEVC applies to 4×4 intra luma
// residuals; its basis better matches residuals that grow away from the
// predicted edge.
func NewDST4() *Transform { return &Transform{n: 4} }

// Forward's total matrix scale is 2^(2·matrixBits), of which it keeps
// 2^coefBits; Inverse removes that and its own two matrix factors. Each
// rounds once, on the way out of the second pass.
const (
	fwdShift = 2*matrixBits - coefBits
	invShift = 2*matrixBits + coefBits
)

func roundShift(v int64, shift uint) int32 {
	return int32((v + int64(1)<<(shift-1)) >> shift)
}

// Forward transforms the n×n residual block res (row-major) into
// coefficients, scaled by 2^coefBits relative to the orthonormal transform.
// dst and res may alias.
func (t *Transform) Forward(dst, res []int32) {
	n := t.n
	if len(res) != n*n || len(dst) != n*n {
		panic("dct: bad block size")
	}
	if t.bf == nil {
		dst4(dst, res, &dstMat, fwdShift)
		return
	}
	if cpufeat.Lanes8(n) && t.forwardGEMM(dst, res) {
		return
	}
	// Both passes transform contiguous rows and write their output down a
	// column, so the transposes cost nothing extra: pass 1 leaves
	// tmp[l][i] = (res·Aᵀ)[i][l], pass 2 leaves dst[k][l] = (A·res·Aᵀ)[k][l].
	// Each pass takes its vectors two at a time, packed when the pair's
	// magnitude scan allows (see Lanes above). Residuals of 8-bit samples
	// always pass in pass 1; pass 2 sees pass-1 sums and passes unless the
	// block carries close to full-range energy down one row or column.
	var x, y [maxN]int64
	var o [maxN / 2]int64
	bf, tmp := t.bf, t.tmp
	for i := 0; i < n; i += 2 {
		r0, r1 := res[i*n:][:n], res[i*n+n:][:n]
		if packRows(&x, r0, r1) <= bf.laneLimit {
			bf.forward(&y, &x, &o)
			for l, v := range y[:n] {
				lo := int64(int32(v))
				tmp[l*n+i], tmp[l*n+i+1] = lo, (v-lo)>>32
			}
			continue
		}
		for d, r := range [2][]int32{r0, r1} {
			for j, v := range r {
				x[j] = int64(v)
			}
			bf.forward(&y, &x, &o)
			for l, v := range y[:n] {
				tmp[l*n+i+d] = v
			}
		}
	}
	for l := 0; l < n; l += 2 {
		c0, c1 := tmp[l*n:][:n], tmp[l*n+n:][:n]
		var scan int64
		for j, p := range c0 {
			q := c1[j]
			scan |= (p ^ p>>63) | (q ^ q>>63)
			x[j] = p + q<<32
		}
		if scan <= bf.laneLimit {
			bf.forward(&y, &x, &o)
			for k, v := range y[:n] {
				lo := int64(int32(v))
				dst[k*n+l], dst[k*n+l+1] = roundShift(lo, fwdShift), roundShift((v-lo)>>32, fwdShift)
			}
			continue
		}
		for d, c := range [2][]int64{c0, c1} {
			copy(x[:n], c)
			bf.forward(&y, &x, &o)
			for k, v := range y[:n] {
				dst[k*n+l+d] = roundShift(v, fwdShift)
			}
		}
	}
}

// RowMasks locates a block's non-zero coefficients: bit l of entry k is set
// when coefficient (row k, column l) is non-zero. A set bit over a zero
// coefficient is harmless; a clear bit over a non-zero one is not.
type RowMasks [maxN]uint32

// nonZeroTop is 1<<31 for v ≠ 0 and 0 for v = 0 (the sign of v|−v), without
// a branch. A row's mask is built by shifting these in from the top, which
// keeps every shift count a constant.
func nonZeroTop(v int32) uint32 { return uint32(v|-v) & (1 << 31) }

// Inverse reconstructs the residual block from coefficients produced by
// Forward (after any quantization round-trip). dst and coef may alias.
func (t *Transform) Inverse(dst, coef []int32) {
	n := t.n
	if len(coef) != n*n || len(dst) != n*n {
		panic("dct: bad block size")
	}
	var nz RowMasks
	if t.bf != nil {
		for k := 0; k < n; k++ {
			var m uint32
			for _, v := range coef[k*n : k*n+n] {
				m = m>>1 | nonZeroTop(v)
			}
			nz[k] = m >> (32 - uint(n))
		}
	}
	t.InverseMasked(dst, coef, &nz)
}

// InverseMasked is Inverse for a caller that already knows where coef's
// non-zero coefficients are (QuantizeDequantize reports them), which saves
// the scan for them.
//
// Quantized blocks are mostly zero, so the work follows the block's non-zero
// extent: all-zero coefficient rows are skipped in pass 1, pass 2 visits only
// the rows that were not, each pass-1 row visits only its non-zero columns,
// and all-zero and DC-only blocks are a fill.
func (t *Transform) InverseMasked(dst, coef []int32, nz *RowMasks) {
	n := t.n
	if len(coef) != n*n || len(dst) != n*n {
		panic("dct: bad block size")
	}
	if t.bf == nil {
		dst4(dst, coef, &dstMatT, invShift)
		return
	}
	var rows uint32
	for k, m := range nz[:n] {
		if m != 0 {
			rows |= 1 << uint(k)
		}
	}
	if rows == 0 || rows == 1 && nz[0] == 1 {
		// All-zero or DC-only: every output is A[0][0]²·coef[0].
		fill := roundShift(t.bf.dc*t.bf.dc*int64(coef[0]), invShift)
		for i := range dst {
			dst[i] = fill
		}
		return
	}
	if cpufeat.Lanes8(n) && t.inverseGEMM(dst, coef) {
		return
	}
	tmp := t.tmp
	if rows != ^uint32(0)>>(32-uint(n)) {
		clear(tmp) // pass 2 reads zeros for the rows pass 1 skips
	}
	// Pass 1: tmp[j][k] = (coef·A)[k][j] for the non-zero rows k.
	// Non-zero rows go two at a time, packed under the union of their masks
	// when the pair's magnitude scan allows (see Lanes above): dequantised
	// levels of 8-bit residuals do, a damaged stream's need not.
	var x, c [maxN]int64
	var o [maxN / 2]int64
	bf := t.bf
	for ks := rows; ks != 0; {
		k0 := bits.TrailingZeros32(ks)
		ks &= ks - 1
		if ks == 0 {
			t.inverseRow(coef, k0, nz[k0], &x, &c, &o)
			break
		}
		k1 := bits.TrailingZeros32(ks)
		ks &= ks - 1
		r0, r1 := coef[k0*n:][:n], coef[k1*n:][:n]
		if packRows(&c, r0, r1) > bf.laneLimit {
			t.inverseRow(coef, k0, nz[k0], &x, &c, &o)
			t.inverseRow(coef, k1, nz[k1], &x, &c, &o)
			continue
		}
		bf.inverse(&x, &c, &o, nz[k0]|nz[k1])
		for j, v := range x[:n] {
			lo := int64(int32(v))
			tmp[j*n+k0], tmp[j*n+k1] = lo, (v-lo)>>32
		}
	}
	// Pass 2: dst[i][j] = Σ_k A[k][i]·tmp[j][k].
	for j := 0; j < n; j++ {
		copy(c[:n], tmp[j*n:j*n+n])
		bf.inverse(&x, &c, &o, rows)
		for i, v := range x[:n] {
			dst[i*n+j] = roundShift(v, invShift)
		}
	}
}

// inverseRow is InverseMasked's pass 1 for coefficient row k on its own; x, c
// and o are the caller's workspace.
func (t *Transform) inverseRow(coef []int32, k int, nz uint32, x, c *[maxN]int64, o *[maxN / 2]int64) {
	n, tmp := t.n, t.tmp
	for l, v := range coef[k*n : k*n+n] {
		c[l] = int64(v)
	}
	t.bf.inverse(x, c, o, nz)
	for j, v := range x[:n] {
		tmp[j*n+k] = v
	}
}

// dst4 is the DST-VII's dense 4×4 product a·src·aᵀ: forward with a = A,
// inverse with a = Aᵀ.
func dst4(dst, src []int32, a *[16]int64, shift uint) {
	var tmp [16]int64
	for k := 0; k < 4; k++ {
		for j := 0; j < 4; j++ {
			var acc int64
			for i := 0; i < 4; i++ {
				acc += a[k*4+i] * int64(src[i*4+j])
			}
			tmp[k*4+j] = acc
		}
	}
	for k := 0; k < 4; k++ {
		for l := 0; l < 4; l++ {
			var acc int64
			for j := 0; j < 4; j++ {
				acc += tmp[k*4+j] * a[l*4+j]
			}
			dst[k*4+l] = roundShift(acc, shift)
		}
	}
}

// qstepTable[qp] is Qstep = 2^((qp-4)/6) for qp in [0, MaxQP]: math.Pow's
// values on amd64, committed because Pow's last bits vary by platform (by 2
// ulps at QP 2 under GOARCH=386) and the table feeds the quantiser, the
// encoder's λ and the decoder's dequantTable. TestQstepTable holds each
// within 1.5 ulps of the exact power.
var qstepTable = [MaxQP + 1]float64{
	0.6299605249474366, 0.7071067811865475, 0.7937005259840999, 0.8908987181403393,
	1, 1.122462048309373, 1.259921049894873, 1.4142135623730951,
	1.5874010519681994, 1.7817974362806788, 2, 2.244924096618746,
	2.519842099789746, 2.82842712474619, 3.174802103936399, 3.563594872561357,
	4, 4.489848193237491, 5.039684199579493, 5.65685424949238,
	6.3496042078727974, 7.127189745122715, 8, 8.979696386474982,
	10.079368399158986, 11.31370849898476, 12.699208415745595, 14.25437949024543,
	16, 17.959392772949972, 20.158736798317967, 22.62741699796952,
	25.398416831491197, 28.508758980490853, 32, 35.918785545899944,
	40.317473596635935, 45.25483399593904, 50.796833662982394, 57.017517960981706,
	64, 71.83757109179989, 80.63494719327187, 90.50966799187808,
	101.59366732596479, 114.03503592196341, 128, 143.67514218359977,
	161.26989438654374, 181.01933598375615, 203.18733465192958, 228.07007184392683,
}

// MaxQP is the largest supported quantization parameter.
const MaxQP = 51

const Log2Frac = 16 // Log2Fixed's fractional bits

// Log2Fixed returns log₂ x, x ≥ 1, in units of 2^−Log2Frac, low by less than
// one, in integers alone: the bit length, then a bit a squaring of the Q31
// mantissa. It is monotone, and the same on every platform.
func Log2Fixed(x uint64) int64 {
	e := bits.Len64(x) - 1
	m := x << uint(63-e) >> 32 // x/2^e in [1, 2)
	r := int64(e) << Log2Frac
	for b := int64(1) << (Log2Frac - 1); b > 0; b >>= 1 {
		if m = m * m >> 31; m >= 1<<32 {
			m >>= 1
			r |= b
		}
	}
	return r
}

// Qstep returns the quantizer step size for qp, clamping qp into range.
func Qstep(qp int) float64 { return qstepTable[clampQP(qp)] }

func clampQP(qp int) int { return min(max(qp, 0), MaxQP) }

// quantScale is the scale of Forward's output relative to orthonormal.
const quantScale = 1 << coefBits

// dequantTable[qp][a] is int32(math.Round(a·step(qp))), the reconstruction of
// level magnitude a, filled by that very expression; larger magnitudes take
// the expression itself. 52 × 256 × 4 B = 52 KB, of which an encode or decode
// touches one QP's 1 KB row.
var dequantTable [MaxQP + 1][dequantTableLen]int32

const dequantTableLen = 256

func init() {
	for qp := range dequantTable {
		step := qstepTable[qp] * quantScale
		for a := range dequantTable[qp] {
			dequantTable[qp][a] = int32(math.Round(float64(a) * step))
		}
	}
}

// quantizer holds one QP's constants for the per-coefficient kernels below.
type quantizer struct {
	step, inv float64
	recon     *[dequantTableLen]int32
}

func newQuantizer(qp int) quantizer {
	qp = clampQP(qp)
	step := qstepTable[qp] * quantScale
	return quantizer{step: step, inv: 1 / step, recon: &dequantTable[qp]}
}

// level quantizes one coefficient: |c|/step plus the dead-zone offset,
// truncated, with c's sign put back by mask. IEEE multiplication is
// sign-symmetric, so this is the integer that negating the product on the
// c < 0 side of a branch gives — without a branch on the sign pattern of the
// coefficients, which no predictor learns.
func (q *quantizer) level(c int32) int32 {
	s := c >> 31
	l := int32(float64(math.Abs(float64(c))*q.inv) + 1.0/3.0)
	return (l ^ s) - s
}

// Reconstructing a level goes through recon by magnitude, the sign put back
// by mask: math.Round is symmetric about zero, so that is
// int32(math.Round(l·step)), the expression the table is filled by and the
// one magnitudes beyond it take. (Spelled out in each loop below rather than
// shared: a function with math.Round in it does not inline.)

// Quantize maps coefficients (as produced by Forward) to integer levels with
// step Qstep(qp) in the orthonormal domain, using a dead-zone rounding offset
// of roughly 1/3 (the HEVC intra choice). dst and coef may alias.
func Quantize(dst, coef []int32, qp int) {
	q := newQuantizer(qp)
	dst = dst[:len(coef)]
	for i, c := range coef {
		dst[i] = q.level(c)
	}
}

// Dequantize maps levels back to reconstructed coefficients in Forward's
// scale. dst and levels may alias.
func Dequantize(dst, levels []int32, qp int) {
	q := newQuantizer(qp)
	dst = dst[:len(levels)]
	for i, l := range levels {
		s := l >> 31
		if a := uint32((l ^ s) - s); a < dequantTableLen {
			dst[i] = (q.recon[a] ^ s) - s
		} else {
			dst[i] = int32(math.Round(float64(l) * q.step))
		}
	}
}

// QuantizeDequantize is Quantize of the n×n block coef into levels followed
// by Dequantize of levels into deq, in one pass that also records where the
// non-zero levels — and so the non-zero entries of deq — are, for
// InverseMasked. It reports whether there are any. deq may alias coef.
func QuantizeDequantize(levels, deq, coef []int32, n, qp int, nz *RowMasks) (any bool) {
	if n > maxN || len(coef) != n*n || len(levels) != n*n || len(deq) != n*n {
		panic("dct: bad block size")
	}
	q := newQuantizer(qp)
	if cpufeat.Lanes8(n) {
		rows, large := quantDeqAVX2(&levels[0], &deq[0], &coef[0], &nz[0], n, q.inv, &q.recon[0])
		if large {
			for i, l := range levels {
				if s := l >> 31; uint32((l^s)-s) >= dequantTableLen {
					deq[i] = int32(math.Round(float64(l) * q.step))
				}
			}
		}
		return rows != 0
	}
	var rows uint32
	for k := 0; k < n; k++ {
		row := coef[k*n:][:n]
		lev, rec := levels[k*n:][:len(row)], deq[k*n:][:len(row)]
		var m uint32
		for i, c := range row {
			l := q.level(c)
			lev[i] = l
			s := l >> 31
			if a := uint32((l ^ s) - s); a < dequantTableLen {
				rec[i] = (q.recon[a] ^ s) - s
			} else {
				rec[i] = int32(math.Round(float64(l) * q.step))
			}
			m = m>>1 | nonZeroTop(l)
		}
		m >>= 32 - uint(n)
		nz[k] = m
		rows |= m
	}
	return rows != 0
}

// DequantizeMasked is the decoder's half of QuantizeDequantize: Dequantize of
// the n×n block levels into dst in one pass that also records where the
// non-zero levels — and so the non-zero entries of dst — are, for
// InverseMasked. It reports whether there are any. dst may alias levels.
func DequantizeMasked(dst, levels []int32, n, qp int, nz *RowMasks) (any bool) {
	if n > maxN || len(levels) != n*n || len(dst) != n*n {
		panic("dct: bad block size")
	}
	q := newQuantizer(qp)
	if cpufeat.Lanes8(n) {
		if rows, ok := dequantAVX2(&dst[0], &levels[0], &nz[0], n, &q.recon[0]); ok {
			return rows != 0
		}
	}
	var rows uint32
	for k := 0; k < n; k++ {
		lev := levels[k*n:][:n]
		rec := dst[k*n:][:len(lev)]
		var m uint32
		for i, l := range lev {
			s := l >> 31
			if a := uint32((l ^ s) - s); a < dequantTableLen {
				rec[i] = (q.recon[a] ^ s) - s
			} else {
				rec[i] = int32(math.Round(float64(l) * q.step))
			}
			m = m>>1 | nonZeroTop(l)
		}
		m >>= 32 - uint(n)
		nz[k] = m
		rows |= m
	}
	return rows != 0
}

// ForwardFloat computes the exact orthonormal 2-D DCT-II of a float block,
// used by the analysis tooling (Fig. 3's outlier study). n must be the block
// edge; src is row-major n×n.
func ForwardFloat(src []float64, n int) []float64 {
	d := basisFloat(n)
	return mulABAt(d, src, n)
}

func basisFloat(n int) []float64 {
	d := make([]float64, n*n)
	for k := 0; k < n; k++ {
		ck := 1.0
		if k == 0 {
			ck = math.Sqrt(0.5)
		}
		for j := 0; j < n; j++ {
			d[k*n+j] = math.Sqrt(2/float64(n)) * ck *
				math.Cos(float64(2*j+1)*float64(k)*math.Pi/float64(2*n))
		}
	}
	return d
}

// mulABAt returns A·B·Aᵀ for n×n matrices.
func mulABAt(a, b []float64, n int) []float64 {
	tmp := make([]float64, n*n)
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			var acc float64
			for k := 0; k < n; k++ {
				acc += float64(a[i*n+k] * b[k*n+j])
			}
			tmp[i*n+j] = acc
		}
	}
	out := make([]float64, n*n)
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			var acc float64
			for k := 0; k < n; k++ {
				acc += float64(tmp[i*n+k] * a[j*n+k])
			}
			out[i*n+j] = acc
		}
	}
	return out
}
