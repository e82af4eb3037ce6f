package dct

import "math"

// Float64 kernels. Where the CPU has AVX2 and FMA (gemm_amd64.s), Forward and
// InverseMasked of n = 8, 16 and 32 run as two float64 products over the same
// integer matrix A, each storing its result transposed — Forward as
// P = (A·R)ᵀ then (A·P)ᵀ = A·R·Aᵀ, the inverse as Q = (Aᵀ·C)ᵀ then
// (Aᵀ·Q)ᵀ = Aᵀ·C·A — then the butterfly's one rounding shift. Each product
// folds by the symmetry the butterfly uses, A[k][n−1−j] = (−1)ᵏ·A[k][j]:
// foldAVX2 forms A·B from the mirrored sums and differences of B's rows,
// unfoldAVX2 forms Aᵀ·B's mirrored rows as E ± O, each with half a dense
// product's multiply-adds. Every entry of A and of the input is an integer,
// so every product and every partial sum is one too; while their magnitudes
// stay below 2⁵³ each is exact in IEEE double, in any summation order and
// with or without fused multiply-adds, so the float passes compute the
// butterfly's int64 sums exactly. Every partial sum of either pass is a
// sub-sum of the dense product's terms, so bounded by max|input|·L1² (L1 as
// for laneLimit), and a block whose magnitude scan (see Lanes) is at most
//
//	limit = min(2⁵³ − 2^(s−1), (2³¹−1)·2^s) / L1² − 1,  s the direction's shift,
//
// keeps them there, keeps the rounding addend 2^(s−1) exact, and keeps every
// output inside int32 — where the butterfly's roundShift would wrap and
// VCVTTPD2DQ saturate. The scan under-reads a negative sample by one, hence
// the −1. A block above the limit takes the butterfly: Forward's limit is
// above 10⁶ at every size, so 8-bit residuals never do; the inverse's is above
// 2.6·10⁸, far beyond any level an encoder emits, but not beyond a hostile
// stream's.

// gemmLimit is the float kernels' limit for a matrix of largest row or column
// L1 norm l1 in the direction whose rounding shift is shift.
func gemmLimit(l1 int64, shift uint) int64 {
	return min(1<<53-int64(1)<<(shift-1), int64(math.MaxInt32)<<shift)/(l1*l1) - 1
}

// floats returns the float kernels' two n×n operands, allocated on first use.
func (t *Transform) floats() (x, y []float64) {
	n2 := t.n * t.n
	if t.f == nil {
		t.f = make([]float64, 2*n2)
	}
	return t.f[:n2], t.f[n2:]
}

// forwardGEMM is Forward on the float kernels. It reports false, having
// written nothing, when res is above the limit.
func (t *Transform) forwardGEMM(dst, res []int32) bool {
	n, bf := t.n, t.bf
	x, y := t.floats()
	if int64(widenAVX2(&x[0], &res[0], n*n)) > bf.fwdLimit {
		return false
	}
	foldAVX2(&y[0], &x[0], &bf.fold[0], n) // (A·R)ᵀ
	foldAVX2(&x[0], &y[0], &bf.fold[0], n) // (A·Rᵀ·Aᵀ)ᵀ
	narrowAVX2(&dst[0], &x[0], n*n, 1<<(fwdShift-1), 1.0/(1<<fwdShift))
	return true
}

// inverseGEMM is InverseMasked on the float kernels. It reports false, having
// written nothing, when coef is above the limit.
func (t *Transform) inverseGEMM(dst, coef []int32) bool {
	n, bf := t.n, t.bf
	x, y := t.floats()
	if int64(widenAVX2(&x[0], &coef[0], n*n)) > bf.invLimit {
		return false
	}
	unfoldAVX2(&y[0], &x[0], &bf.unfold[0], n) // (Aᵀ·C)ᵀ
	unfoldAVX2(&x[0], &y[0], &bf.unfold[0], n) // (Aᵀ·Cᵀ·A)ᵀ
	narrowAVX2(&dst[0], &x[0], n*n, 1<<(invShift-1), 1.0/(1<<invShift))
	return true
}
