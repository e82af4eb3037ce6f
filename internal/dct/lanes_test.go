package dct

import (
	"encoding/binary"
	"math/bits"
	"math/rand"
	"testing"
)

// The differential tests of the two-vectors-per-butterfly passes (dct.go,
// "Lanes"): Forward and InverseMasked against the dense product on inputs
// built to sit on both sides of every pair's guard with the signs that make a
// lane overflow the moment a pair is packed that should not have been.

// signsOfRow returns ±1 per column: the sign pattern that makes row k of mat
// sum to its L1 norm. signsOfCol is the same down column j.
func signsOfRow(mat []int32, n, k int) []int32 {
	s := make([]int32, n)
	for j := range s {
		s[j] = 1
		if mat[k*n+j] < 0 {
			s[j] = -1
		}
	}
	return s
}

func signsOfCol(mat []int32, n, j int) []int32 {
	s := make([]int32, n)
	for k := range s {
		s[k] = 1
		if mat[k*n+j] < 0 {
			s[k] = -1
		}
	}
	return s
}

// widestRowCol returns the row and the column of mat with the largest L1 norm.
func widestRowCol(mat []int32, n int) (row, col int) {
	var bestR, bestC int64
	for k := 0; k < n; k++ {
		var r, c int64
		for j := 0; j < n; j++ {
			r += int64(max(mat[k*n+j], -mat[k*n+j]))
			c += int64(max(mat[j*n+k], -mat[j*n+k]))
		}
		if r > bestR {
			bestR, row = r, k
		}
		if c > bestC {
			bestC, col = c, k
		}
	}
	return row, col
}

// laneAmplitudes are the magnitudes the lane tests place inputs at: residual
// range, each side of the limit (limit+1 is the largest magnitude a scan of
// limit can hide behind a negative sample), odd values up to twice the limit
// (an odd a has a|(a−1) = a, so a block of ±a scans as exactly a: these are
// the ones a doubled limit would wrongly pack), and wrap-sized ones.
func laneAmplitudes(limit int32) []int32 {
	return []int32{1, 255, limit - 1, limit, limit + 1, limit + 2, (limit + limit/2) | 1, 2*limit - 1, 2*limit + 1, 1 << 18, 1<<30 - 1}
}

func TestLaneLimits(t *testing.T) {
	// The table DESIGN.md §11.1 prints; a changed matrix must change both.
	want := map[int]int64{4: 1048574, 8: 741533, 16: 524286, 32: 370766}
	for n, w := range want {
		bf := &butterflies[bits.TrailingZeros(uint(n))-2]
		if bf.laneLimit != w {
			t.Errorf("n=%d: lane limit %d, documented %d", n, bf.laneLimit, w)
		}
	}
}

// TestForwardLanesEquivalence: Forward against the dense product, out of place
// and with dst aliasing res.
func TestForwardLanesEquivalence(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	for _, n := range []int{4, 8, 16, 32} {
		tr, mat := NewDCT(n), dctMatrix(n)
		limit := int32(tr.bf.laneLimit)
		want, got := make([]int32, n*n), make([]int32, n*n)
		check := func(res []int32, format string, args ...any) {
			t.Helper()
			denseForward(mat, n, want, res)
			clear(got)
			tr.Forward(got, res)
			requireSameBlock(t, got, want, "Forward n=%d "+format, append([]any{n}, args...)...)
			copy(got, res)
			tr.Forward(got, got)
			requireSameBlock(t, got, want, "Forward n=%d in place "+format, append([]any{n}, args...)...)
		}
		wide, _ := widestRowCol(mat, n)
		res := make([]int32, n*n)
		for _, amp := range laneAmplitudes(limit) {
			// Pass 1 at its worst: every row at ±amp in the signs of one row
			// of A, so that coefficient reaches amp·L1 — in both polarities,
			// the all-negative DC alignment being what a scan under-reads.
			for _, k := range []int{wide, 0, 1, n - 1, rng.Intn(n)} {
				s := signsOfRow(mat, n, k)
				for _, pol := range []int32{1, -1} {
					for i := range res {
						res[i] = pol * amp * s[i%n]
					}
					check(res, "rows ±%d aligned with row %d, polarity %d", amp, k, pol)
					// Mixed pairs: one row of each pair in residual range,
					// its partner at amp — first the odd rows, then the even.
					for odd := 0; odd < 2; odd++ {
						for i := range res {
							if i/n%2 == odd {
								res[i] = int32(rng.Intn(511) - 255)
							}
						}
						check(res, "rows ±%d aligned with row %d beside residual rows (parity %d)", amp, k, odd)
						for i := range res {
							res[i] = pol * amp * s[i%n]
						}
					}
				}
			}
			check(randBlock(rng, n, amp), "random ±%d", amp)
			clear(res)
			copy(res[rng.Intn(n)*n:][:n], randBlock(rng, n, amp))
			check(res, "single row ±%d", amp)
			clear(res)
			for i, col := 0, rng.Intn(n); i < n; i++ {
				res[i*n+col] = rng.Int31n(2*amp+1) - amp
			}
			check(res, "single column ±%d", amp)
		}
		// Pass 2 at its worst: res[i][j] = a·s[i]·u[j] puts a·L1(u's row)·s[i]
		// down one column of the intermediate, aligned with a row of A, for a
		// sweep of a that takes that column from far inside the limit to far
		// outside it — while pass 1 stays in range throughout.
		for _, k1 := range []int{wide, 1, n - 1} {
			s, u := signsOfRow(mat, n, k1), signsOfRow(mat, n, wide)
			var l1 int64
			for j := 0; j < n; j++ {
				l1 += int64(mat[wide*n+j]) * int64(u[j])
			}
			top := int32(4 * int64(limit) / l1)
			for a := int32(1); a <= top; a += 1 + top/97 {
				for i := range res {
					res[i] = a * s[i/n] * u[i%n]
				}
				check(res, "outer product a=%d (intermediate %d, limit %d)", a, int64(a)*l1, limit)
				for i := range res { // one column of each pair only
					if i%n != wide {
						res[i] /= 3
					}
				}
				check(res, "outer product a=%d, thinned", a)
			}
		}
	}
}

// TestInverseLanesEquivalence: Inverse and InverseMasked — exact masks, and
// over-full ones — against the dense product, out of place and with dst
// aliasing coef, on blocks whose non-zero rows come in pairs, in odd counts,
// alone, and as a single column.
func TestInverseLanesEquivalence(t *testing.T) {
	rng := rand.New(rand.NewSource(22))
	for _, n := range []int{4, 8, 16, 32} {
		tr, mat := NewDCT(n), dctMatrix(n)
		limit := int32(tr.bf.laneLimit)
		want, got := make([]int32, n*n), make([]int32, n*n)
		check := func(coef []int32, format string, args ...any) {
			t.Helper()
			args = append([]any{n}, args...)
			denseInverse(mat, n, want, coef)
			clear(got)
			tr.Inverse(got, coef)
			requireSameBlock(t, got, want, "Inverse n=%d "+format, args...)
			var nz RowMasks
			for i, v := range coef {
				if v != 0 {
					nz[i/n] |= 1 << uint(i%n)
				}
			}
			copy(got, coef)
			tr.InverseMasked(got, got, &nz)
			requireSameBlock(t, got, want, "InverseMasked n=%d in place, exact masks "+format, args...)
			// A set bit over a zero is harmless: whole extra rows included,
			// which changes how the non-zero rows pair up.
			for k := range nz[:n] {
				if rng.Intn(3) == 0 {
					nz[k] |= rng.Uint32() & (1<<uint(n) - 1)
				}
			}
			clear(got)
			tr.InverseMasked(got, coef, &nz)
			requireSameBlock(t, got, want, "InverseMasked n=%d over-full masks "+format, args...)
			copy(got, coef)
			tr.InverseMasked(got, got, &nz)
			requireSameBlock(t, got, want, "InverseMasked n=%d in place, over-full masks "+format, args...)
		}
		_, wide := widestRowCol(mat, n)
		coef := make([]int32, n*n)
		for _, amp := range laneAmplitudes(limit) {
			for _, j := range []int{wide, 0, n - 1, rng.Intn(n)} {
				s := signsOfCol(mat, n, j)
				for _, pol := range []int32{1, -1} {
					// count non-zero rows at ±amp in the signs of column j of
					// A (sample j of each reaches amp·L1): pairs, and a last
					// row alone when count is odd.
					for _, count := range []int{1, 2, 3, n - 1, n} {
						clear(coef)
						for _, k := range rng.Perm(n)[:count] {
							for l := 0; l < n; l++ {
								coef[k*n+l] = pol * amp * s[l]
							}
						}
						check(coef, "%d rows ±%d aligned with column %d, polarity %d", count, amp, j, pol)
					}
					// Mixed pair: the partner row small and sparse, on columns
					// the big row's mask may not cover.
					clear(coef)
					k0, k1 := rng.Intn(n/2), n/2+rng.Intn(n/2)
					for l := 0; l < n/2; l++ {
						coef[k0*n+l] = pol * amp * s[l]
					}
					coef[k1*n+n-1], coef[k1*n+n/2] = 77, -5
					check(coef, "row ±%d on the low columns paired with a sparse row on the high ones", amp)
				}
			}
			check(randBlock(rng, n, amp), "random ±%d", amp)
			clear(coef)
			for k, col := 0, rng.Intn(n); k < n; k++ {
				coef[k*n+col] = rng.Int31n(2*amp+1) - amp
			}
			check(coef, "single column ±%d", amp)
			for i := range coef { // thinned: rows pair under different masks
				coef[i] = 0
				if rng.Intn(4) == 0 {
					coef[i] = rng.Int31n(2*amp+1) - amp
				}
			}
			check(coef, "thinned ±%d", amp)
		}
	}
}

// FuzzLanes: two vectors p, q of any magnitude, as a pair of rows of an
// otherwise empty block, must come out of the paired passes as the dense
// product has them — forward (the pair through pass 1, its images through
// pass 2) and inverse (the pair under masks widened by loose). The seeds sit
// on the guards; plain `go test` replays them.
func FuzzLanes(f *testing.F) {
	for si := 0; si < 4; si++ {
		n := 4 << si
		limit := int32(butterflies[si].laneLimit)
		mat := dctMatrix(n)
		wideRow, wideCol := widestRowCol(mat, n)
		for _, amp := range []int32{255, limit, limit + 1, limit + 2, 2*limit + 1, 1<<30 - 1} {
			for _, s := range [][]int32{signsOfRow(mat, n, wideRow), signsOfCol(mat, n, wideCol)} {
				data := make([]byte, 8*n)
				for j, sg := range s {
					binary.LittleEndian.PutUint32(data[4*j:], uint32(amp*sg))
					binary.LittleEndian.PutUint32(data[4*(n+j):], uint32(-amp*sg))
				}
				f.Add(uint8(si), uint8(1), uint8(2), data, uint32(0))
				f.Add(uint8(si), uint8(0), uint8(n-1), data[:4*n+4], uint32(0xA5A5A5A5))
				// Disjoint masks: p keeps its even columns, q its odd ones.
				split := append([]byte(nil), data...)
				for j := 0; j < n; j++ {
					clear(split[4*(j+n*((j+1)%2)):][:4])
				}
				f.Add(uint8(si), uint8(n/2), uint8(0), split, uint32(0))
			}
		}
	}
	f.Fuzz(func(t *testing.T, size, r0, r1 uint8, data []byte, loose uint32) {
		n := 4 << (size & 3)
		k0, k1 := int(r0)%n, int(r1)%n
		if k0 == k1 {
			k1 = (k0 + 1) % n
		}
		block := make([]int32, n*n)
		for i := 0; i < 2*n && 4*i+4 <= len(data); i++ {
			k := k0
			if i >= n {
				k = k1
			}
			block[k*n+i%n] = int32(binary.LittleEndian.Uint32(data[4*i:]))
		}
		tr, mat := NewDCT(n), dctMatrix(n)
		want, got := make([]int32, n*n), make([]int32, n*n)
		denseForward(mat, n, want, block)
		tr.Forward(got, block)
		requireSameBlock(t, got, want, "Forward n=%d rows %d,%d", n, k0, k1)
		denseInverse(mat, n, want, block)
		var nz RowMasks
		for i, v := range block {
			if v != 0 {
				nz[i/n] |= 1 << uint(i%n)
			}
		}
		nz[k0] |= loose & (1<<uint(n) - 1)
		nz[k1] |= loose >> 7 & (1<<uint(n) - 1)
		tr.InverseMasked(got, block, &nz)
		requireSameBlock(t, got, want, "InverseMasked n=%d rows %d,%d", n, k0, k1)
	})
}
