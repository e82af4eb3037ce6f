package dct

import (
	"encoding/binary"
	"math"
	"math/bits"
	"math/rand"
	"testing"

	"repro/internal/cpufeat"
)

// The differential tests of the float64 kernels (gemm.go, gemm_amd64.s): the
// transform's oracles re-run on the butterfly, and the two paths held to each
// other on both sides of each direction's limit.

// generic runs f with the pure-Go kernels forced: every Forward and
// InverseMasked inside it takes the butterfly.
func generic(f func()) {
	saved := cpufeat.AVX2FMA
	cpufeat.AVX2FMA = false
	defer func() { cpufeat.AVX2FMA = saved }()
	f()
}

func requireSIMD(t *testing.T) {
	t.Helper()
	if !cpufeat.AVX2FMA {
		t.Skip("no AVX2 and FMA on this CPU: every test already runs the butterfly")
	}
}

// TestGenericKernelEquivalence re-runs the transform's oracles with the
// butterfly forced; their plain runs took the float kernels wherever a block
// is within the limit.
func TestGenericKernelEquivalence(t *testing.T) {
	requireSIMD(t)
	generic(func() {
		t.Run("ButterflyMatchesDense", TestButterflyMatchesDense)
		t.Run("Inverse", TestInverseEquivalence)
		t.Run("ForwardLanes", TestForwardLanesEquivalence)
		t.Run("InverseLanes", TestInverseLanesEquivalence)
	})
}

func TestGEMMLimitsPinned(t *testing.T) {
	// The table DESIGN.md §11.1 prints; a changed matrix must change both.
	want := map[int][2]int64{8: {4195199, 1073971244}, 16: {2097150, 536870909}, 32: {1048799, 268492810}}
	for n, w := range want {
		bf := &butterflies[bits.TrailingZeros(uint(n))-2]
		if got := [2]int64{bf.fwdLimit, bf.invLimit}; got != w {
			t.Errorf("n=%d: forward, inverse limits %v, documented %v", n, got, w)
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

// edgeBlock fills block with the sign pattern pol·s[i]·s[j] (which drives
// output (w, w) to max|input|·L1² when s holds the signs of row or column w)
// at magnitude pos where the sign is +1 and neg where it is −1.
func edgeBlock(block, s []int32, pol, pos, neg int32) {
	n := len(s)
	for i := range block {
		block[i] = pos
		if pol*s[i/n]*s[i%n] < 0 {
			block[i] = -neg
		}
	}
}

// TestSIMDTransformEquivalence: Forward and InverseMasked with the float
// kernels on against the butterfly, out of place and in place, and each
// direction's float kernel called directly: it must take a block exactly when
// its magnitude scan is within the direction's limit, and then write the
// butterfly's integers. The blocks are each direction's worst case — output
// (w, w) at max|input|·L1² — at magnitudes across the limit: limit − 1;
// the limit itself with its negative samples one larger (the largest
// magnitude a scan of limit hides); one above that (rejected); odd values up
// to twice the limit and beyond (the ones a doubled limit would wrongly take,
// where Forward's outputs leave int32); and random and thinned blocks at the
// same magnitudes.
func TestSIMDTransformEquivalence(t *testing.T) {
	requireSIMD(t)
	rng := rand.New(rand.NewSource(23))
	for _, n := range []int{8, 16, 32} {
		tr, mat := NewDCT(n), dctMatrix(n)
		bf := tr.bf
		wideRow, wideCol := widestRowCol(mat, n)
		want, got := make([]int32, n*n), make([]int32, n*n)
		var nz RowMasks
		check := func(block []int32, format string, args ...any) {
			t.Helper()
			args = append([]any{n}, args...)
			for i := range nz[:n] {
				nz[i] = 0
			}
			for i, v := range block {
				if v != 0 {
					nz[i/n] |= 1 << uint(i%n)
				}
			}
			for _, dir := range []struct {
				name   string
				limit  int64
				run    func(dst, src []int32)
				direct func(dst, src []int32) bool
			}{
				{"Forward", bf.fwdLimit, tr.Forward, tr.forwardGEMM},
				{"InverseMasked", bf.invLimit, func(dst, src []int32) { tr.InverseMasked(dst, src, &nz) }, tr.inverseGEMM},
			} {
				generic(func() { dir.run(want, block) })
				clear(got)
				dir.run(got, block)
				requireSameBlock(t, got, want, dir.name+" n=%d "+format, args...)
				copy(got, block)
				dir.run(got, got)
				requireSameBlock(t, got, want, dir.name+" n=%d in place "+format, args...)
				clear(got)
				if took, within := dir.direct(got, block), scan(block) <= dir.limit; took != within {
					t.Fatalf("%s n=%d "+format+": float kernel took the block = %v, scan %d against limit %d", append([]any{dir.name}, append(args, took, scan(block), dir.limit)...)...)
				} else if took {
					requireSameBlock(t, got, want, dir.name+" n=%d float kernel "+format, args...)
				}
			}
		}
		block := make([]int32, n*n)
		for _, s := range [][]int32{signsOfRow(mat, n, wideRow), signsOfCol(mat, n, wideCol)} {
			for _, limit := range []int64{bf.fwdLimit, bf.invLimit} {
				edges := [][2]int64{{limit - 1, limit - 1}, {limit, limit + 1}, {limit + 1, limit + 2}, {limit + 1, limit + 1}}
				for _, a := range []int64{limit + 2, (limit + limit/2) | 1, 2*limit - 1, 2*limit + 1, 4*limit + 1} {
					a = min(a, math.MaxInt32)
					edges = append(edges, [2]int64{a, a})
				}
				for _, e := range edges {
					pos, neg := int32(e[0]), int32(e[1])
					for _, pol := range []int32{1, -1} {
						edgeBlock(block, s, pol, pos, neg)
						check(block, "aligned +%d/−%d polarity %d", pos, neg, pol)
					}
					for i := range block {
						if rng.Intn(4) != 0 {
							block[i] = 0
						}
					}
					check(block, "thinned aligned ±%d", pos)
					for i := range block {
						block[i] = int32(rng.Int63n(2*e[0]+1) - e[0])
					}
					check(block, "random ±%d", pos)
				}
			}
		}
		for _, amp := range []int32{1, 255, 511} {
			for trial := 0; trial < 50; trial++ {
				check(randBlock(rng, n, amp), "random ±%d", amp)
			}
		}
	}
}

// FuzzSIMDKernels: any block, read as int32s from data and scaled up by
// shift, transforms the same forward and inverse with the float kernels on as
// on the butterfly. The seeds are each direction's worst case at its limit
// and one above; plain `go test` replays them.
func FuzzSIMDKernels(f *testing.F) {
	for si := 1; si < 4; si++ {
		n := 4 << si
		bf, mat := &butterflies[si], dctMatrix(n)
		wideRow, wideCol := widestRowCol(mat, n)
		for _, s := range [][]int32{signsOfRow(mat, n, wideRow), signsOfCol(mat, n, wideCol)} {
			for _, limit := range []int64{bf.fwdLimit, bf.invLimit} {
				for _, e := range [][2]int32{{int32(limit), int32(limit + 1)}, {int32(limit + 1), int32(limit + 1)}} {
					block := make([]int32, n*n)
					edgeBlock(block, s, 1, e[0], e[1])
					data := make([]byte, 4*n*n)
					for i, v := range block {
						binary.LittleEndian.PutUint32(data[4*i:], uint32(v))
					}
					f.Add(uint8(si-1), uint8(0), data)
				}
			}
		}
	}
	f.Fuzz(func(t *testing.T, size, shift uint8, data []byte) {
		if !cpufeat.AVX2FMA {
			t.Skip("no AVX2 and FMA on this CPU")
		}
		n := 4 << (1 + size%3)
		block := make([]int32, n*n)
		for i := 0; i < n*n && 4*i+4 <= len(data); i++ {
			block[i] = int32(binary.LittleEndian.Uint32(data[4*i:])) << (shift % 32)
		}
		tr := NewDCT(n)
		var nz RowMasks
		for i, v := range block {
			if v != 0 {
				nz[i/n] |= 1 << uint(i%n)
			}
		}
		want, got := make([]int32, n*n), make([]int32, n*n)
		generic(func() { tr.Forward(want, block) })
		tr.Forward(got, block)
		requireSameBlock(t, got, want, "Forward n=%d", n)
		generic(func() { tr.InverseMasked(want, block, &nz) })
		tr.InverseMasked(got, block, &nz)
		requireSameBlock(t, got, want, "InverseMasked n=%d", n)
	})
}
