package intra

import (
	"math"
	"math/rand"
	"testing"

	"repro/internal/cpufeat"
)

// The differential tests of the AVX2 scorer (sad_amd64.s): the scorer's
// oracles re-run on the packed-lane Go kernel, and the two kernels held to
// each other at every line's exit.

// generic runs f with the pure-Go kernels forced: every Scorer Reset inside
// it takes the packed-lane form.
func generic(f func()) {
	saved := cpufeat.AVX2FMA
	cpufeat.AVX2FMA = false
	defer func() { cpufeat.AVX2FMA = saved }()
	f()
}

func requireSIMD(t *testing.T) {
	t.Helper()
	if !cpufeat.AVX2FMA {
		t.Skip("no AVX2 on this CPU: every test already runs the pure-Go scorer")
	}
}

// TestGenericKernelEquivalence re-runs the scorer's oracles with the pure-Go
// kernel forced; their plain runs scored n ≥ 8 with the AVX2 one.
func TestGenericKernelEquivalence(t *testing.T) {
	requireSIMD(t)
	generic(func() {
		t.Run("PackedScore", TestPackedScoreEquivalence)
		t.Run("AngularSAD", TestAngularSADEquivalence)
	})
}

// lineSADs returns the running sum at the end of each line of mode m's
// prediction from refs against src (lines are columns for a horizontal mode).
func lineSADs(m Mode, n int, refs Refs, src []int32) []int64 {
	pred := make([]int32, n*n)
	Predict(m, n, refs, pred)
	cum := make([]int64, n)
	var sum int64
	for l := range cum {
		for x := 0; x < n; x++ {
			i := l*n + x
			if Horizontal(m) {
				i = x*n + l
			}
			sum += int64(max(pred[i]-src[i], src[i]-pred[i]))
		}
		cum[l] = sum
	}
	return cum
}

// TestSIMDScoreEquivalence: the AVX2 scorer returns the packed-lane scorer's
// integer, and the one the line sums of Predict's block give, for every
// angular mode, both filters and n = 8, 16, 32 — at no bound, at a bound
// exactly at each line's running sum and one below it (the exit the kernel
// must take at that line, not a line later), and below the first line — on
// flat, random, 0/255-extreme and smoothed references against random sources,
// sources near the references, and sources at the other end of the range
// from them (every |v−s| 255: each lane's sum at its ceiling). Modes are
// scored in a random order within one Reset, so a negative-angle mode's
// extension of the shared array must not leak into the next; and after each
// mode the int16 array is angularRef's, spare slot included, over the span the
// mode reads — blocks go largest first, so the slots a smaller block does not
// write hold a larger one's samples.
func TestSIMDScoreEquivalence(t *testing.T) {
	requireSIMD(t)
	rng := rand.New(rand.NewSource(34))
	var simd, gen Scorer
	for _, n := range []int{32, 16, 8} {
		src := make([]int32, n*n)
		simdSmooth, genSmooth := NewRefs(n), NewRefs(n)
		sets := equivalenceRefs(rng, n)
		for ri := 0; ri < 3*len(sets); ri++ {
			r := sets[ri%len(sets)]
			for i := range src {
				switch ri / len(sets) {
				case 0:
					src[i] = int32(rng.Intn(256))
				case 1:
					src[i] = min(max(r.Above[i%n]+int32(rng.Intn(5))-2, 0), 255)
				default: // the far end of the range from the reference
					src[i] = 255
					if r.Above[i%n] >= 128 {
						src[i] = 0
					}
				}
			}
			simd.Reset(n, src, r, simdSmooth)
			generic(func() { gen.Reset(n, src, r, genSmooth) })
			if !simd.simd || gen.simd {
				t.Fatalf("n=%d: scorer forms simd=%v generic=%v", n, simd.simd, gen.simd)
			}
			for _, k := range rng.Perm(33) {
				m := Mode(2 + k)
				for _, smoothed := range []bool{false, true} {
					cum := lineSADs(m, n, simd.Refs(smoothed), src)
					bounds := []int64{math.MaxInt64, cum[0] - 1, -1}
					for _, c := range cum {
						bounds = append(bounds, c, c-1)
					}
					for _, bound := range bounds {
						want := cum[n-1]
						for _, c := range cum {
							if c > bound {
								want = c
								break
							}
						}
						got, ref := simd.SAD(m, smoothed, bound), gen.SAD(m, smoothed, bound)
						if got != want || ref != want {
							t.Fatalf("n=%d refs#%d mode %d smoothed=%v bound %d: AVX2 %d, packed lanes %d, line sums %d", n, ri, m, smoothed, bound, got, ref, want)
						}
					}
					var buf [3*MaxBlockSize + 2]int32
					want, angle := angularRef(&buf, m, n, simd.Refs(smoothed))
					lo := n
					if angle < 0 {
						lo = n - negativeExtent(n, angle)
					}
					ref16 := &simd.ref16[b2i(smoothed)][b2i(Horizontal(m))]
					for i := lo; i <= 3*n+1; i++ {
						if int32(ref16[i]) != want[i] {
							t.Fatalf("n=%d refs#%d mode %d smoothed=%v: ref16[%d] = %d, angularRef %d", n, ri, m, smoothed, i, ref16[i], want[i])
						}
					}
				}
			}
		}
	}
}

// FuzzSIMDKernels: any 8-bit block and references, any angular mode, filter
// and bound score the same on the AVX2 and the packed-lane scorer. The seeds
// sit at the ends of the sample range and at line exits; plain `go test`
// replays them.
func FuzzSIMDKernels(f *testing.F) {
	for si := 0; si < 3; si++ {
		n := 8 << si
		for _, fill := range [][2]byte{{0, 255}, {255, 0}, {77, 77}, {0, 0}} {
			data := make([]byte, 1+4*n+n*n)
			for i := range data {
				data[i] = fill[i%2]
				if i > 4*n {
					data[i] = fill[1-i%2]
				}
			}
			for _, m := range []uint8{2, 10, 11, 18, 25, 26, 34} {
				for _, bound := range []int64{math.MaxInt64, 0, int64(255 * n), int64(255*n) - 1} {
					f.Add(uint8(si), m, m%2 == 0, bound, data)
				}
			}
		}
	}
	f.Fuzz(func(t *testing.T, size, mode uint8, smoothed bool, bound int64, data []byte) {
		if !cpufeat.AVX2FMA {
			t.Skip("no AVX2 on this CPU")
		}
		n := 8 << (size % 3)
		m := Mode(2 + mode%33)
		sample := func(i int) int32 {
			if len(data) == 0 {
				return 0
			}
			return int32(data[i%len(data)])
		}
		r := NewRefs(n)
		r.Corner = sample(0)
		for i := range r.Above {
			r.Above[i], r.Left[i] = sample(1+i), sample(1+2*n+i)
		}
		src := make([]int32, n*n)
		for i := range src {
			src[i] = sample(1 + 4*n + i)
		}
		var simd, gen Scorer
		simd.Reset(n, src, r, NewRefs(n))
		generic(func() { gen.Reset(n, src, r, NewRefs(n)) })
		for _, b := range []int64{bound, math.MaxInt64} {
			if got, want := simd.SAD(m, smoothed, b), gen.SAD(m, smoothed, b); got != want {
				t.Fatalf("n=%d mode %d smoothed=%v bound %d: AVX2 %d, packed lanes %d", n, m, smoothed, b, got, want)
			}
		}
	})
}
