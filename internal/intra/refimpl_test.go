package intra

import (
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/cpufeat"
)

// The definitions the package's kernels are held to (DESIGN.md §11.1), one
// per kernel, each compared directly with every path of its kernel:
//
//	Predict, angular   predictDef: the per-pixel formula over angularRefDef's array
//	Predict, Planar    predictDef: the dividing formula
//	Predict, DC        predictDef: the dividing mean
//	Scorer.Predict     predictDef
//	Scorer.SAD         sadDef over lineSADs: predictDef's block scored line by
//	                   line, cut at the end of the first line above the bound
//	Scorer.packLines   linesDef: the block's rows or columns
//	Refs.SmoothedInto  smoothDef: the [1 2 1] tap over the corner-joined array
//
// beside the inputs the tests share (forEachBlock) and the kernel paths they
// run on (kernelPaths).

// angularRefDef is angular mode m's main reference array by definition,
// 3n+2 entries: the corner at n, the main side's 2n samples from n+1, for a
// negative angle the side samples projected through the inverse angle below
// n, and the spare slot 3n+1 zero.
func angularRefDef(m Mode, n int, r Refs) []int32 {
	angle := angleTable[m-2]
	ref := make([]int32, 3*n+2)
	main, side := r.Above, r.Left
	if m < 18 {
		main, side = r.Left, r.Above
	}
	ref[n] = r.Corner
	for i := 0; i < 2*n; i++ {
		ref[n+1+i] = main[i]
	}
	if angle < 0 {
		inv := map[int32]int32{2: 4096, 5: 1638, 9: 910, 13: 630, 17: 482, 21: 390, 26: 315, 32: 256}[-angle]
		need := (int(-angle)*n + 31) >> 5
		for i := 1; i <= need; i++ {
			idx := min(max((int32(i)*inv+128)>>8, 1), int32(2*n))
			ref[n-i] = side[idx-1]
		}
	}
	return ref
}

// predictDef is Predict by definition: Planar and DC as the HEVC formulas
// with their division, an angular mode one sample at a time — sample x of
// line y blends ref[n+1+x+⌊(y+1)·angle/32⌋] and the sample after it at weight
// (y+1)·angle mod 32 — with the lines rows for a vertical mode (18–34) and
// columns for a horizontal one.
func predictDef(m Mode, n int, r Refs, dst []int32) {
	switch m {
	case Planar:
		tr, bl := r.Above[n], r.Left[n]
		for y := 0; y < n; y++ {
			for x := 0; x < n; x++ {
				h := int32(n-1-x)*r.Left[y] + int32(x+1)*tr
				v := int32(n-1-y)*r.Above[x] + int32(y+1)*bl
				dst[y*n+x] = (h + v + int32(n)) / int32(2*n)
			}
		}
		return
	case DC:
		var sum int32
		for i := 0; i < n; i++ {
			sum += r.Above[i] + r.Left[i]
		}
		for i := range dst[:n*n] {
			dst[i] = (sum + int32(n)) / int32(2*n)
		}
		return
	}
	angle, ref := angleTable[m-2], angularRefDef(m, n, r)
	for y := 0; y < n; y++ {
		pos := int32(y+1) * angle
		frac := pos & 31
		for x := 0; x < n; x++ {
			i0 := n + 1 + x + int(pos>>5)
			a, b := ref[i0], ref[i0]
			if i0+1 <= 3*n {
				b = ref[i0+1]
			}
			v := ((32-frac)*a + frac*b + 16) >> 5
			if m >= 18 {
				dst[y*n+x] = v
			} else {
				dst[x*n+y] = v
			}
		}
	}
}

// lineSADs returns the running sum at the end of each line of mode m's
// prediction by definition from refs against src (lines are columns for a
// horizontal mode, rows for every other).
func lineSADs(m Mode, n int, refs Refs, src []int32) []int64 {
	pred := make([]int32, n*n)
	predictDef(m, n, refs, pred)
	cum := make([]int64, n)
	var sum int64
	for l := range cum {
		for x := 0; x < n; x++ {
			i := l*n + x
			if m >= 2 && m < 18 {
				i = x*n + l
			}
			sum += int64(max(pred[i]-src[i], src[i]-pred[i]))
		}
		cum[l] = sum
	}
	return cum
}

// sadDef is the score by definition: the running sum at the end of the first
// line that exceeds bound, or the full SAD when none does.
func sadDef(cum []int64, bound int64) int64 {
	for _, c := range cum {
		if c > bound {
			return c
		}
	}
	return cum[len(cum)-1]
}

// linesDef is line l of the n×n block src as the scorer reads it: row l
// (columns false) or column l, sample j at j.
func linesDef(src []int32, n int, columns bool, l, j int) int32 {
	if columns {
		return src[j*n+l]
	}
	return src[l*n+j]
}

// smoothDef is Refs.SmoothedInto by definition: the array left[2n−1] …
// left[0], corner, above[0] … above[2n−1], each sample replaced by (before +
// 2·itself + after + 2) / 4, where the two ends stand in for their own
// missing neighbour.
func smoothDef(r Refs) Refs {
	n2 := len(r.Above)
	var line []int32
	for i := n2 - 1; i >= 0; i-- {
		line = append(line, r.Left[i])
	}
	line = append(append(line, r.Corner), r.Above...)
	at := func(i int) int32 { return line[min(max(i, 0), len(line)-1)] }
	s := NewRefs(n2 / 2)
	for i := range line {
		v := (at(i-1) + 2*line[i] + at(i+1) + 2) / 4
		switch {
		case i < n2:
			s.Left[n2-1-i] = v
		case i == n2:
			s.Corner = v
		default:
			s.Above[i-n2-1] = v
		}
	}
	return s
}

// kernelPaths calls f once for each kernel path this host runs, with
// cpufeat.AVX2FMA set to select it: the packed-lane scorer (simd false)
// always, the AVX2 one (simd true) where the CPU has it. A Scorer takes its
// path at Reset. It restores the flag.
func kernelPaths(f func(simd bool)) {
	for _, simd := range []bool{false, true} {
		if simd && !cpufeat.AVX2FMA {
			break
		}
		onPath(simd, func() { f(simd) })
	}
}

// onPath calls f with cpufeat.AVX2FMA set to simd, the one kernel path a
// test holds to its definition, and restores the flag.
func onPath(simd bool, f func()) {
	host := cpufeat.AVX2FMA
	defer func() { cpufeat.AVX2FMA = host }()
	cpufeat.AVX2FMA = simd
	f()
}

func requireSameBlock(t testing.TB, got, want []int32, format string, args ...any) {
	t.Helper()
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf(format+": [%d] = %d, definition %d", append(args, i, got[i], want[i])...)
		}
	}
}

func constRefs(n int, v int32) Refs {
	r := NewRefs(n)
	r.Corner = v
	for i := range r.Above {
		r.Above[i] = v
		r.Left[i] = v
	}
	return r
}

// forEachBlock calls f with the references and source blocks the kernel
// tests share, for n×n blocks: flat references at 0, 255 and 77, random
// ones, 0/255-extreme ones, and the [1 2 1]-smoothed form of each random
// set; each against a random source, a source near the references (small
// SADs, exits late) and a source at the far end of the sample range from
// them (every |v−s| near 255: each lane's sum at its ceiling). src is
// rewritten between calls.
func forEachBlock(rng *rand.Rand, n int, src []int32, f func(r Refs, what string)) {
	sets := []Refs{constRefs(n, 0), constRefs(n, 255), constRefs(n, 77)}
	for trial := 0; trial < 12; trial++ {
		r := NewRefs(n)
		r.Corner = int32(rng.Intn(256))
		for i := range r.Above {
			r.Above[i] = int32(rng.Intn(256))
			r.Left[i] = int32(rng.Intn(256))
			if trial%3 == 0 { // extremes only
				r.Above[i] = 255 * int32(rng.Intn(2))
				r.Left[i] = 255 * int32(rng.Intn(2))
			}
		}
		sets = append(sets, r, r.SmoothedInto(NewRefs(n)))
	}
	for ri, r := range sets {
		for kind, what := range []string{"random source", "source near the references", "source far from the references"} {
			for i := range src {
				switch kind {
				case 0:
					src[i] = int32(rng.Intn(256))
				case 1:
					src[i] = min(max(r.Above[i%n]+int32(rng.Intn(5))-2, 0), 255)
				default:
					src[i] = 255
					if r.Above[i%n] >= 128 {
						src[i] = 0
					}
				}
			}
			f(r, fmt.Sprintf("refs #%d, %s", ri, what))
		}
	}
}
