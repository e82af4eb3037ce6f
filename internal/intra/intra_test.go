package intra

import (
	"math"
	"math/rand"
	"sort"
	"testing"
	"testing/quick"

	"repro/internal/cpufeat"
	"repro/internal/quant"
	"repro/internal/tensorgen"
)

func TestAllModesInRange(t *testing.T) {
	// Every mode, every size: predictions from valid references must stay
	// within [0, 255].
	rng := rand.New(rand.NewSource(1))
	for _, n := range []int{4, 8, 16, 32} {
		r := NewRefs(n)
		r.Corner = int32(rng.Intn(256))
		for i := range r.Above {
			r.Above[i] = int32(rng.Intn(256))
			r.Left[i] = int32(rng.Intn(256))
		}
		dst := make([]int32, n*n)
		for m := Mode(0); m < NumModes; m++ {
			Predict(m, n, r, dst)
			for i, v := range dst {
				if v < 0 || v > 255 {
					t.Fatalf("mode %d n=%d idx=%d: out of range %d", m, n, i, v)
				}
			}
		}
	}
}

func TestDCIsMean(t *testing.T) {
	n := 8
	r := constRefs(n, 77)
	dst := make([]int32, n*n)
	Predict(DC, n, r, dst)
	for _, v := range dst {
		if v != 77 {
			t.Fatalf("DC of constant refs = %d, want 77", v)
		}
	}
}

func TestVerticalCopiesAboveRow(t *testing.T) {
	n := 8
	r := NewRefs(n)
	for i := range r.Above {
		r.Above[i] = int32(i * 10 % 256)
	}
	dst := make([]int32, n*n)
	Predict(ModeVertical, n, r, dst)
	for y := 0; y < n; y++ {
		for x := 0; x < n; x++ {
			if dst[y*n+x] != r.Above[x] {
				t.Fatalf("vertical (%d,%d): got %d want %d", x, y, dst[y*n+x], r.Above[x])
			}
		}
	}
}

func TestHorizontalCopiesLeftColumn(t *testing.T) {
	n := 8
	r := NewRefs(n)
	for i := range r.Left {
		r.Left[i] = int32(i*7 + 3)
	}
	dst := make([]int32, n*n)
	Predict(ModeHorizontal, n, r, dst)
	for y := 0; y < n; y++ {
		for x := 0; x < n; x++ {
			if dst[y*n+x] != r.Left[y] {
				t.Fatalf("horizontal (%d,%d): got %d want %d", x, y, dst[y*n+x], r.Left[y])
			}
		}
	}
}

func TestPlanarConstant(t *testing.T) {
	n := 16
	r := constRefs(n, 123)
	dst := make([]int32, n*n)
	Predict(Planar, n, r, dst)
	for i, v := range dst {
		if v != 123 {
			t.Fatalf("planar of constant refs idx %d = %d, want 123", i, v)
		}
	}
}

func TestPlanarGradient(t *testing.T) {
	// A left column ramp should produce a roughly vertical gradient.
	n := 8
	r := NewRefs(n)
	for i := range r.Left {
		r.Left[i] = int32(i * 20)
		if r.Left[i] > 255 {
			r.Left[i] = 255
		}
	}
	for i := range r.Above {
		r.Above[i] = 0
	}
	r.Corner = 0
	dst := make([]int32, n*n)
	Predict(Planar, n, r, dst)
	// Values in column 0 should increase down the block.
	for y := 1; y < n; y++ {
		if dst[y*n] < dst[(y-1)*n] {
			t.Fatalf("planar not increasing down col 0: row %d %d < row %d %d",
				y, dst[y*n], y-1, dst[(y-1)*n])
		}
	}
}

func TestAngularDiagonalMode34(t *testing.T) {
	// Mode 34 (angle +32, vertical family) predicts dst(x,y) from
	// above[x+y+1].
	n := 4
	r := NewRefs(n)
	for i := range r.Above {
		r.Above[i] = int32(i + 1)
	}
	dst := make([]int32, n*n)
	Predict(34, n, r, dst)
	for y := 0; y < n; y++ {
		for x := 0; x < n; x++ {
			want := r.Above[x+y+1]
			if dst[y*n+x] != want {
				t.Fatalf("mode34 (%d,%d): got %d want %d", x, y, dst[y*n+x], want)
			}
		}
	}
}

func TestAngularMode2(t *testing.T) {
	// Mode 2 (angle +32, horizontal family) predicts from left[x+y+1].
	n := 4
	r := NewRefs(n)
	for i := range r.Left {
		r.Left[i] = int32(100 + i)
	}
	dst := make([]int32, n*n)
	Predict(2, n, r, dst)
	for y := 0; y < n; y++ {
		for x := 0; x < n; x++ {
			want := r.Left[x+y+1]
			if dst[y*n+x] != want {
				t.Fatalf("mode2 (%d,%d): got %d want %d", x, y, dst[y*n+x], want)
			}
		}
	}
}

func TestNegativeAngleModesUseProjection(t *testing.T) {
	// Modes with negative angles (11..25 excluding 18? no: 11-17, 19-25)
	// must not panic and must stay in range even with extreme references.
	for _, n := range []int{4, 8, 16, 32} {
		r := NewRefs(n)
		for i := range r.Above {
			r.Above[i] = 255
			r.Left[i] = 0
		}
		r.Corner = 128
		dst := make([]int32, n*n)
		for m := Mode(11); m <= 25; m++ {
			Predict(m, n, r, dst)
			for i, v := range dst {
				if v < 0 || v > 255 {
					t.Fatalf("mode %d n=%d idx %d: %d out of range", m, n, i, v)
				}
			}
		}
	}
}

func TestSmoothedPreservesConstant(t *testing.T) {
	n := 16
	r := constRefs(n, 99)
	s := r.SmoothedInto(NewRefs(n))
	if s.Corner != 99 {
		t.Fatalf("smoothed corner %d", s.Corner)
	}
	for i := range s.Above {
		if s.Above[i] != 99 || s.Left[i] != 99 {
			t.Fatalf("smoothing altered constant refs at %d: %d %d", i, s.Above[i], s.Left[i])
		}
	}
}

func TestSmoothingDecision(t *testing.T) {
	if UseSmoothing(4, 20) {
		t.Fatal("4x4 blocks should not smooth")
	}
	if UseSmoothing(32, ModeVertical) {
		t.Fatal("pure vertical should not smooth")
	}
	if !UseSmoothing(32, 20) {
		t.Fatal("oblique mode on 32x32 should smooth")
	}
	if UseSmoothing(16, DC) {
		t.Fatal("DC never smooths")
	}
}

// TestUseSmoothingTable holds the table UseSmoothing, Rank and the scorer
// read to the rules it is built from, for every mode at every block size the
// codecs predict and one beyond: the smoothing rule, the mode's angle and
// orientation, and the projected side sample of every slot below the corner.
func TestUseSmoothingTable(t *testing.T) {
	for _, n := range []int{4, 8, 16, 32, 64} {
		for m := Mode(0); m < NumModes; m++ {
			if want := useSmoothing(n, m); UseSmoothing(n, m) != want {
				t.Fatalf("n=%d mode %d: UseSmoothing %v, rule %v", n, m, UseSmoothing(n, m), want)
			}
			d := modeForms[sizeClass(n)][m]
			if m < 2 || n > MaxBlockSize {
				continue
			}
			if d.angle != angleTable[m-2] || int(d.o) != b2i(Horizontal(m)) {
				t.Fatalf("n=%d mode %d: angle %d orientation %d, want %d %v", n, m, d.angle, d.o, angleTable[m-2], Horizontal(m))
			}
			var need int
			if d.angle < 0 {
				need = negativeExtent(n, d.angle)
			}
			if len(d.from) != need {
				t.Fatalf("n=%d mode %d: %d projected samples, want %d", n, m, len(d.from), need)
			}
			for i, j := range d.from {
				if int(j) != projectedSide(i+1, invAngleTable[-d.angle], n) {
					t.Fatalf("n=%d mode %d: slot %d projects side sample %d, want %d", n, m, n-1-i, j, projectedSide(i+1, invAngleTable[-d.angle], n))
				}
			}
		}
	}
}

func TestPredictionPropertyBounded(t *testing.T) {
	// Property: predictions are convex-ish combinations of references, so
	// min(ref) <= pred <= max(ref) within rounding slack.
	f := func(seed int64, modeRaw uint8, sizeIdx uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		n := []int{4, 8, 16, 32}[sizeIdx%4]
		m := Mode(modeRaw % NumModes)
		r := NewRefs(n)
		lo, hi := int32(255), int32(0)
		obs := func(v int32) {
			if v < lo {
				lo = v
			}
			if v > hi {
				hi = v
			}
		}
		r.Corner = int32(rng.Intn(256))
		obs(r.Corner)
		for i := range r.Above {
			r.Above[i] = int32(rng.Intn(256))
			r.Left[i] = int32(rng.Intn(256))
			obs(r.Above[i])
			obs(r.Left[i])
		}
		dst := make([]int32, n*n)
		Predict(m, n, r, dst)
		for _, v := range dst {
			if v < lo-1 || v > hi+1 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// TestPredictEquivalence holds Predict, every mode of it, to its definition
// on every kernel path, for every size and every reference set forEachBlock
// makes (flat ones at 0 and 255, the ends of Planar's int16 range, among
// them, and smoothed ones).
func TestPredictEquivalence(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	for _, n := range []int{4, 8, 16, 32} {
		got, want := make([]int32, n*n), make([]int32, n*n)
		forEachBlock(rng, n, make([]int32, n*n), func(r Refs, what string) {
			for m := Mode(0); m < NumModes; m++ {
				predictDef(m, n, r, want)
				kernelPaths(func(simd bool) {
					for i := range got {
						got[i] = -1
					}
					Predict(m, n, r, got)
					requireSameBlock(t, got, want, "n=%d %s mode %d simd %v", n, what, m, simd)
				})
			}
		})
	}
}

// TestSmoothEquivalence holds Refs.SmoothedInto to its definition.
func TestSmoothEquivalence(t *testing.T) {
	rng := rand.New(rand.NewSource(32))
	for _, n := range []int{4, 8, 16, 32} {
		forEachBlock(rng, n, make([]int32, n*n), func(r Refs, what string) {
			got, want := r.SmoothedInto(NewRefs(n)), smoothDef(r)
			requireSameBlock(t, append(append([]int32{got.Corner}, got.Above...), got.Left...),
				append(append([]int32{want.Corner}, want.Above...), want.Left...), "n=%d %s: corner, above, left", n, what)
		})
	}
}

// TestPackLinesEquivalence holds the scorer's source lines, on every kernel
// path, to the block's rows and columns: the int16 copies sample for sample,
// the packed words lane for lane less their bias.
func TestPackLinesEquivalence(t *testing.T) {
	rng := rand.New(rand.NewSource(36))
	var sc Scorer
	for _, n := range []int{4, 8, 16, 32} {
		src := make([]int32, n*n)
		forEachBlock(rng, n, src, func(r Refs, what string) {
			kernelPaths(func(simd bool) {
				sc.Reset(n, src, r, NewRefs(n))
				for o, columns := range []bool{false, true} {
					sc.packLines(o)
					for l := 0; l < n; l++ {
						for j := 0; j < n; j++ {
							got := int32(sc.line16[o][l*n+j])
							if !sc.simd {
								got = int32(sc.line[o][(l*n+j)/4]>>(16*(j%4))&0xFFFF) - 0x7FFF
							}
							if want := linesDef(src, n, columns, l, j); got != want {
								t.Fatalf("n=%d %s simd %v columns %v: line %d sample %d = %d, definition %d", n, what, sc.simd, columns, l, j, got, want)
							}
						}
					}
				}
			})
		})
	}
}

// TestScorerPredictReprojects: the survivors are predicted after the search
// has scored other modes, so the words below the corner of a negative-angle
// survivor's int16 array hold the projection of whichever mode of its
// orientation and filter was scored last. For every ordered pair of distinct
// negative-angle modes sharing an orientation, Scorer.Predict of one after
// scoring the other must still write its own prediction.
func TestScorerPredictReprojects(t *testing.T) {
	rng := rand.New(rand.NewSource(35))
	var sc Scorer
	for _, n := range []int{8, 16, 32} {
		src, got, want := make([]int32, n*n), make([]int32, n*n), make([]int32, n*n)
		r := NewRefs(n)
		r.Corner = int32(rng.Intn(256))
		for i := range r.Above {
			r.Above[i], r.Left[i] = int32(rng.Intn(256)), int32(rng.Intn(256))
		}
		for i := range src {
			src[i] = int32(rng.Intn(256))
		}
		negative := func(m Mode) bool { return m >= 2 && angleTable[m-2] < 0 }
		kernelPaths(func(simd bool) {
			for a := Mode(2); a < NumModes; a++ {
				for b := Mode(2); b < NumModes; b++ {
					if a == b || !negative(a) || !negative(b) || Horizontal(a) != Horizontal(b) {
						continue
					}
					for _, smoothed := range []bool{false, true} {
						sc.Reset(n, src, r, NewRefs(n))
						sc.SAD(a, smoothed, math.MaxInt64)
						sc.SAD(b, smoothed, math.MaxInt64)
						sc.Predict(a, smoothed, got)
						predictDef(a, n, sc.Refs(smoothed), want)
						requireSameBlock(t, got, want, "n=%d simd %v smoothed %v: mode %d predicted after scoring mode %d", n, simd, smoothed, a, b)
					}
				}
			}
		})
	}
}

// TestPackedScoreEquivalence holds Scorer.SAD on the packed-lane path, the one
// every host runs, to the score by definition (scoreEquivalence).
func TestPackedScoreEquivalence(t *testing.T) { scoreEquivalence(t, false, 33) }

// TestSIMDScoreEquivalence holds Scorer.SAD on the AVX2 path to the score by
// definition (scoreEquivalence), and its int16 array to angularRefDef's.
func TestSIMDScoreEquivalence(t *testing.T) {
	if !cpufeat.AVX2FMA {
		t.Skip("no AVX2 on this CPU: TestPackedScoreEquivalence holds the only scorer path it runs")
	}
	scoreEquivalence(t, true, 34)
}

// scoreEquivalence holds Scorer.SAD, on one kernel path, to the score by
// definition for every mode, both filters (the scorer's own smoothing) and
// every size, on forEachBlock's references and sources — at no bound, at a
// bound exactly at each line's running sum and one below it (the exit the
// kernel must take at that line, not a line later; the last line's is the
// exact SAD), below the first line, at fractions of the full SAD, at 0 and
// below — and Scorer.Predict to predictDef. Modes are scored in a random
// order within one Reset, so that a negative-angle mode's extension of the
// shared array must not survive into the next mode's score. On the AVX2 path,
// after each angular mode the int16 array is angularRefDef's, spare slot
// included, over the span the mode reads — blocks go largest first, so the
// slots a smaller block does not write hold a larger one's samples.
func scoreEquivalence(t *testing.T, simd bool, seed int64) {
	rng := rand.New(rand.NewSource(seed))
	var sc Scorer
	for _, n := range []int{32, 16, 8, 4} {
		src := make([]int32, n*n)
		smoothInto := NewRefs(n)
		forEachBlock(rng, n, src, func(r Refs, what string) {
			var cums [2][NumModes][]int64
			var preds [2][NumModes][]int32
			for m := Mode(0); m < NumModes; m++ {
				for f, ref := range []Refs{r, r.SmoothedInto(NewRefs(n))} {
					cums[f][m] = lineSADs(m, n, ref, src)
					preds[f][m] = make([]int32, n*n)
					predictDef(m, n, ref, preds[f][m])
				}
			}
			got := make([]int32, n*n)
			order := rng.Perm(NumModes)
			onPath(simd, func() {
				sc.Reset(n, src, r, smoothInto)
				if sc.simd != (simd && n >= 8) {
					t.Fatalf("n=%d simd %v: scorer took the AVX2 form = %v", n, simd, sc.simd)
				}
				for _, k := range order {
					m := Mode(k)
					for f, smoothed := range []bool{false, true} {
						cum := cums[f][m]
						bounds := []int64{math.MaxInt64, cum[0] - 1, cum[n-1] / 2, cum[n-1] / 7, 0, -1}
						for _, c := range cum {
							bounds = append(bounds, c, c-1)
						}
						for _, bound := range bounds {
							if got, want := sc.SAD(m, smoothed, bound), sadDef(cum, bound); got != want {
								t.Fatalf("n=%d %s mode %d smoothed=%v bound %d (SAD %d), simd %v: score %d, definition %d",
									n, what, m, smoothed, bound, cum[n-1], simd, got, want)
							}
						}
						sc.Predict(m, smoothed, got)
						requireSameBlock(t, got, preds[f][m], "n=%d %s mode %d smoothed=%v simd %v: Scorer.Predict", n, what, m, smoothed, simd)
						if !sc.simd || m < 2 {
							continue
						}
						want := angularRefDef(m, n, sc.Refs(smoothed))
						lo := n
						if angle := angleTable[m-2]; angle < 0 {
							lo = n - negativeExtent(n, angle)
						}
						ref16 := &sc.ref16[f][b2i(Horizontal(m))]
						for i := lo; i <= 3*n+1; i++ {
							if int32(ref16[i]) != want[i] {
								t.Fatalf("n=%d %s mode %d smoothed=%v: ref16[%d] = %d, definition %d", n, what, m, smoothed, i, ref16[i], want[i])
							}
						}
					}
				}
			})
		})
	}
}

// FuzzSIMDKernels: any 8-bit block and references, any mode, filter and
// bound score on every kernel path as the definition scores them, and
// Predict and Scorer.Predict write the definition's block. The seeds sit at
// the ends of the sample range and at line exits, every mode on every size
// both raw and smoothed, and inside the kernels' groups of lines (pairs, and
// fours at n = 8): a bound at the running sum after line 2j (the exit is a
// later line's, where the group first crosses) and one below it (line 2j's),
// on both orientations and both filters; plain `go test` replays them.
func FuzzSIMDKernels(f *testing.F) {
	bounds := []int64{math.MaxInt64, 0, 255, 254}
	for si := 0; si < 4; si++ {
		n := 4 << si
		for fi, fill := range [][2]byte{{0, 255}, {255, 0}, {77, 77}, {0, 0}, {255, 255}} {
			data := make([]byte, 1+4*n+n*n)
			for i := range data {
				data[i] = fill[i%2]
				if i > 4*n {
					data[i] = fill[1-i%2]
				}
			}
			for m := 0; m < NumModes; m++ {
				f.Add(uint8(si), uint8(m), (m+fi)%2 == 0, bounds[(m+fi)%4]*int64(n), data)
			}
		}
	}
	rng := rand.New(rand.NewSource(36))
	for si := 1; si < 4; si++ {
		n := 4 << si
		data := make([]byte, 1+4*n+n*n)
		rng.Read(data)
		for _, m := range []Mode{ModeHorizontal, 14, ModeVertical, 22} { // each orientation, one a negative angle
			for _, smoothed := range []bool{false, true} {
				_, ref, src := fuzzBlock(n, smoothed, data)
				cum := lineSADs(m, n, ref, src)
				for j := 0; j < n/2; j++ {
					if n > 8 && j > 1 && j < n/2-1 {
						continue
					}
					f.Add(uint8(si), uint8(m), smoothed, cum[2*j], data)
					f.Add(uint8(si), uint8(m), smoothed, cum[2*j]-1, data)
				}
			}
		}
	}
	f.Fuzz(func(t *testing.T, size, mode uint8, smoothed bool, bound int64, data []byte) {
		n := 4 << (size % 4)
		m := Mode(mode % NumModes)
		r, ref, src := fuzzBlock(n, smoothed, data)
		cum := lineSADs(m, n, ref, src)
		want, got := make([]int32, n*n), make([]int32, n*n)
		predictDef(m, n, ref, want)
		kernelPaths(func(simd bool) {
			var sc Scorer
			sc.Reset(n, src, r, NewRefs(n))
			for _, b := range []int64{bound, math.MaxInt64} {
				if got, want := sc.SAD(m, smoothed, b), sadDef(cum, b); got != want {
					t.Fatalf("n=%d mode %d smoothed=%v bound %d, simd %v: score %d, definition %d", n, m, smoothed, b, simd, got, want)
				}
			}
			sc.Predict(m, smoothed, got)
			requireSameBlock(t, got, want, "n=%d mode %d smoothed=%v simd %v: Scorer.Predict", n, m, smoothed, simd)
			Predict(m, n, ref, got)
			requireSameBlock(t, got, want, "n=%d mode %d smoothed=%v simd %v: Predict", n, m, smoothed, simd)
		})
	})
}

// fuzzBlock is FuzzSIMDKernels' block of edge n cut from data: the
// references r, the references a mode reads (r smoothed where smoothed is
// set) and the source.
func fuzzBlock(n int, smoothed bool, data []byte) (r, ref Refs, src []int32) {
	sample := func(i int) int32 {
		if len(data) == 0 {
			return 0
		}
		return int32(data[i%len(data)])
	}
	r = NewRefs(n)
	r.Corner = sample(0)
	for i := range r.Above {
		r.Above[i], r.Left[i] = sample(1+i), sample(1+2*n+i)
	}
	src = make([]int32, n*n)
	for i := range src {
		src[i] = sample(1 + 4*n + i)
	}
	ref = r
	if smoothed {
		ref = r.SmoothedInto(NewRefs(n))
	}
	return r, ref, src
}

// TestRankEquivalence holds Scorer.Rank, on every kernel path, to the
// ranking by definition: every listed mode's full SAD by definition (its
// references smoothed where smooth is set and UseSmoothing holds), stably
// sorted by ascending score and, among equal scores, descending list index —
// the later-scored mode first — and cut at k. Mode lists are drawn of any
// length and order, Planar and DC among the angular modes (which splits the
// lanes kernel's runs), on sources near flat (many tying scores) and at full
// range, for every size, k and filter setting; the scorer is reused across
// lists.
func TestRankEquivalence(t *testing.T) {
	rng := rand.New(rand.NewSource(37))
	var sc Scorer
	for trial := 0; trial < 3000; trial++ {
		n := 4 << rng.Intn(4)
		amp := int32(1 + rng.Intn(3))
		if trial%3 == 0 {
			amp = 255
		}
		r := NewRefs(n)
		r.Corner = rng.Int31n(amp + 1)
		for i := range r.Above {
			r.Above[i], r.Left[i] = rng.Int31n(amp+1), rng.Int31n(amp+1)
		}
		src := make([]int32, n*n)
		for i := range src {
			src[i] = rng.Int31n(amp + 1)
		}
		modes := make([]Mode, 1+rng.Intn(NumModes))
		for i, m := range rng.Perm(NumModes)[:len(modes)] {
			modes[i] = Mode(m)
		}
		smooth, k := trial%2 == 0, 1+rng.Intn(MaxRanked)
		smoothed := r.SmoothedInto(NewRefs(n))
		sads := make([]int64, len(modes))
		for i, m := range modes {
			ref := r
			if smooth && UseSmoothing(n, m) {
				ref = smoothed
			}
			sads[i] = sadDef(lineSADs(m, n, ref, src), math.MaxInt64)
		}
		want := make([]int, len(modes))
		for i := range want {
			want[i] = i
		}
		sort.SliceStable(want, func(a, b int) bool {
			if sads[want[a]] != sads[want[b]] {
				return sads[want[a]] < sads[want[b]]
			}
			return want[a] > want[b]
		})
		want = want[:min(k, len(want))]
		kernelPaths(func(simd bool) {
			sc.Reset(n, src, r, NewRefs(n))
			got := sc.Rank(modes, smooth, k)
			if got.K != k || got.N != len(want) {
				t.Fatalf("trial %d (n=%d, simd %v): ranked K=%d N=%d, want %d %d", trial, n, simd, got.K, got.N, k, len(want))
			}
			for i, mi := range want {
				if got.Idx[i] != mi || got.Score[i] != sads[mi] {
					t.Fatalf("trial %d (n=%d, %d modes, k %d, smooth %v, simd %v): ranked %v scores %v, definition %v",
						trial, n, len(modes), k, smooth, simd, got.Idx[:got.N], got.Score[:got.N], want)
				}
			}
		})
	}
}

// benchBlocks cuts count n×n source blocks, with the references around each,
// out of a generated weight plane: kernels are timed rotating over them so
// that the branch predictor cannot memorise one block's sign pattern.
func benchBlocks(n, count int) (srcs [][]int32, refs []Refs) {
	const dim = 256
	rng := rand.New(rand.NewSource(2))
	pix, _, _ := quant.ToUint8(tensorgen.Weights(rng, dim, dim))
	at := func(x, y int) int32 { return int32(pix[y%dim*dim+x%dim]) }
	for b := 0; b < count; b++ {
		x0, y0 := 1+rng.Intn(dim-3*n), 1+rng.Intn(dim-3*n)
		src := make([]int32, n*n)
		for i := range src {
			src[i] = at(x0+i%n, y0+i/n)
		}
		r := NewRefs(n)
		r.Corner = at(x0-1, y0-1)
		for i := range r.Above {
			r.Above[i] = at(x0+i, y0-1)
			r.Left[i] = at(x0-1, y0+i)
		}
		srcs, refs = append(srcs, src), append(refs, r)
	}
	return srcs, refs
}

const benchBlockCount = 64

func BenchmarkPredictAngular8(b *testing.B) {
	benchPredict(b, 8, func(i int) Mode { return Mode(2 + i%33) })
}
func BenchmarkPredictAngular16(b *testing.B) {
	benchPredict(b, 16, func(i int) Mode { return Mode(2 + i%33) })
}
func BenchmarkPredictAngular32(b *testing.B) {
	benchPredict(b, 32, func(i int) Mode { return Mode(2 + i%33) })
}
func BenchmarkPredictPlanar16(b *testing.B) { benchPredict(b, 16, func(int) Mode { return Planar }) }
func BenchmarkPredictDC16(b *testing.B)     { benchPredict(b, 16, func(int) Mode { return DC }) }

func benchPredict(b *testing.B, n int, mode func(i int) Mode) {
	_, refs := benchBlocks(n, benchBlockCount)
	dst := make([]int32, n*n)
	b.SetBytes(int64(n * n))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		Predict(mode(i), n, refs[i%benchBlockCount], dst)
	}
}

func BenchmarkScoreAngular4(b *testing.B)  { benchScoreAngular(b, 4) }
func BenchmarkScoreAngular8(b *testing.B)  { benchScoreAngular(b, 8) }
func BenchmarkScoreAngular16(b *testing.B) { benchScoreAngular(b, 16) }
func BenchmarkScoreAngular32(b *testing.B) { benchScoreAngular(b, 32) }

// BenchmarkScorePlanarDC16 times the scores the coarse search opens a leaf
// with: point the scorer at the block, score Planar and DC against no bound
// (b.N counts leaves).
func BenchmarkScorePlanarDC16(b *testing.B) {
	const n = 16
	srcs, refs := benchBlocks(n, benchBlockCount)
	var sc Scorer
	smooth := NewRefs(n)
	b.SetBytes(int64(n * n))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sc.Reset(n, srcs[i%benchBlockCount], refs[i%benchBlockCount], smooth)
		sc.SAD(Planar, true, math.MaxInt64)
		sc.SAD(DC, false, math.MaxInt64)
	}
}

// benchScoreAngular times the angular part of the coarse search as decideLeaf
// runs it on one leaf: point the scorer at the block, rank all 33 angular
// modes against the bound of a top-3 set that tightens as better modes are
// found, predict the three survivors (b.N counts leaves; bytes are the
// leaf's samples once, not once per mode).
func benchScoreAngular(b *testing.B, n int) {
	srcs, refs := benchBlocks(n, benchBlockCount)
	var sc Scorer
	smooth := NewRefs(n)
	pred := make([]int32, n*n)
	angular := HEVCModes[2:]
	b.SetBytes(int64(n * n))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sc.Reset(n, srcs[i%benchBlockCount], refs[i%benchBlockCount], smooth)
		top := sc.Rank(angular, true, MaxRanked)
		for _, j := range top.Idx[:top.N] {
			m := angular[j]
			sc.Predict(m, UseSmoothing(n, m), pred)
		}
	}
}
