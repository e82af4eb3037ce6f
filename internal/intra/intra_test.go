package intra

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/quant"
	"repro/internal/tensorgen"
)

func constRefs(n int, v int32) Refs {
	r := NewRefs(n)
	r.Corner = v
	for i := range r.Above {
		r.Above[i] = v
		r.Left[i] = v
	}
	return r
}

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

// predictAngularPerPixel is the per-pixel formula predictAngular shipped
// with before it became per-row straight-line code: one bounds test and one
// strided store per sample. Kept as the differential reference.
func predictAngularPerPixel(m Mode, n int, r Refs, dst []int32) {
	angle := angleTable[m-2]
	vertical := m >= 18
	ref := make([]int32, 3*n+1)
	main, side := r.Above, r.Left
	if !vertical {
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
			idx := (int32(i)*inv + 128) >> 8
			if int(idx) > 2*n {
				idx = int32(2 * n)
			}
			if idx < 1 {
				idx = 1
			}
			ref[n-i] = side[idx-1]
		}
	}
	for y := 0; y < n; y++ {
		pos := int32(y+1) * angle
		intPart := int(pos >> 5)
		frac := pos & 31
		for x := 0; x < n; x++ {
			i0 := n + 1 + x + intPart
			a, b := ref[i0], ref[i0]
			if i0+1 <= 3*n {
				b = ref[i0+1]
			}
			v := ((32-frac)*a + frac*b + 16) >> 5
			if vertical {
				dst[y*n+x] = v
			} else {
				dst[x*n+y] = v
			}
		}
	}
}

func TestAngularMatchesPerPixelFormula(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	for _, n := range []int{4, 8, 16, 32} {
		refSets := []Refs{constRefs(n, 0), constRefs(n, 255), constRefs(n, 77)}
		for trial := 0; trial < 20; trial++ {
			r := NewRefs(n)
			r.Corner = int32(rng.Intn(256))
			for i := range r.Above {
				r.Above[i] = int32(rng.Intn(256))
				r.Left[i] = int32(rng.Intn(256))
				if trial%4 == 0 { // extremes only
					r.Above[i] = 255 * int32(rng.Intn(2))
					r.Left[i] = 255 * int32(rng.Intn(2))
				}
			}
			refSets = append(refSets, r)
		}
		got, want := make([]int32, n*n), make([]int32, n*n)
		for ri, r := range refSets {
			for m := Mode(2); m <= 34; m++ {
				for i := range got {
					got[i], want[i] = -1, -2
				}
				Predict(m, n, r, got)
				predictAngularPerPixel(m, n, r, want)
				for i := range want {
					if got[i] != want[i] {
						t.Fatalf("n=%d refs#%d mode %d: dst[%d] = %d, per-pixel formula %d", n, ri, m, i, got[i], want[i])
					}
				}
			}
		}
	}
}

// The kernels PR 17 shipped (commit c563641), kept verbatim as the
// differential references for the line generator that replaced them:
// predictAngularParent with its per-row and per-column layouts, and the
// dividing Planar and DC.

func predictAngularParent(m Mode, n int, r Refs, dst []int32) {
	angle := angleTable[m-2]
	vertical := m >= 18
	ref := make([]int32, 3*n+2)
	main, side := r.Above, r.Left
	if !vertical {
		main, side = r.Left, r.Above
	}
	ref[n] = r.Corner
	copy(ref[n+1:3*n+1], main[:2*n])
	if angle < 0 {
		inv := invAngleTable[-angle]
		need := (int(-angle)*n + 31) >> 5
		for i := 1; i <= need; i++ {
			idx := (int32(i)*inv + 128) >> 8
			if int(idx) > 2*n {
				idx = int32(2 * n)
			}
			if idx < 1 {
				idx = 1
			}
			ref[n-i] = side[idx-1]
		}
	}
	if vertical {
		angularRows(dst, ref, n, angle)
	} else {
		angularColumns(dst, ref, n, angle)
	}
}

func angularRows(dst, ref []int32, n int, angle int32) {
	for y := 0; y < n; y++ {
		pos := int32(y+1) * angle
		frac := pos & 31
		src := ref[n+1+int(pos>>5):][:n+1]
		row := dst[y*n:][:n]
		if frac == 0 {
			copy(row, src)
			continue
		}
		a := src[0]
		for x, b := range src[1:] {
			row[x] = (a<<5 + frac*(b-a) + 16) >> 5
			a = b
		}
	}
}

func angularColumns(dst, ref []int32, n int, angle int32) {
	base, fracs := make([]int32, n), make([]int32, n)
	for y := range base {
		pos := int32(y+1) * angle
		base[y] = int32(n+1) + pos>>5
		fracs[y] = pos & 31
	}
	for x := 0; x < n; x++ {
		row := dst[x*n:][:n]
		win := ref[x:]
		for y, b := range base {
			a := win[b]
			row[y] = (a<<5 + fracs[y]*(win[b+1]-a) + 16) >> 5
		}
	}
}

func predictPlanarParent(n int, r Refs, dst []int32) {
	tr := r.Above[n]
	bl := r.Left[n]
	for y := 0; y < n; y++ {
		for x := 0; x < n; x++ {
			h := int32(n-1-x)*r.Left[y] + int32(x+1)*tr
			v := int32(n-1-y)*r.Above[x] + int32(y+1)*bl
			dst[y*n+x] = (h + v + int32(n)) / int32(2*n)
		}
	}
}

func predictDCParent(n int, r Refs, dst []int32) {
	var sum int32
	for i := 0; i < n; i++ {
		sum += r.Above[i] + r.Left[i]
	}
	dc := (sum + int32(n)) / int32(2*n)
	for i := range dst {
		dst[i] = dc
	}
}

// equivalenceRefs is the reference matrix of the differential tests: flat,
// random, 0/255 extremes, and the [1 2 1]-smoothed form of each random set.
func equivalenceRefs(rng *rand.Rand, n int) []Refs {
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
		sets = append(sets, r, r.SmoothedInto(NewRefs(len(r.Above)/2)))
	}
	return sets
}

func requireSameBlock(t *testing.T, got, want []int32, format string, args ...any) {
	t.Helper()
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf(format+": [%d] = %d, reference %d", append(args, i, got[i], want[i])...)
		}
	}
}

// TestPredictEquivalence: every mode of the rewritten Predict against the
// kernels it replaced.
func TestPredictEquivalence(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	for _, n := range []int{4, 8, 16, 32} {
		got, want := make([]int32, n*n), make([]int32, n*n)
		for ri, r := range equivalenceRefs(rng, n) {
			for m := Mode(0); m < NumModes; m++ {
				for i := range got {
					got[i], want[i] = -1, -2
				}
				Predict(m, n, r, got)
				switch m {
				case Planar:
					predictPlanarParent(n, r, want)
				case DC:
					predictDCParent(n, r, want)
				default:
					predictAngularParent(m, n, r, want)
				}
				requireSameBlock(t, got, want, "n=%d refs#%d mode %d", n, ri, m)
			}
		}
	}
}

// AngularSAD and angularLineSAD are the scalar score-as-you-predict kernels PR
// 18 shipped (commit e97cb0f), kept verbatim as the differential reference for
// Scorer.SAD, which replaced them in the coarse search.

// AngularSAD predicts angular mode m into pred line by line — rows for a
// vertical mode, columns for a horizontal one — and scores each line against
// the same line of src as it is produced. It returns the sum of absolute
// differences or, once the running sum at the end of a line exceeds bound,
// that partial sum, leaving the remaining lines of pred unwritten. The terms
// are non-negative, so a partial sum above bound means the full SAD is above
// it too.
//
// pred and src are line-major: for a horizontal mode src must be the
// transposed source block and pred comes back as the transpose of what
// Predict writes (Transpose turns either back).
func AngularSAD(m Mode, n int, refs Refs, pred, src []int32, bound int64) int64 {
	if m < 2 || m > 34 || len(pred) != n*n || len(src) != n*n {
		panic("intra: bad AngularSAD arguments")
	}
	var buf [3*MaxBlockSize + 2]int32
	ref, angle := angularRef(&buf, m, n, refs)
	var sum int64
	for l := 0; l < n; l++ {
		sum += int64(angularLineSAD(pred[l*n:][:n], src[l*n:][:n], ref, n, int32(l+1)*angle))
		if sum > bound {
			break
		}
	}
	return sum
}

// angularLineSAD is angularLine returning the line's sum of absolute
// differences from src, taken as each sample is produced.
func angularLineSAD(line, src, ref []int32, n int, pos int32) int32 {
	frac := pos & 31
	win := ref[n+1+int(pos>>5):][:n+1]
	var sad int32
	if frac == 0 {
		win = win[:len(line)]
		src = src[:len(line)]
		for x, v := range win {
			line[x] = v
			d := src[x] - v
			if d < 0 {
				d = -d
			}
			sad += d
		}
		return sad
	}
	next := win[1:]
	line, src = line[:len(next)], src[:len(next)]
	a := win[0]
	for x, b := range next {
		v := (a<<5 + frac*(b-a) + 16) >> 5
		line[x] = v
		d := src[x] - v
		if d < 0 {
			d = -d
		}
		sad += d
		a = b
	}
	return sad
}

func fullSAD(a, b []int32) int64 {
	var sum int64
	for i, v := range a {
		d := v - b[i]
		if d < 0 {
			d = -d
		}
		sum += int64(d)
	}
	return sum
}

// TestAngularSADEquivalence: the fused score is the full SAD of the parent's
// prediction whenever that is within the bound and above the bound otherwise,
// for bounds below, at and above the true SAD; a run that was not cut short
// leaves the whole prediction behind, line-major.
func TestAngularSADEquivalence(t *testing.T) {
	rng := rand.New(rand.NewSource(32))
	for _, n := range []int{4, 8, 16, 32} {
		n2 := n * n
		src, srcT := make([]int32, n2), make([]int32, n2)
		pred, want := make([]int32, n2), make([]int32, n2)
		for ri, r := range equivalenceRefs(rng, n) {
			for i := range src {
				src[i] = int32(rng.Intn(256))
				if ri%2 == 0 { // near the references: small SADs, exits late
					src[i] = r.Above[i%n] + int32(rng.Intn(5)) - 2
				}
			}
			copy(srcT, src)
			Transpose(srcT, n)
			for m := Mode(2); m <= 34; m++ {
				predictAngularParent(m, n, r, want)
				sad := fullSAD(src, want)
				lineSrc := src
				if Horizontal(m) {
					lineSrc = srcT
				}
				for _, bound := range []int64{math.MaxInt64, sad + 1, sad, sad - 1, sad / 2, sad / 7, 0, -1} {
					for i := range pred {
						pred[i] = -1
					}
					got := AngularSAD(m, n, r, pred, lineSrc, bound)
					if sad <= bound {
						if got != sad {
							t.Fatalf("n=%d refs#%d mode %d bound %d: score %d, full SAD %d", n, ri, m, bound, got, sad)
						}
						if Horizontal(m) {
							Transpose(pred, n)
						}
						requireSameBlock(t, pred, want, "n=%d refs#%d mode %d bound %d: prediction left behind", n, ri, m, bound)
					} else if got <= bound || got > sad {
						t.Fatalf("n=%d refs#%d mode %d: full SAD %d is above bound %d, score %d", n, ri, m, sad, bound, got)
					}
				}
			}
		}
	}
}

// TestPackedScoreEquivalence: Scorer.SAD returns AngularSAD's integer — the
// full SAD within the bound, the same partial sum beyond it — for every
// angular mode and size, over flat, random, 0/255-extreme and smoothed
// references (the scorer's own smoothing included), sources near the
// references and far from them, and bounds above, at, just below and far
// below the true SAD. Modes are scored in both directions within one Reset, so
// that a negative-angle mode's extension of the shared packed array must not
// survive into the next mode's score; and what Predict gives for a mode equals
// the block AngularSAD used to leave behind for the RD stage.
func TestPackedScoreEquivalence(t *testing.T) {
	rng := rand.New(rand.NewSource(33))
	var sc Scorer
	for _, n := range []int{4, 8, 16, 32} {
		n2 := n * n
		src, srcT := make([]int32, n2), make([]int32, n2)
		pred, left := make([]int32, n2), make([]int32, n2)
		smoothInto := NewRefs(n)
		sets := equivalenceRefs(rng, n)
		for ri := 0; ri < len(sets)+2; ri++ {
			var r Refs
			switch ri - len(sets) {
			case 0: // lane accumulators at their ceiling: every |v−s| is 255
				r = constRefs(n, 255)
				clear(src)
			case 1:
				r = constRefs(n, 0)
				for i := range src {
					src[i] = 255
				}
			default:
				r = sets[ri]
				for i := range src {
					src[i] = int32(rng.Intn(256))
					if ri%2 == 0 { // near the references: small SADs, exits late
						src[i] = min(max(r.Above[i%n]+int32(rng.Intn(5))-2, 0), 255)
					}
				}
			}
			copy(srcT, src)
			Transpose(srcT, n)
			sc.Reset(n, src, r, smoothInto)
			for pass := 0; pass < 2; pass++ {
				for k := 0; k < 33; k++ {
					m := Mode(2 + k)
					if pass == 1 {
						m = Mode(34 - k)
					}
					for _, smoothed := range []bool{false, true} {
						rr := r
						if smoothed {
							rr = r.SmoothedInto(NewRefs(len(r.Above) / 2))
						}
						lineSrc := src
						if Horizontal(m) {
							lineSrc = srcT
						}
						sad := AngularSAD(m, n, rr, left, lineSrc, math.MaxInt64)
						if Horizontal(m) {
							Transpose(left, n)
						}
						Predict(m, n, sc.Refs(smoothed), pred)
						requireSameBlock(t, pred, left, "n=%d refs#%d mode %d smoothed=%v: survivor's prediction", n, ri, m, smoothed)
						for _, bound := range []int64{math.MaxInt64, sad + 1, sad, sad - 1, sad / 2, sad / 7, 0} {
							want := AngularSAD(m, n, rr, left, lineSrc, bound)
							if got := sc.SAD(m, smoothed, bound); got != want {
								t.Fatalf("n=%d refs#%d mode %d smoothed=%v bound %d (SAD %d): packed score %d, scalar %d", n, ri, m, smoothed, bound, sad, got, want)
							}
						}
					}
				}
			}
		}
	}
}

func TestTransposeEquivalence(t *testing.T) {
	for _, n := range []int{4, 8, 16, 32} {
		a := make([]int32, n*n)
		for i := range a {
			a[i] = int32(i)
		}
		Transpose(a, n)
		for i := 0; i < n; i++ {
			for j := 0; j < n; j++ {
				if a[i*n+j] != int32(j*n+i) {
					t.Fatalf("n=%d: [%d][%d] = %d, want %d", n, i, j, a[i*n+j], j*n+i)
				}
			}
		}
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

func benchPredict(b *testing.B, n int, mode func(i int) Mode) {
	_, refs := benchBlocks(n, benchBlockCount)
	dst := make([]int32, n*n)
	b.SetBytes(int64(n * n))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		Predict(mode(i), n, refs[i%benchBlockCount], dst)
	}
}

func BenchmarkAngularSAD4(b *testing.B)  { benchAngularSAD(b, 4) }
func BenchmarkAngularSAD8(b *testing.B)  { benchAngularSAD(b, 8) }
func BenchmarkAngularSAD16(b *testing.B) { benchAngularSAD(b, 16) }
func BenchmarkAngularSAD32(b *testing.B) { benchAngularSAD(b, 32) }

// benchAngularSAD times the angular part of the coarse search as decideLeaf
// runs it on one leaf: point the scorer at the block, score all 33 angular
// modes against the bound of a top-3 set that tightens as better modes are
// found, predict the three survivors (b.N counts leaves; bytes are the
// leaf's samples once, not once per mode).
func benchAngularSAD(b *testing.B, n int) {
	srcs, refs := benchBlocks(n, benchBlockCount)
	var sc Scorer
	smooth := NewRefs(n)
	pred := make([]int32, n*n)
	b.SetBytes(int64(n * n))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sc.Reset(n, srcs[i%benchBlockCount], refs[i%benchBlockCount], smooth)
		best := [3]int64{math.MaxInt64, math.MaxInt64, math.MaxInt64}
		var mode [3]Mode
		for m := Mode(2); m <= 34; m++ {
			// Third-best so far, as topModes.bound() with k = 3.
			if s := sc.SAD(m, UseSmoothing(n, m), best[2]); s <= best[2] {
				best[2], mode[2] = s, m
				if best[2] <= best[1] {
					best[1], best[2], mode[1], mode[2] = best[2], best[1], mode[2], mode[1]
				}
				if best[1] <= best[0] {
					best[0], best[1], mode[0], mode[1] = best[1], best[0], mode[1], mode[0]
				}
			}
		}
		for _, m := range mode {
			Predict(m, n, sc.Refs(UseSmoothing(n, m)), pred)
		}
	}
}
