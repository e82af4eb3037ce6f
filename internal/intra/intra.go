// Package intra implements HEVC-style intra-frame prediction: the Planar and
// DC modes plus 33 angular modes (modes 2–34), predicting a block from its
// reconstructed above/left neighbours.
//
// This is the stage the paper identifies as the key reason video codecs work
// on tensors (§3.1, Fig. 4): the channel-wise structure of LLM weights looks
// like edges and planar regions, which these modes capture with a few bits,
// leaving a small residual.
package intra

import (
	"fmt"
	"math"
	"math/bits"

	"repro/internal/cpufeat"
)

// Mode identifies an intra prediction mode.
type Mode int

// Prediction modes. Angular modes run from Angular2 (bottom-left diagonal)
// through 18 (pure horizontal is 10, pure vertical 26) to 34 (top-right
// diagonal).
const (
	Planar Mode = 0
	DC     Mode = 1
	// Angular modes are Mode(2) .. Mode(34).
	ModeHorizontal Mode = 10
	ModeVertical   Mode = 26
	NumModes            = 35
)

// MaxBlockSize is the largest block edge the codec predicts (the HEVC/AV1
// CTU size). Prediction of blocks up to this size is allocation-free.
const MaxBlockSize = 32

// H264Modes is the reduced mode set used by the H.264-like profile
// (9 modes, mirroring 4×4 AVC intra prediction directions).
var H264Modes = []Mode{Planar, DC, ModeVertical, ModeHorizontal, 34, 2, 18, 22, 30}

// AV1Modes is the full mode set (AV1 has even more directional modes; at the
// granularity that matters for tensors the HEVC set is equivalent, which is
// the paper's Fig. 6 observation).
var AV1Modes = allModes()

// HEVCModes is the full 35-mode set.
var HEVCModes = allModes()

func allModes() []Mode {
	m := make([]Mode, NumModes)
	for i := range m {
		m[i] = Mode(i)
	}
	return m
}

// angleTable maps angular mode (index mode-2) to the HEVC prediction angle.
var angleTable = [33]int32{
	32, 26, 21, 17, 13, 9, 5, 2, 0, -2, -5, -9, -13, -17, -21, -26, -32,
	-26, -21, -17, -13, -9, -5, -2, 0, 2, 5, 9, 13, 17, 21, 26, 32,
}

// invAngleTable maps |angle| ∈ {2,5,9,13,17,21,26,32} to 8192/angle·2 per the
// HEVC spec (used to project the secondary reference array); the other
// entries are never read.
var invAngleTable = [33]int32{
	2: 4096, 5: 1638, 9: 910, 13: 630, 17: 482, 21: 390, 26: 315, 32: 256,
}

// Refs holds the reference samples for predicting an n×n block: the corner
// sample (above-left), 2n above samples (above row then above-right), and 2n
// left samples (left column then below-left). Values are pixel intensities
// 0–255 stored as int32 for arithmetic convenience.
type Refs struct {
	Corner int32
	Above  []int32 // len 2n
	Left   []int32 // len 2n
}

// NewRefs allocates reference arrays for block size n, filled with the
// mid-gray default used when no neighbours are available.
func NewRefs(n int) Refs {
	r := Refs{Corner: 128, Above: make([]int32, 2*n), Left: make([]int32, 2*n)}
	for i := range r.Above {
		r.Above[i] = 128
		r.Left[i] = 128
	}
	return r
}

// SmoothedInto applies the HEVC [1 2 1] reference smoothing filter, which HEVC
// enables for larger blocks and oblique modes, to r, writing into dst's
// reference arrays, which must have the same length as r's and must not alias
// them; it returns dst with its Corner filled in. The filter output depends
// only on r, so callers may reuse dst's arrays across blocks (the codec's
// scratch arena does).
func (r Refs) SmoothedInto(dst Refs) Refs {
	n2 := len(r.Above)
	if len(dst.Above) != n2 || len(dst.Left) != n2 {
		panic("intra: SmoothedInto size mismatch")
	}
	s, a, l, sa, sl := dst, r.Above, r.Left[:n2], dst.Above, dst.Left // the end taps read the corner and repeat the last sample
	s.Corner = (l[0] + 2*r.Corner + a[0] + 2) >> 2
	sa[0], sl[0] = (r.Corner+2*a[0]+a[1]+2)>>2, (r.Corner+2*l[0]+l[1]+2)>>2
	sa[n2-1], sl[n2-1] = (a[n2-2]+3*a[n2-1]+2)>>2, (l[n2-2]+3*l[n2-1]+2)>>2
	for i := 1; i < n2-1; i++ {
		sa[i] = (a[i-1] + 2*a[i] + a[i+1] + 2) >> 2
		sl[i] = (l[i-1] + 2*l[i] + l[i+1] + 2) >> 2
	}
	return s
}

// UseSmoothing reports whether HEVC would smooth references for the given
// block size and mode: only blocks ≥ 8 and modes sufficiently far from pure
// horizontal/vertical. It reads modeForms.
func UseSmoothing(n int, m Mode) bool { return modeForms[sizeClass(n)][m].smooth }

// sizeClass is the row of modeForms for blocks of edge n: log2(n)−2 for the
// codec's sizes 4…32, clamped to the nearest row otherwise.
func sizeClass(n int) int { return min(max(bits.Len(uint(n))-3, 0), len(modeForms)-1) }

// modeForm is what scoring or predicting one mode of one block size needs,
// resolved once per size class.
type modeForm struct {
	from   []uint8 // a negative angle: entry i−1 is projectedSide(i), for i = 1…negativeExtent
	angle  int32   // an angular mode's angle
	o      uint8   // the orientation: 1 where the mode's lines are the block's columns
	smooth bool    // useSmoothing
}

// modeForms[sizeClass(n)][m] is mode m's form for blocks of edge n.
var modeForms = func() (t [4][NumModes]modeForm) {
	for s := range t {
		n := 4 << s
		for m := range t[s] {
			d := &t[s][m]
			if d.smooth = useSmoothing(n, Mode(m)); m < 2 {
				continue
			}
			d.angle, d.o = angleTable[m-2], uint8(b2i(Horizontal(Mode(m))))
			for i := 1; i <= negativeExtent(n, min(d.angle, 0)); i++ {
				d.from = append(d.from, uint8(projectedSide(i, invAngleTable[-d.angle], n)))
			}
		}
	}
	return t
}()

// lines8 is what sadLines8AVX2 reads for one angular mode of an 8×8 block
// (gather8[m] is mode m's), per pair of lines, one a 128-bit lane: their fracs
// as words, then the VPSHUFB controls gathering a and b from its first table
// (main-array samples 9…24, or a negative angle's side samples 0…15) and a
// and b from its second (samples 8…23): 0x80, a zero, where it does not hold
// the sample, and in every word's high byte.
type lines8 [4][5][32]uint8

var gather8 = func() (t [NumModes]lines8) {
	for m := 2; m < NumModes; m++ {
		d := &modeForms[1][m]
		for l := range 8 {
			pos, q := int32(l+1)*d.angle, &t[m][l/2]
			for x := range 8 {
				w := 16*(l%2) + 2*x // line l's lane, sample x's word
				q[0][w] = uint8(pos & 31)
				for v := range 2 { // a and b
					c, j := [2]uint8{0x80, 0x80}, 9+int(pos>>5)+x+v
					if d.angle >= 0 && j < 25 { // 25 is the spare slot: zero
						c[0] = uint8(j - 9)
					} else if d.angle < 0 && j >= 8 {
						c[1] = uint8(j - 8)
					} else if d.angle < 0 && 7-j < len(d.from) {
						c[0] = d.from[7-j]
					}
					q[1+v][w], q[3+v][w], q[1+v][w+1], q[3+v][w+1] = c[0], c[1], 0x80, 0x80
				}
			}
		}
	}
	return t
}()

// useSmoothing is the rule modeForms tabulates.
func useSmoothing(n int, m Mode) bool {
	if n < 8 || m == DC {
		return false
	}
	if m == Planar {
		return n >= 8
	}
	h, v := int(m)-int(ModeHorizontal), int(m)-int(ModeVertical)
	d := min(max(h, -h), max(v, -v))
	switch {
	case n >= 32:
		return d > 0
	case n >= 16:
		return d > 1
	default:
		return d > 7
	}
}

// Predict fills dst (row-major n×n) with the prediction of mode m from refs.
// n must be a power of two. Blocks cpufeat.Lanes8 admits are predicted in
// int16 lanes, by the kernels Scorer predicts with.
func Predict(m Mode, n int, refs Refs, dst []int32) {
	if len(dst) != n*n {
		panic("intra: bad dst size")
	}
	if n&(n-1) != 0 {
		panic("intra: block size must be a power of two")
	}
	lanes := n <= MaxBlockSize && cpufeat.Lanes8(n)
	switch {
	case lanes && (m == Planar || m == DC):
		var f planarForm
		planarLinesAVX2(&f[0][0], nil, &dst[0], n, f.fill(m, n, refs), 0)
	case m == Planar:
		predictPlanar(n, refs, dst)
	case m == DC:
		predictDC(n, refs, dst)
	case m >= 2 && m <= 34:
		var buf [3*MaxBlockSize + 2]int32
		ref, angle := angularRef(&buf, m, n, refs)
		if lanes {
			var ref16 [packedRefLen]int16
			for i, v := range ref {
				ref16[i] = int16(v)
			}
			predLinesAVX2(&ref16[0], &dst[0], n, int(angle), Horizontal(m))
			return
		}
		for l := 0; l < n; l++ {
			if Horizontal(m) {
				angularColumn(dst[l:], ref, n, int32(l+1)*angle)
			} else {
				angularLine(dst[l*n:][:n], ref, n, int32(l+1)*angle)
			}
		}
	default:
		panic(fmt.Sprintf("intra: invalid mode %d", m))
	}
}

// Planar and DC divide by 2n, a power of two, and their numerators are sums
// of non-negative terms: the shift by log2(2n) is the same integer as the
// division and not a runtime IDIV per sample.

func predictPlanar(n int, r Refs, dst []int32) {
	above, left := r.Above[:n], r.Left[:n]
	tr, bl := r.Above[n], r.Left[n] // top-right, bottom-left
	shift := uint(bits.TrailingZeros(uint(2*n))) & 31
	for y, l := range left {
		row := dst[y*n:][:len(above)]
		// Of (n−1−x)·l + (x+1)·tr + (n−1−y)·above[x] + (y+1)·bl + n, all but
		// the third term is linear in x: h starts at its x = 0 value and
		// walks by tr−l.
		h, step := int32(n-1)*l+tr+int32(y+1)*bl+int32(n), tr-l
		wy := int32(n - 1 - y)
		for x, a := range above {
			row[x] = (h + wy*a) >> shift
			h += step
		}
	}
}

func predictDC(n int, r Refs, dst []int32) {
	var sum int32
	for i := 0; i < n; i++ {
		sum += r.Above[i] + r.Left[i]
	}
	dc := (sum + int32(n)) >> uint(bits.TrailingZeros(uint(2*n)))
	for i := range dst {
		dst[i] = dc
	}
}

// Angular prediction is generated one line at a time: line l of mode m reads
// the main reference array from n+1+intPart(l) on, blending neighbours a, b
// with weight frac(l)/32 — (32−frac)·a + frac·b, computed as 32·a +
// frac·(b−a) — where intPart and frac are the high and low bits of
// (l+1)·angle. For the vertical modes (18–34) the main array is the above row
// and the lines are the block's rows. A horizontal mode m (2–17) has the angle
// of vertical mode 36−m (angleTable is symmetric about mode 18) and takes the
// left column as its main array: its lines are the rows of mode 36−m over
// swapped references, written as the block's columns.

// Horizontal reports whether angular mode m lays its lines out as columns.
func Horizontal(m Mode) bool { return m >= 2 && m < 18 }

// angularRef builds the main reference array ref[0..3n+1] of angular mode m,
// where ref[n] is the corner sample, and returns it with the mode's angle.
// One spare slot, ref[3n+1], lets every sample interpolate ref[i] and
// ref[i+1] without a range test: i = 3n is reached only by angle 32 on the
// last line, where frac is 0 and the spare's weight with it. For codec-sized
// blocks (n ≤ MaxBlockSize) the array is cut from buf — zeroed, on the caller's
// stack — so prediction is allocation-free.
func angularRef(buf *[3*MaxBlockSize + 2]int32, m Mode, n int, r Refs) (ref []int32, angle int32) {
	angle = angleTable[m-2]
	if n <= MaxBlockSize {
		ref = buf[:3*n+2]
	} else {
		ref = make([]int32, 3*n+2)
	}
	main, side := r.Above, r.Left
	if Horizontal(m) {
		main, side = r.Left, r.Above
	}
	ref[n] = r.Corner
	copy(ref[n+1:3*n+1], main[:2*n])
	if angle < 0 {
		// Project side samples into ref[0..n-1] using the inverse angle.
		inv, need := invAngleTable[-angle], negativeExtent(n, angle)
		for i := 1; i <= need; i++ {
			ref[n-i] = side[projectedSide(i, inv, n)]
		}
	}
	return ref, angle
}

// planarForm is Planar or DC as planarLinesAVX2 computes it: row y is (L[y]·W
// + V + y·D) >> log2(2n) — for Planar W = n−1−x, V = (n−1)·above[x] + bl +
// (x+1)·tr + n, D = bl − above[x] and L the left column; for DC W = D = 0 and
// V the mean's numerator. The terms are non-negative and sum to at most
// 255·2n + n = 16,352 at n = 32: int16 lanes hold them exactly.
type planarForm [4][MaxBlockSize]int16

// fill writes mode m's form for the n×n block of references r and returns
// the shift.
func (f *planarForm) fill(m Mode, n int, r Refs) int {
	w, v, d, l := f[0][:n], f[1][:n], f[2][:n], f[3][:n]
	if m == DC {
		var sum int32
		for i := 0; i < n; i++ {
			sum += r.Above[i] + r.Left[i]
		}
		for x := range v {
			w[x], v[x], d[x] = 0, int16(sum+int32(n)), 0
		}
	} else {
		tr, bl := r.Above[n], r.Left[n]
		for x, a := range r.Above[:n] {
			w[x], d[x], l[x] = int16(n-1-x), int16(bl-a), int16(r.Left[x])
			v[x] = int16(int32(n-1)*a + bl + int32(x+1)*tr + int32(n))
		}
	}
	return bits.TrailingZeros(uint(2 * n))
}

// negativeExtent is how many slots below the corner a mode of negative angle
// might read: ceil(n·|angle|/32).
func negativeExtent(n int, angle int32) int { return (int(-angle)*n + 31) >> 5 }

// projectedSide is the index into the side array (len 2n) of the sample that
// lands in main-array slot n−i under inverse angle inv.
func projectedSide(i int, inv int32, n int) int {
	idx := (i*int(inv) + 128) >> 8
	return min(max(idx, 1), 2*n) - 1
}

// angularLine writes the line at position pos = (l+1)·angle into line (n
// samples): straight-line code over one window of ref.
func angularLine(line, ref []int32, n int, pos int32) {
	frac := pos & 31
	win := ref[n+1+int(pos>>5):][:n+1]
	if frac == 0 {
		copy(line, win)
		return
	}
	next := win[1:]
	line = line[:len(next)]
	a := win[0]
	for x, b := range next {
		line[x] = (a<<5 + frac*(b-a) + 16) >> 5
		a = b
	}
}

// angularColumn is angularLine writing its samples n apart from col[0]: a
// column of an n×n block.
func angularColumn(col, ref []int32, n int, pos int32) {
	frac := pos & 31
	win := ref[n+1+int(pos>>5):][:n+1]
	col = col[:(n-1)*n+1]
	if frac == 0 {
		for x, v := range win[:n] {
			col[x*n] = v
		}
		return
	}
	at, a := 0, win[0]
	for _, b := range win[1:] {
		col[at] = (a<<5 + frac*(b-a) + 16) >> 5
		a, at = b, at+n
	}
}

// Scorer ranks the modes of one n×n block by their sum of absolute
// differences from the source without writing a prediction (Rank; SAD scores
// one mode), then writes the predictions of the modes it kept. On the packed
// path four samples ride in the 16-bit lanes of a uint64 through the
// interpolation of angularLine and through the SAD. What is mode-independent
// is prepared once per block — the source and its transpose packed four
// samples a word (biased, see SAD), and per orientation (above or left as the
// main array) and filter (raw or smoothed) the main reference array as
// overlapping words
//
//	ref[i] | ref[i+1]<<16 | ref[i+2]<<32 | ref[i+3]<<48
//
// so that the samples a line blends, ref[i+x] and ref[i+1+x], are the lanes of
// two adjacent words at any start i. The lines are packed at Reset, a
// filter's arrays when a mode first needs one. Where cpufeat.Lanes8 admits
// the block (sad_amd64.s), it is scored and predicted from int16 copies of the
// same lines and arrays instead; which form a block uses is fixed at Reset.
// Either way Rank is one Go loop over the modes, and the top-k and its tie
// rule live only in Ranking.Offer. A Scorer is ≈ 17 KB of fixed arrays: it
// belongs in a per-worker arena and is not safe for concurrent use.
type Scorer struct {
	n        int
	forms    *[NumModes]modeForm // modeForms' row for n
	src      []int32             // the block, row-major
	refs     [2]Refs             // raw, smoothed
	smoothed bool                // refs[1] has been filled
	simd     bool                // scored by the int16 lane kernels from line16 and ref16
	// line[o] holds the source as orientation o scores it — rows for the
	// vertical modes (0), columns for the horizontal ones (1) — n/4 words a
	// line, each lane a sample plus sadBias.
	line [2][MaxBlockSize * MaxBlockSize / 4]uint64
	// ref[f][o] is the packed main array of filter f (refs[f]) and orientation
	// o, indexed like angularRef's: word n starts at the corner sample. Words
	// below n belong to whichever negative-angle mode was scored last.
	ref      [2][2][packedRefLen]uint64
	refReady [2]bool
	// line16 and ref16 are line and ref one sample an int16, unbiased, laid
	// out as angularRef's array is: the corner at n, the main samples from
	// n+1, the spare slot at 3n+1 zero, projected side samples below n.
	line16 [2][MaxBlockSize * MaxBlockSize]int16
	ref16  [2][2][packedRefLen]int16
	pred   [MaxBlockSize * MaxBlockSize]int32 // Planar or DC, scored on the packed path
}

// packedRefLen is angularRef's 3·MaxBlockSize+2 rounded up to a power of two,
// so that a masked index needs no bounds check.
const packedRefLen = 128

const (
	lanes    = 0x0001000100010001 // 1 in each 16-bit lane; ×lanes sums them into the top one
	laneByte = 0x00FF * lanes
	sadBias  = 0x7FFF * lanes
)

// Reset points the scorer at a new block: its n×n source samples (row-major),
// its references, and the arrays the smoothed references are written to the
// first time a mode asks for them (len 2n each, not aliasing refs). Samples
// and references must be 8-bit values; all three must stay untouched until
// the next Reset.
func (sc *Scorer) Reset(n int, src []int32, refs, smoothInto Refs) {
	if n < 4 || n > MaxBlockSize || n&(n-1) != 0 || len(src) != n*n {
		panic("intra: bad Scorer block")
	}
	sc.n, sc.src, sc.forms = n, src, &modeForms[sizeClass(n)]
	sc.refs[0], sc.refs[1] = refs, smoothInto
	sc.smoothed = false
	sc.simd = cpufeat.Lanes8(n)
	sc.refReady = [2]bool{}
	sc.packLines(0)
	sc.packLines(1)
}

// Refs returns the block's references, raw or smoothed.
func (sc *Scorer) Refs(smoothed bool) Refs { return *sc.refsOf(b2i(smoothed)) }

// refsOf returns the references of filter f, smoothing them the first time.
func (sc *Scorer) refsOf(f int) *Refs {
	if f == 1 && !sc.smoothed {
		sc.refs[1] = sc.refs[0].SmoothedInto(sc.refs[1])
		sc.smoothed = true
	}
	return &sc.refs[f]
}

func b2i(b bool) int {
	if b {
		return 1
	}
	return 0
}

// packLines fills line[o]: the block's rows (o = 0) or columns (o = 1).
func (sc *Scorer) packLines(o int) {
	n, src := sc.n, sc.src
	if sc.simd {
		packLinesAVX2(&src[0], &sc.line16[o][0], n, o == 1)
		return
	}
	step, next := 1, n // from one sample of a line to the next; from one line to the next
	if o == 1 {
		step, next = n, 1
	}
	out := sc.line[o][:n*n/4]
	for l := 0; l < n; l++ {
		at := l * next
		for j := 0; j < n/4; j++ {
			out[l*n/4+j] = sadBias + (uint64(src[at]) | uint64(src[at+step])<<16 |
				uint64(src[at+2*step])<<32 | uint64(src[at+3*step])<<48)
			at += 4 * step
		}
	}
}

// packRef fills ref[f][0] and ref[f][1] from the corner up: each word is the
// one above it shifted up a lane with its own sample in lane 0. The slot past
// the last main sample (angularRef's spare) and the lanes beyond it are zero.
// Each orientation's main array is the other's side array, which ready
// extends from.
func (sc *Scorer) packRef(f int) {
	r, n := sc.refsOf(f), sc.n
	sc.refReady[f] = true
	for o, main := range [2][]int32{r.Above[:2*n], r.Left[:2*n]} {
		if sc.simd {
			p := sc.ref16[f][o][n : 3*n+2]
			p[0], p[2*n+1] = int16(r.Corner), 0
			packSamplesAVX2(&main[0], &p[1], 2*n)
			continue
		}
		p := &sc.ref[f][o]
		var w uint64
		for i := 2*n - 1; i >= 0; i-- {
			w = w<<16 | uint64(main[i])
			p[n+1+i] = w
		}
		p[n] = w<<16 | uint64(r.Corner)
	}
}

// ready readies the main array of the angular mode of form d under filter f:
// packed once per block and filter, and for a negative angle extended
// downwards by the projected side samples (their indices read off d.from), as
// angularRef does, every time: they belong to whichever mode was readied last.
func (sc *Scorer) ready(d *modeForm, f int) {
	if !sc.refReady[f] {
		sc.packRef(f)
	}
	n, o := sc.n, int(d.o)
	if sc.simd {
		p, side := &sc.ref16[f][o], &sc.ref16[f][1-o]
		for i, j := range d.from {
			p[(n-1-i)&(packedRefLen-1)] = side[(n+1+int(j))&(packedRefLen-1)]
		}
		return
	}
	p, side, w := &sc.ref[f][o], &sc.ref[f][1-o], sc.ref[f][o][n]
	for i, j := range d.from {
		w = w<<16 | side[(n+1+int(j))&(packedRefLen-1)]&0xFFFF
		p[(n-1-i)&(packedRefLen-1)] = w
	}
}

// SAD returns what scoring mode m line by line against the source gives: the
// sum of absolute differences between Predict's block and the source or, once
// the running sum at the end of a line exceeds bound, that partial sum. The
// terms are non-negative, so a partial sum above bound means the full SAD is
// above it too. Planar's and DC's lines are rows. Rank ranks by this score.
//
// Exactness. A line blends a = ref[i+x], b = ref[i+1+x] as (a<<5 +
// frac·(b−a) + 16) >> 5 = ((32−frac)·a + frac·b + 16) >> 5. With a, b ≤ 255
// and 0 ≤ frac < 32 the numerator is at most 255·32 + 16 < 2¹⁶, so the same
// expression on whole words — A·(32−frac) + B·frac + 16·lanes — computes all
// four numerators with no carry between lanes; the shift then leaks each
// lane's low five bits into the lane below's top, which the byte mask drops.
// The difference from a source sample s is taken as d = (s + 0x7FFF) − v,
// in [0x7F00, 0x80FE] per lane: bit 15 is set exactly when s > v, and then
// d ^ 0x8000 = s−v−1, while otherwise d ^ 0x7FFF = v−s. So with g = that bit,
// |v−s| = (d ^ (0x7FFF + g)) + g, at most 255, and a line's n/4 ≤ 8 words add
// up to at most 2040 per lane and 8160 across the four — the multiply by
// lanes that sums them into the top lane cannot carry either. sadLinesAVX2
// computes the same integers in signed 16-bit lanes, one sample each: a<<5 ≤
// 8160, |frac·(b−a)| ≤ 31·255 and the numerator ≤ 8176 < 2¹⁵, so no lane
// overflows; |v−s| ≤ 255 is VPABSW of the difference. Planar and DC go
// through planarForm, whose int16 words are exact.
//
// An 8×8 block on the lanes path gathers an angular mode's samples from the
// main and side arrays (sadLines8AVX2); the other paths extend the main
// array (ready).
func (sc *Scorer) SAD(m Mode, smoothed bool, bound int64) int64 {
	d, f, n := &sc.forms[m], b2i(smoothed), sc.n
	o := int(d.o)
	switch {
	case m < 2 && sc.simd:
		var pf planarForm
		return planarLinesAVX2(&pf[0][0], &sc.line16[0][0], nil, n, pf.fill(m, n, *sc.refsOf(f)), bound)
	case m < 2:
		pred := sc.pred[:n*n]
		Predict(m, n, *sc.refsOf(f), pred)
		var sum int64
		for y := 0; y < n; y++ {
			for x, s := range sc.src[y*n : y*n+n] {
				sum += int64(max(s-pred[y*n+x], pred[y*n+x]-s))
			}
			if sum > bound {
				break
			}
		}
		return sum
	case sc.simd && n == 8:
		if !sc.refReady[f] {
			sc.packRef(f)
		}
		t1, t2 := &sc.ref16[f][o][9], (*int16)(nil)
		if d.from != nil {
			t1, t2 = &sc.ref16[f][1-o][9], &sc.ref16[f][o][8]
		}
		return sadLines8AVX2(t1, t2, &sc.line16[o][0], &gather8[m], bound)
	}
	sc.ready(d, f)
	if sc.simd {
		return sadLinesAVX2(&sc.ref16[f][o][0], &sc.line16[o][0], n, int(d.angle), bound)
	}
	return packedSAD(&sc.ref[f][o], &sc.line[o], n, d.angle, bound)
}

// packedSAD is SAD's angular mode on the packed path, apart so that its loop
// keeps its registers: ref is the mode's readied main array, src its lines.
func packedSAD(ref *[packedRefLen]uint64, src *[MaxBlockSize * MaxBlockSize / 4]uint64, n int, angle int32, bound int64) int64 {
	words := n / 4
	var sum int64
	for l, pos := 0, angle; l < n; l, pos = l+1, pos+angle {
		sum += int64(lineSAD(ref, src[l*words:][:words], n+1+int(pos>>5), uint64(pos&31)))
		if sum > bound {
			break
		}
	}
	return sum
}

// Rank scores modes in order, each as SAD scores it against the bound of the
// ranking so far, and returns the best k of them, 1 ≤ k ≤ MaxRanked. A mode's
// references are smoothed where smooth is set and UseSmoothing holds for it.
func (sc *Scorer) Rank(modes []Mode, smooth bool, k int) Ranking {
	top := Ranking{K: k}
	for i, m := range modes {
		bound := top.Bound()
		if s := sc.SAD(m, smooth && sc.forms[m].smooth, bound); s <= bound {
			top.Offer(i, s)
		}
	}
	return top
}

// Predict writes mode m's prediction from the references, raw or smoothed,
// to dst: Predict's block, an angular one made from the scorer's own int16
// array where the block scores in lanes.
func (sc *Scorer) Predict(m Mode, smoothed bool, dst []int32) {
	if !sc.simd || m < 2 || len(dst) != sc.n*sc.n {
		Predict(m, sc.n, sc.Refs(smoothed), dst)
		return
	}
	d, f := &sc.forms[m], b2i(smoothed)
	sc.ready(d, f)
	predLinesAVX2(&sc.ref16[f][d.o][0], &dst[0], sc.n, int(d.angle), d.o == 1)
}

// lineSAD is the SAD of one line: the samples blended at weight frac from ref
// at and at+1 onwards, against the biased source words src.
func lineSAD(ref *[packedRefLen]uint64, src []uint64, at int, frac uint64) uint64 {
	var acc uint64
	for _, s := range src {
		a, b := ref[at&(packedRefLen-1)], ref[(at+1)&(packedRefLen-1)]
		v := (a*(32-frac) + b*frac + 16*lanes) >> 5 & laneByte
		d := s - v
		g := d >> 15 & lanes
		acc += (d ^ (sadBias + g)) + g
		at += 4
	}
	return acc * lanes >> 48
}

// MaxRanked is the most modes a Ranking keeps.
const MaxRanked = 3

// Ranking is the running stable top-K of mode scores: ascending score, ties
// in reverse scoring order (the last-scored tying mode wins). That rule is
// part of the bitstream contract the golden corpus pins; insertion keeps it
// allocation-free, where sort.Slice's tie order is implementation-defined.
type Ranking struct {
	K, N  int
	Idx   [MaxRanked]int // the ranked modes' indices into the scored list, best first
	Score [MaxRanked]int64
}

// Bound is the score above which a mode cannot enter the set any more.
func (t *Ranking) Bound() int64 {
	if t.N < t.K {
		return math.MaxInt64
	}
	return t.Score[t.K-1]
}

// Offer ranks mode i. A score above Bound() is dropped whatever it is
// exactly, which lets SAD stop early.
func (t *Ranking) Offer(i int, score int64) {
	pos := t.N
	for ; pos > 0 && score <= t.Score[pos-1]; pos-- {
		if pos < t.K { // each member the score ties or beats moves down a place
			t.Idx[pos], t.Score[pos] = t.Idx[pos-1], t.Score[pos-1]
		}
	}
	if pos < t.K {
		t.Idx[pos], t.Score[pos] = i, score
		t.N = min(t.N+1, t.K)
	}
}
