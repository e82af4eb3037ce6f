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
	"math/bits"
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

// Smoothed returns a copy of r with the HEVC [1 2 1] reference smoothing
// filter applied, which HEVC enables for larger blocks and oblique modes.
func (r Refs) Smoothed() Refs {
	n2 := len(r.Above)
	return r.SmoothedInto(Refs{Above: make([]int32, n2), Left: make([]int32, n2)})
}

// SmoothedInto is Smoothed writing into dst's reference arrays, which must
// have the same length as r's and must not alias them; it returns dst with
// its Corner filled in. The filter output depends only on r, so callers may
// reuse dst's arrays across blocks (the codec's scratch arena does).
func (r Refs) SmoothedInto(dst Refs) Refs {
	n2 := len(r.Above)
	if len(dst.Above) != n2 || len(dst.Left) != n2 {
		panic("intra: SmoothedInto size mismatch")
	}
	s := dst
	s.Corner = (r.Left[0] + 2*r.Corner + r.Above[0] + 2) >> 2
	for i := 0; i < n2; i++ {
		am1, lm1 := r.Corner, r.Corner
		if i > 0 {
			am1, lm1 = r.Above[i-1], r.Left[i-1]
		}
		ap1, lp1 := r.Above[n2-1], r.Left[n2-1]
		if i < n2-1 {
			ap1, lp1 = r.Above[i+1], r.Left[i+1]
		}
		s.Above[i] = (am1 + 2*r.Above[i] + ap1 + 2) >> 2
		s.Left[i] = (lm1 + 2*r.Left[i] + lp1 + 2) >> 2
	}
	return s
}

// UseSmoothing reports whether HEVC would smooth references for the given
// block size and mode: only blocks ≥ 8 and modes sufficiently far from pure
// horizontal/vertical.
func UseSmoothing(n int, m Mode) bool {
	if n < 8 || m == DC {
		return false
	}
	if m == Planar {
		return n >= 8
	}
	d := absInt(int(m) - int(ModeHorizontal))
	d2 := absInt(int(m) - int(ModeVertical))
	if d2 < d {
		d = d2
	}
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
// n must be a power of two.
func Predict(m Mode, n int, refs Refs, dst []int32) {
	if len(dst) != n*n {
		panic("intra: bad dst size")
	}
	if n&(n-1) != 0 {
		panic("intra: block size must be a power of two")
	}
	switch {
	case m == Planar:
		predictPlanar(n, refs, dst)
	case m == DC:
		predictDC(n, refs, dst)
	case m >= 2 && m <= 34:
		var buf [3*MaxBlockSize + 2]int32
		ref, angle := angularRef(&buf, m, n, refs)
		for l := 0; l < n; l++ {
			angularLine(dst[l*n:][:n], ref, n, int32(l+1)*angle)
		}
		if Horizontal(m) {
			Transpose(dst, n)
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
// left column as its main array, so its lines are the rows of mode 36−m over
// swapped references — the block's columns. Both kinds therefore share one
// contiguous line generator; a horizontal block is its lines transposed.

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
		inv := invAngleTable[-angle]
		// Number of negative indices we might touch: ceil(n·|angle|/32).
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
	return ref, angle
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

// Transpose transposes the row-major n×n block a in place.
func Transpose(a []int32, n int) {
	for i := 0; i < n; i++ {
		row := a[i*n:][:n]
		for j := i + 1; j < n; j++ {
			row[j], a[j*n+i] = a[j*n+i], row[j]
		}
	}
}

func absInt(x int) int {
	if x < 0 {
		return -x
	}
	return x
}
