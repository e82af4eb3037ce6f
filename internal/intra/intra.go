// Package intra implements HEVC-style intra-frame prediction: the Planar and
// DC modes plus 33 angular modes (modes 2–34), predicting a block from its
// reconstructed above/left neighbours.
//
// This is the stage the paper identifies as the key reason video codecs work
// on tensors (§3.1, Fig. 4): the channel-wise structure of LLM weights looks
// like edges and planar regions, which these modes capture with a few bits,
// leaving a small residual.
package intra

import "fmt"

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
func Predict(m Mode, n int, refs Refs, dst []int32) {
	if len(dst) != n*n {
		panic("intra: bad dst size")
	}
	switch {
	case m == Planar:
		predictPlanar(n, refs, dst)
	case m == DC:
		predictDC(n, refs, dst)
	case m >= 2 && m <= 34:
		predictAngular(m, n, refs, dst)
	default:
		panic(fmt.Sprintf("intra: invalid mode %d", m))
	}
}

func predictPlanar(n int, r Refs, dst []int32) {
	tr := r.Above[n] // top-right
	bl := r.Left[n]  // bottom-left
	for y := 0; y < n; y++ {
		for x := 0; x < n; x++ {
			h := int32(n-1-x)*r.Left[y] + int32(x+1)*tr
			v := int32(n-1-y)*r.Above[x] + int32(y+1)*bl
			dst[y*n+x] = (h + v + int32(n)) / int32(2*n)
		}
	}
}

func predictDC(n int, r Refs, dst []int32) {
	var sum int32
	for i := 0; i < n; i++ {
		sum += r.Above[i] + r.Left[i]
	}
	dc := (sum + int32(n)) / int32(2*n)
	for i := range dst {
		dst[i] = dc
	}
}

func predictAngular(m Mode, n int, r Refs, dst []int32) {
	angle := angleTable[m-2]
	vertical := m >= 18

	// Build the main reference array ref[0..3n] where ref[n] is the corner
	// sample; for vertical modes the main axis is the above row, for
	// horizontal modes the left column (prediction then transposes). One
	// spare slot, ref[3n+1], lets every sample interpolate ref[i] and
	// ref[i+1] without a range test: i = 3n is reached only by angle 32 on
	// the last line, where frac is 0 and the spare's weight with it. For
	// codec-sized blocks (n ≤ MaxBlockSize) the array lives on the stack so
	// the per-mode prediction loop is allocation-free.
	var refBuf [3*MaxBlockSize + 2]int32
	var ref []int32
	if n <= MaxBlockSize {
		ref = refBuf[:3*n+2]
	} else {
		ref = make([]int32, 3*n+2)
	}
	main, side := r.Above, r.Left
	if !vertical {
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

	if vertical {
		angularRows(dst, ref, n, angle)
	} else {
		angularColumns(dst, ref, n, angle)
	}
}

// Line l of an angular prediction reads ref from n+1+intPart(l) on, blending
// neighbours a, b with weight frac(l)/32: (32−frac)·a + frac·b, computed as
// 32·a + frac·(b−a).

// angularRows lays the lines out as dst rows (the vertical modes), so each
// row is straight-line code over one window of ref.
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

// angularColumns lays the lines out as dst columns (the horizontal modes).
// Writing dst row-major from per-column window offsets and weights keeps the
// stores sequential; row x reads each column's window x samples further on.
func angularColumns(dst, ref []int32, n int, angle int32) {
	var baseBuf, fracBuf [MaxBlockSize]int32
	base, fracs := baseBuf[:], fracBuf[:]
	if n > MaxBlockSize {
		base, fracs = make([]int32, n), make([]int32, n)
	}
	base = base[:n]
	fracs = fracs[:len(base)]
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

func absInt(x int) int {
	if x < 0 {
		return -x
	}
	return x
}
