// Package rans implements static-probability range asymmetric numeral
// systems (rANS) coding, the entropy stage the paper's GPU-class decode
// numbers depend on: statistics are collected globally in a first pass, a
// shared frequency table is serialized once, and every interleaved state
// then decodes independently against that table — no bit-serial adaptation
// chain, so decode parallelism is limited only by the number of states.
//
// Two coders are provided:
//
//   - BinEncoder/DecodeBins: a binary rANS pair over per-position static
//     probabilities (quantized to 8 bits, expanded to a 12-bit frequency
//     scale). The codec layer interleaves Interleave encoders per chunk, and
//     DecodeBins decodes their states together, one bin of each per step.
//   - EncodeBytes/DecodeBytes: an order-0 256-symbol byte coder with
//     Interleave states over a shared 12-bit frequency table, used by the
//     entropy-coder grid (Fig. 14) as the standalone "rANS" backend.
//
// Both use byte-wise renormalization with state in [1<<16, 1<<24): the
// encoder walks its symbols in reverse, emitting renorm bytes as the state
// would overflow, and finally flushes the 3-byte state; the emitted segment
// is then reversed so the decoder consumes it strictly forward. Decoding is
// strict: the final state must return exactly to the initial value and the
// segment must be consumed exactly, so truncation and most corruption are
// structural errors rather than silent garbage.
package rans

import (
	"errors"
	"fmt"
)

const (
	// ScaleBits is the frequency-table precision: all symbol frequencies in
	// one table sum to 1<<ScaleBits.
	ScaleBits = 12
	// Scale is the frequency-table total, 1<<ScaleBits.
	Scale = 1 << ScaleBits

	// stateLo is the renormalization lower bound; a live state x always
	// satisfies stateLo <= x < stateLo<<8.
	stateLo = 1 << 16

	// Interleave is the number of independent rANS states the byte coder and
	// the codec backend split a symbol sequence across. Symbol i goes to
	// state i%Interleave, and each state owns a private byte segment, so the
	// segments decode with no cross-state data dependency at all.
	Interleave = 4
)

// ErrCorrupt is returned when a stream is structurally impossible: a state
// outside its legal range, a frequency table that does not sum to Scale, or
// a segment whose final state does not return to the initial value.
var ErrCorrupt = errors.New("rans: corrupt stream")

// ErrTruncated is returned when a segment ends before the decoder has
// renormalized back above the lower bound.
var ErrTruncated = errors.New("rans: truncated stream")

// ---------------------------------------------------------------------------
// Binary coder over static per-position probabilities.

// ProbToFreq expands an 8-bit probability-of-zero byte t (clamped to
// [1,255]) into the 12-bit frequency of bin 0. Both halves stay nonzero:
// f0 in [16, 4080], f1 = Scale - f0.
func ProbToFreq(t uint8) uint32 {
	if t == 0 {
		t = 1
	}
	return uint32(t) << (ScaleBits - 8)
}

// QuantizeProb0 converts observed (zeros, ones) counts for one context slot
// into the 8-bit probability byte ProbToFreq expects. Slots with no
// observations get the equiprobable byte 128.
func QuantizeProb0(zeros, ones int64) uint8 {
	total := zeros + ones
	if total == 0 {
		return 128
	}
	t := (zeros*256 + total/2) / total
	if t < 1 {
		t = 1
	}
	if t > 255 {
		t = 255
	}
	return uint8(t)
}

// BinEncoder encodes a sequence of bins against static probabilities. Bins
// must be pushed in REVERSE sequence order (last bin first); Finish reverses
// the internal buffer so the decoder reads forward.
type BinEncoder struct {
	x   uint32
	buf []byte
}

// Reset prepares the encoder for a new segment, reusing its buffer.
func (e *BinEncoder) Reset() {
	e.x = stateLo
	e.buf = e.buf[:0]
}

// Put encodes one bin whose probability-of-zero frequency is f0 (out of
// Scale). Call in reverse sequence order.
func (e *BinEncoder) Put(bin int, f0 uint32) {
	f, cs := f0, uint32(0)
	if bin != 0 {
		f, cs = Scale-f0, f0
	}
	// Renormalize: after the state update x' < stateLo<<8 must hold, which
	// requires x < f * ((stateLo<<8)>>ScaleBits) = f<<12 beforehand.
	for e.x >= f<<12 {
		e.buf = append(e.buf, byte(e.x))
		e.x >>= 8
	}
	e.x = e.x/f<<ScaleBits + e.x%f + cs
}

// Finish flushes the 3-byte final state and returns the completed segment
// in decode order. The returned slice aliases the encoder's buffer and is
// valid until the next Reset.
func (e *BinEncoder) Finish() []byte {
	e.buf = append(e.buf, byte(e.x), byte(e.x>>8), byte(e.x>>16))
	reverse(e.buf)
	return e.buf
}

// Run is a stretch of consecutive bins coded at one probability-of-zero
// frequency F0 (a ProbToFreq value): a context slot's bins, slot-major.
type Run struct {
	Bins int
	F0   uint32
}

// DecodeBins decodes the bins Interleave BinEncoders coded into segs — bin i
// on state i%Interleave, at the frequency of the run holding it — into out,
// which runs must tile. The states decode together, one bin of each a step:
// four dependency chains, with no call and no error return per bin. Each
// segment is decoded strictly (a 3-byte initial state at or above the bound,
// too); the lowest failing state and its error are returned, or 0 and nil.
func DecodeBins(out []uint8, segs *[Interleave][]byte, runs []Run) (int, error) {
	var x [Interleave]uint32
	var pos [Interleave]int
	var errs [Interleave]error // a failed state's pos stays at its segment's end
	for j, seg := range segs {
		pos[j] = len(seg)
		if len(seg) < 3 {
			errs[j] = fmt.Errorf("rans: %d-byte segment: %w", len(seg), ErrTruncated)
		} else if x[j] = uint32(seg[0])<<16 | uint32(seg[1])<<8 | uint32(seg[2]); x[j] < stateLo {
			errs[j] = fmt.Errorf("rans: initial state %#x below renormalization bound: %w", x[j], ErrCorrupt)
		} else {
			pos[j] = 3
		}
	}
	i := 0
	for _, r := range runs {
		f0, f1 := r.F0, Scale-r.F0
		for end := i + r.Bins; i < end; i++ {
			// An update leaves a state ≥ stateLo at least 16·2⁴ = 2⁸, so a bin
			// renormalizes by a byte at most: no read needs a check while
			// each segment holds a byte for every bin it has ahead.
			safe := end - i
			for j, seg := range segs {
				safe = min(safe, Interleave*(len(seg)-pos[j]))
			}
			if safe >= Interleave {
				i = decodeGroups(out, i, i+safe&^(Interleave-1), segs, &x, &pos, f0, f1) - 1
				continue
			}
			// One bin, its read checked. A failed state decodes no further,
			// and the others go on, so that the lowest failure is reported.
			if j := i % Interleave; errs[j] == nil {
				var b uint32
				x[j], b = binStep(x[j], f0, f1)
				out[i] = uint8(b)
				if x[j] < stateLo && pos[j] == len(segs[j]) {
					errs[j] = fmt.Errorf("rans: segment ends mid-renormalization: %w", ErrTruncated)
				} else {
					x[j], pos[j] = renorm(x[j], segs[j], pos[j])
				}
			}
		}
	}
	for j, seg := range segs {
		if errs[j] == nil && x[j] != stateLo {
			errs[j] = fmt.Errorf("rans: final state %#x, want %#x: %w", x[j], uint32(stateLo), ErrCorrupt)
		} else if errs[j] == nil && pos[j] != len(seg) {
			errs[j] = fmt.Errorf("rans: %d unconsumed segment bytes: %w", len(seg)-pos[j], ErrCorrupt)
		}
		if errs[j] != nil {
			return j, errs[j]
		}
	}
	return 0, nil
}

// decodeGroups decodes bins [i, stop), four at a time, at frequency f0 (f1 =
// Scale − f0) and returns stop; stop−i is a multiple of Interleave (= 4), and
// every segment holds a byte for each of its bins among them. The states are
// rotated into a–d so that a holds bin i's.
func decodeGroups(out []uint8, i, stop int, segs *[Interleave][]byte, x *[Interleave]uint32, pos *[Interleave]int, f0, f1 uint32) int {
	r := i & (Interleave - 1)
	ja, jb, jc, jd := r, (r+1)%Interleave, (r+2)%Interleave, (r+3)%Interleave
	xa, xb, xc, xd := x[ja], x[jb], x[jc], x[jd]
	pa, pb, pc, pd := pos[ja], pos[jb], pos[jc], pos[jd]
	sa, sb, sc, sd := segs[ja], segs[jb], segs[jc], segs[jd]
	for ; i < stop; i += Interleave {
		var ba, bb, bc, bd uint32
		xa, ba = binStep(xa, f0, f1)
		xb, bb = binStep(xb, f0, f1)
		xc, bc = binStep(xc, f0, f1)
		xd, bd = binStep(xd, f0, f1)
		o := out[i : i+4 : i+4]
		o[0], o[1], o[2], o[3] = uint8(ba), uint8(bb), uint8(bc), uint8(bd)
		xa, pa = renorm(xa, sa, pa)
		xb, pb = renorm(xb, sb, pb)
		xc, pc = renorm(xc, sc, pc)
		xd, pd = renorm(xd, sd, pd)
	}
	x[ja], x[jb], x[jc], x[jd] = xa, xb, xc, xd
	pos[ja], pos[jb], pos[jc], pos[jd] = pa, pb, pc, pd
	return stop
}

// binStep decodes one bin from state x at frequency f0 (f1 = Scale − f0) and
// returns the updated state, not yet renormalized, and the bin: 1 when x's
// slot lies at or above f0. The selects compile to conditional moves.
func binStep(x, f0, f1 uint32) (uint32, uint32) {
	s := x & (Scale - 1)
	f, cs, b := f0, uint32(0), uint32(0)
	if s >= f0 {
		f, cs, b = f1, f0, 1
	}
	return f*(x>>ScaleBits) + s - cs, b
}

// renorm shifts seg[p] into x when x is below the bound (one byte is enough,
// see DecodeBins) and returns the state and the next read position. At the
// codec's rates the branch is taken on one bin in eight or so.
func renorm(x uint32, seg []byte, p int) (uint32, int) {
	if x < stateLo {
		return x<<8 | uint32(seg[p]), p + 1
	}
	return x, p
}

// ---------------------------------------------------------------------------
// Order-0 byte coder with interleaved states over a shared table.

// Freqs is a 256-symbol frequency table summing to Scale.
type Freqs struct {
	freq [256]uint32
	cum  [256]uint32
	// slot maps a 12-bit scaled value back to its symbol.
	slot [Scale]uint8
}

// NormalizeFreqs builds a table from raw symbol counts, guaranteeing every
// symbol with a nonzero count keeps a nonzero scaled frequency.
func NormalizeFreqs(counts *[256]int64) (*Freqs, error) {
	var total int64
	present := 0
	for _, c := range counts {
		if c < 0 {
			return nil, errors.New("rans: negative symbol count")
		}
		if c > 0 {
			present++
		}
		total += c
	}
	if total == 0 || present == 0 {
		return nil, errors.New("rans: empty frequency table")
	}
	if present > Scale {
		return nil, errors.New("rans: more symbols than table slots")
	}
	f := &Freqs{}
	assigned := uint32(0)
	for s, c := range counts {
		if c == 0 {
			continue
		}
		v := uint32(int64(Scale) * c / total)
		if v == 0 {
			v = 1
		}
		f.freq[s] = v
		assigned += v
	}
	// Fix the rounding drift on the most frequent symbol; if rounding
	// overshot, shave symbols that can spare frequency.
	for assigned > Scale {
		for s := 0; s < 256 && assigned > Scale; s++ {
			if f.freq[s] > 1 {
				d := f.freq[s] - 1
				if d > assigned-Scale {
					d = assigned - Scale
				}
				f.freq[s] -= d
				assigned -= d
			}
		}
	}
	if assigned < Scale {
		best := -1
		for s := 0; s < 256; s++ {
			if f.freq[s] > 0 && (best < 0 || f.freq[s] > f.freq[best]) {
				best = s
			}
		}
		f.freq[best] += Scale - assigned
	}
	f.finish()
	return f, nil
}

// FreqsFromTable builds a table from explicit per-symbol frequencies (as
// parsed from a stream header). It validates the sum and rejects tables a
// conforming encoder cannot have produced.
func FreqsFromTable(freq *[256]uint32) (*Freqs, error) {
	var sum uint64
	for _, v := range freq {
		sum += uint64(v)
	}
	if sum != Scale {
		return nil, fmt.Errorf("rans: frequency table sums to %d, want %d: %w", sum, Scale, ErrCorrupt)
	}
	f := &Freqs{freq: *freq}
	f.finish()
	return f, nil
}

func (f *Freqs) finish() {
	var cum uint32
	for s := 0; s < 256; s++ {
		f.cum[s] = cum
		for k := uint32(0); k < f.freq[s]; k++ {
			f.slot[cum+k] = uint8(s)
		}
		cum += f.freq[s]
	}
}

// Freq reports symbol s's scaled frequency (0 when s never occurs).
func (f *Freqs) Freq(s uint8) uint32 { return f.freq[s] }

// EncodeBytes compresses data against table f using Interleave independent
// states; the i-th byte belongs to state i%Interleave. It returns the
// per-state segments in decode order. Symbols with zero frequency are
// rejected (the table must cover the data).
func EncodeBytes(data []byte, f *Freqs) ([][]byte, error) {
	segs := make([][]byte, Interleave)
	encs := make([]BinEncoder, Interleave) // buffers reused as raw byte stacks
	states := make([]uint32, Interleave)
	for j := range states {
		states[j] = stateLo
	}
	for i := len(data) - 1; i >= 0; i-- {
		j := i % Interleave
		s := data[i]
		fr := f.freq[s]
		if fr == 0 {
			return nil, fmt.Errorf("rans: symbol %#x has zero frequency", s)
		}
		x := states[j]
		for x >= fr<<12 {
			encs[j].buf = append(encs[j].buf, byte(x))
			x >>= 8
		}
		states[j] = x/fr<<ScaleBits + x%fr + f.cum[s]
	}
	for j := range segs {
		x := states[j]
		encs[j].buf = append(encs[j].buf, byte(x), byte(x>>8), byte(x>>16))
		reverse(encs[j].buf)
		segs[j] = encs[j].buf
	}
	return segs, nil
}

// DecodeBytes reconstructs n bytes from per-state segments against table f,
// state j filling positions j, j+Interleave, ….
func DecodeBytes(segs [][]byte, n int, f *Freqs) ([]byte, error) {
	if len(segs) != Interleave {
		return nil, fmt.Errorf("rans: %d state segments, want %d: %w", len(segs), Interleave, ErrCorrupt)
	}
	out := make([]byte, n)
	lane := func(seg []byte, j int) error {
		if len(seg) < 3 {
			return fmt.Errorf("%d-byte segment: %w", len(seg), ErrTruncated)
		}
		x := uint32(seg[0])<<16 | uint32(seg[1])<<8 | uint32(seg[2])
		pos := 3
		if x < stateLo {
			return fmt.Errorf("initial state %#x below bound: %w", x, ErrCorrupt)
		}
		for i := j; i < len(out); i += Interleave {
			s := x & (Scale - 1)
			sym := f.slot[s]
			out[i] = sym
			x = f.freq[sym]*(x>>ScaleBits) + s - f.cum[sym]
			for x < stateLo {
				if pos >= len(seg) {
					return fmt.Errorf("segment ends mid-renormalization: %w", ErrTruncated)
				}
				x = x<<8 | uint32(seg[pos])
				pos++
			}
		}
		if x != stateLo {
			return fmt.Errorf("final state %#x, want %#x: %w", x, uint32(stateLo), ErrCorrupt)
		}
		if pos != len(seg) {
			return fmt.Errorf("%d unconsumed segment bytes: %w", len(seg)-pos, ErrCorrupt)
		}
		return nil
	}
	for j, seg := range segs {
		if err := lane(seg, j); err != nil {
			return nil, fmt.Errorf("rans: state %d: %w", j, err)
		}
	}
	return out, nil
}

func reverse(b []byte) {
	for i, j := 0, len(b)-1; i < j; i, j = i+1, j-1 {
		b[i], b[j] = b[j], b[i]
	}
}
