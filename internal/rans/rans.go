// Package rans implements static-probability range asymmetric numeral
// systems (rANS) coding, the entropy stage the paper's GPU-class decode
// numbers depend on: statistics are gathered in a first pass, frequency
// tables (Freqs: 12-bit, up to 256 symbols) are serialized once, and
// Interleave states then decode independently against them. Encode and
// Decode code a symbol sequence over runs of tables, symbol i on state
// i%Interleave, Decode stepping the states together; the codec's rANS backend
// codes a class's symbols as one run, and EncodeBytes/DecodeBytes, the byte
// coder of the entropy-coder grid (Fig. 14), are the one-table case.
//
// Renormalization is byte-wise with state in [1<<16, 1<<24): the encoder
// walks its symbols in reverse, emitting renorm bytes as the state would
// overflow, flushes the 3-byte state and reverses the segment, so the decoder
// reads forward. Decoding is strict: each state must end on its initial value
// with its segment consumed exactly, so truncation and most corruption are
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

	// Interleave is the number of independent rANS states a symbol sequence
	// is split across. Symbol i goes to state i%Interleave, and each state
	// owns a private byte segment, so the segments decode with no
	// cross-state data dependency at all.
	Interleave = 4
)

// ErrCorrupt is returned when a stream is structurally impossible: a state
// outside its legal range, a frequency table that does not sum to Scale, or
// a segment whose final state does not return to the initial value.
var ErrCorrupt = errors.New("rans: corrupt stream")

// ErrTruncated is returned when a segment ends before the decoder has
// renormalized back above the lower bound.
var ErrTruncated = errors.New("rans: truncated stream")

// Freqs is a frequency table over up to 256 symbols, summing to Scale.
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

// finish fills the cumulative frequencies and the slot table of a table
// whose frequencies sum to Scale.
func (f *Freqs) finish() {
	var cum uint32
	for s := 0; s < 256; s++ {
		f.cum[s] = cum
		if n := f.freq[s]; n > 0 {
			run := f.slot[cum : cum+n]
			run[0] = uint8(s)
			for k := 1; k < len(run); k *= 2 {
				copy(run[k:], run[:k])
			}
			cum += n
		}
	}
}

// Freq reports symbol s's scaled frequency (0 when s never occurs).
func (f *Freqs) Freq(s uint8) uint32 { return f.freq[s] }

// Run is a stretch of consecutive symbols coded against one table: in the
// codec, one context class's symbols of a chunk.
type Run struct {
	N int
	T *Freqs
}

// Encode codes syms — symbol i on state i%Interleave, against the table of
// the run holding it; runs must tile syms — and returns each state's segment
// in decode order. A symbol whose table gives it zero frequency is an error:
// the tables must cover the data.
func Encode(syms []uint8, runs []Run) (segs [Interleave][]byte, err error) {
	var x [Interleave]uint32
	for j := range x {
		x[j] = stateLo
	}
	i := len(syms)
	for r := len(runs) - 1; r >= 0; r-- {
		t := runs[r].T
		for end := i - runs[r].N; i > end; {
			i--
			j, s := uint(i)%Interleave, syms[i] // unsigned: a mask, no sign fix-up
			f := t.freq[s]
			if f == 0 {
				return segs, fmt.Errorf("rans: symbol %#x has zero frequency", s)
			}
			// Renormalize: after the update x' < stateLo<<8 must hold, which
			// requires x < f * ((stateLo<<8)>>ScaleBits) = f<<12 beforehand.
			xj := x[j]
			for xj >= f<<12 {
				segs[j] = append(segs[j], byte(xj))
				xj >>= 8
			}
			x[j] = xj/f<<ScaleBits + xj%f + t.cum[s]
		}
	}
	for j, xj := range x {
		segs[j] = append(segs[j], byte(xj), byte(xj>>8), byte(xj>>16))
		reverse(segs[j])
	}
	return segs, nil
}

// Decode decodes the symbols Encode coded into segs into out, which runs
// must tile. The states decode together, one symbol of each a step: four
// dependency chains, with no call and no error return per symbol. Each
// segment is decoded strictly (a 3-byte initial state at or above the bound,
// too); the lowest failing state and its error are returned, or 0 and nil.
func Decode(out []uint8, segs *[Interleave][]byte, runs []Run) (int, error) {
	var x [Interleave]uint32
	var pos [Interleave]int
	var errs [Interleave]error // a failed state's pos stays at its segment's end
	for j, seg := range segs {
		pos[j] = len(seg)
		if len(seg) < 3 {
			errs[j] = fmt.Errorf("%d-byte segment: %w", len(seg), ErrTruncated)
		} else if x[j] = uint32(seg[0])<<16 | uint32(seg[1])<<8 | uint32(seg[2]); x[j] < stateLo {
			errs[j] = fmt.Errorf("initial state %#x below renormalization bound: %w", x[j], ErrCorrupt)
		} else {
			pos[j] = 3
		}
	}
	i := 0
	for _, r := range runs {
		t := r.T
		for end := i + r.N; i < end; i++ {
			// An update leaves a state ≥ stateLo at least 16·f ≥ 2⁴, so a
			// symbol renormalizes by two bytes at most: no read needs a check
			// while each segment holds two bytes for every symbol it has ahead.
			safe := end - i
			for j, seg := range segs {
				safe = min(safe, Interleave*((len(seg)-pos[j])/2))
			}
			if safe >= Interleave {
				i = decodeGroups(out, i, i+safe&^(Interleave-1), segs, &x, &pos, t) - 1
				continue
			}
			// One symbol, its reads checked. A failed state decodes no
			// further, and the others go on, so that the lowest failure is
			// reported.
			j := i % Interleave
			if errs[j] != nil {
				continue
			}
			x[j], out[i] = step(x[j], t)
			for x[j] < stateLo {
				if pos[j] == len(segs[j]) {
					errs[j] = fmt.Errorf("segment ends mid-renormalization: %w", ErrTruncated)
					break
				}
				x[j], pos[j] = x[j]<<8|uint32(segs[j][pos[j]]), pos[j]+1
			}
		}
	}
	for j, seg := range segs {
		if errs[j] == nil && x[j] != stateLo {
			errs[j] = fmt.Errorf("final state %#x, want %#x: %w", x[j], uint32(stateLo), ErrCorrupt)
		} else if errs[j] == nil && pos[j] != len(seg) {
			errs[j] = fmt.Errorf("%d unconsumed segment bytes: %w", len(seg)-pos[j], ErrCorrupt)
		}
		if errs[j] != nil {
			return j, errs[j]
		}
	}
	return 0, nil
}

// decodeGroups decodes symbols [i, stop) against t, four at a time, and
// returns stop; stop−i is a multiple of Interleave (= 4), and every segment
// holds two bytes for each of its symbols among them. The states are rotated
// into a–d so that a holds symbol i's.
func decodeGroups(out []uint8, i, stop int, segs *[Interleave][]byte, x *[Interleave]uint32, pos *[Interleave]int, t *Freqs) int {
	r := i & (Interleave - 1)
	ja, jb, jc, jd := r, (r+1)%Interleave, (r+2)%Interleave, (r+3)%Interleave
	xa, xb, xc, xd := x[ja], x[jb], x[jc], x[jd]
	pa, pb, pc, pd := pos[ja], pos[jb], pos[jc], pos[jd]
	sa, sb, sc, sd := segs[ja], segs[jb], segs[jc], segs[jd]
	for ; i < stop; i += Interleave {
		var ya, yb, yc, yd uint8
		xa, ya = step(xa, t)
		xb, yb = step(xb, t)
		xc, yc = step(xc, t)
		xd, yd = step(xd, t)
		o := out[i : i+4 : i+4]
		o[0], o[1], o[2], o[3] = ya, yb, yc, yd
		xa, pa = renorm(xa, sa, pa)
		xb, pb = renorm(xb, sb, pb)
		xc, pc = renorm(xc, sc, pc)
		xd, pd = renorm(xd, sd, pd)
	}
	x[ja], x[jb], x[jc], x[jd] = xa, xb, xc, xd
	pos[ja], pos[jb], pos[jc], pos[jd] = pa, pb, pc, pd
	return stop
}

// step decodes one symbol from state x against t and returns the updated
// state, not yet renormalized, and the symbol.
func step(x uint32, t *Freqs) (uint32, uint8) {
	s := x & (Scale - 1)
	y := t.slot[s]
	return t.freq[y]*(x>>ScaleBits) + s - t.cum[y], y
}

// renorm shifts seg's next bytes into x while x is below the bound (two are
// enough, see Decode) and returns the state and the next read position.
func renorm(x uint32, seg []byte, p int) (uint32, int) {
	if x < stateLo {
		x, p = x<<8|uint32(seg[p]), p+1
		if x < stateLo {
			x, p = x<<8|uint32(seg[p]), p+1
		}
	}
	return x, p
}

// EncodeBytes compresses data against table f using Interleave independent
// states; the i-th byte belongs to state i%Interleave. It returns the
// per-state segments in decode order. Symbols with zero frequency are
// rejected (the table must cover the data).
func EncodeBytes(data []byte, f *Freqs) ([][]byte, error) {
	segs, err := Encode(data, []Run{{len(data), f}})
	if err != nil {
		return nil, err
	}
	return segs[:], nil
}

// DecodeBytes reconstructs n bytes from per-state segments against table f,
// state j filling positions j, j+Interleave, ….
func DecodeBytes(segs [][]byte, n int, f *Freqs) ([]byte, error) {
	if len(segs) != Interleave {
		return nil, fmt.Errorf("rans: %d state segments, want %d: %w", len(segs), Interleave, ErrCorrupt)
	}
	var s [Interleave][]byte
	copy(s[:], segs)
	out := make([]byte, n)
	if j, err := Decode(out, &s, []Run{{n, f}}); err != nil {
		return nil, fmt.Errorf("rans: state %d: %w", j, err)
	}
	return out, nil
}

func reverse(b []byte) {
	for i, j := 0, len(b)-1; i < j; i, j = i+1, j-1 {
		b[i], b[j] = b[j], b[i]
	}
}
