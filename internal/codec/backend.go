// Interleaved-rANS entropy backend (EntropyBackend, DESIGN.md §13): the
// paper's two-pass static scheme (VcLLM) over symbols. The encoder records
// each chunk's symbols per class — the flag contexts (split, inter,
// mode-same, cbf: two symbols each) and levelClasses level classes (block
// size × scan band: min(|level|, levelEscape), sixteen symbols) — and its
// bypass bins; per-class counts over the container become one static table a
// class; each chunk's symbols are then coded class-major through
// rans.Interleave states, symbol i on state i%Interleave. The per-class
// counts fix every symbol's table without the syntax parse, so the decoder
// pre-decodes every symbol, the states together (rans.Decode), and the serial
// parse reads a flag a symbol and a coded block's levels as two slices.
//
// Header extension, after the backend id (uvarint = unsigned LEB128):
//
//	levelClasses (one byte; the retired binary-rANS layout had 56 here)
//	per class: n (one byte, ≤ its alphabet; 0 for a class no chunk codes),
//	then the frequencies of symbols 0…n−1, uvarint each, summing to rans.Scale
//
// Chunk payload:
//
//	uvarint bypassBitCount | ceil(bypassBitCount/8) bypass bytes (MSB-first)
//	per class the header has a table for: uvarint symbol count
//	4 × uvarint segment length, then the 4 state segments
//
// Decoding is strict: counts, segment lengths and the bypass window must
// tile the payload exactly, every rANS state must close on its initial
// value, and the syntax parse must consume every symbol and bypass bit.
package codec

import (
	"encoding/binary"
	"fmt"
	"slices"

	"repro/internal/bits"
	"repro/internal/rans"
)

// The rANS classes: the flag contexts keep their slot numbers (ctxSplit …
// ctxCbf+3), and the level classes follow them.
const (
	// levelClasses is K, the level classes: block size index × whether the
	// scan position lies in the band, the first levelBand positions (under
	// the transform DC and the two lowest AC coefficients; DESIGN.md §13.5).
	levelClasses = 8
	levelBand    = 3
	nClasses     = ctxSig + levelClasses
	// levelEscape is the largest level symbol: |level| ≥ levelEscape codes
	// it, and |level| − levelEscape follows as an Exp-Golomb code in bypass
	// bins.
	levelEscape = 15
	// retiredSlots is what the retired binary-rANS layout wrote where
	// levelClasses now stands: its 56-slot bin-probability table's length.
	retiredSlots = 56
)

// levelClass is the class of the level at scan position i of a block of size
// index si.
func levelClass(si, i int) int { return ctxSig + 2*si + b2i(i >= levelBand) }

// classAlphabet is the number of symbols class c codes.
func classAlphabet(c int) int { return [2]int{2, levelEscape + 1}[b2i(c >= ctxSig)] }

// ransTables is a container's class tables, from the header's backend
// extension: nil for a class no chunk codes.
type ransTables [nClasses]*rans.Freqs

// ransRecord is pass 1's output for one chunk, heap-allocated per chunk and
// consumed by assemble: per-class symbols in emission order, the bypass bits.
type ransRecord struct {
	syms   [nClasses][]uint8
	bypass *bits.Writer
}

// ransBinEnc is the recording binEncoder. The encoder's rate estimate is
// static, so its decisions and reconstructions are the same under either
// backend without any adaptive state here.
type ransBinEnc struct{ rec *ransRecord }

// bit records a flag; the parse passes flag slots only (< ctxSig).
func (e ransBinEnc) bit(slot, bin int)           { e.rec.syms[slot] = append(e.rec.syms[slot], uint8(bin)) }
func (e ransBinEnc) bypass(bin int)              { e.rec.bypass.WriteBit(bin) }
func (e ransBinEnc) bypassBits(v uint32, n uint) { e.rec.bypass.WriteBits(uint64(v), n) }

// levels records a level block: its cbf flag and, when coded, one symbol per
// scan position in its class, then per non-zero level in scan order the
// escape's Exp-Golomb suffix (its order adapting as CABAC's does) and the
// sign, in bypass bins. ransChunk.parseResidual is the inverse.
func (e ransBinEnc) levels(lev []int32, size int, transformed bool) {
	si := sizeIdx(size)
	scan, _ := residualScan(size, transformed)
	cbf := slices.ContainsFunc(lev, func(l int32) bool { return l != 0 })
	e.bit(ctxCbf+si, b2i(cbf))
	if !cbf {
		return
	}
	k := uint(0)
	for i, pos := range scan {
		l := lev[pos]
		a := uint32(max(l, -l))
		c := levelClass(si, i)
		e.rec.syms[c] = append(e.rec.syms[c], uint8(min(a, levelEscape)))
		if a == 0 {
			continue
		}
		if a >= levelEscape {
			rem := a - levelEscape
			egEncode(e, rem, k)
			if rem > 3<<k && k < 4 {
				k++
			}
		}
		e.bypass(b2i(l < 0))
	}
}

// finish is unused: pass 2 assembles the payload once the tables exist.
func (e ransBinEnc) finish() []byte { return nil }

// bitLen reports recorded symbols plus bypass bits — the raw (1 bit/symbol)
// account the observability layer's stage attribution telescopes over.
func (e ransBinEnc) bitLen() int {
	n := e.rec.bypass.BitLen()
	for c := range e.rec.syms {
		n += len(e.rec.syms[c])
	}
	return n
}

// buildRansTables aggregates per-class symbol counts across every chunk of a
// container into the class tables.
func buildRansTables(recs []*ransRecord) *ransTables {
	var counts [nClasses][256]int64
	for _, r := range recs {
		for c, syms := range r.syms {
			for _, s := range syms {
				counts[c][s]++
			}
		}
	}
	tabs := new(ransTables)
	for c := range counts {
		// An error means no symbol: the class keeps no table.
		tabs[c], _ = rans.NormalizeFreqs(&counts[c])
	}
	return tabs
}

// appendRansExt appends the header's backend extension after its id: the
// level-class count and every class's table, its frequencies through the last
// non-zero one (none for an absent class).
func appendRansExt(out []byte, tabs *ransTables) []byte {
	out = append(out, levelClasses)
	for c, t := range tabs {
		n := 0
		for s := 0; t != nil && s < classAlphabet(c); s++ {
			if t.Freq(uint8(s)) > 0 {
				n = s + 1
			}
		}
		out = append(out, byte(n))
		for s := 0; s < n; s++ {
			out = binary.AppendUvarint(out, uint64(t.Freq(uint8(s))))
		}
	}
	return out
}

// assemble is pass 2: serialize one chunk's record against the tables built
// from it. Deterministic — output depends only on the record and the tables.
func (r *ransRecord) assemble(tabs *ransTables) []byte {
	out := binary.AppendUvarint(nil, uint64(r.bypass.BitLen()))
	out = append(out, r.bypass.Bytes()...)
	var syms []uint8
	var runs []rans.Run
	for c, t := range tabs {
		if t == nil {
			continue
		}
		out = binary.AppendUvarint(out, uint64(len(r.syms[c])))
		if n := len(r.syms[c]); n > 0 {
			syms = append(syms, r.syms[c]...)
			runs = append(runs, rans.Run{N: n, T: t})
		}
	}
	segs, err := rans.Encode(syms, runs)
	if err != nil {
		panic(fmt.Sprintf("codec: rans tables do not cover their own record: %v", err))
	}
	for _, seg := range segs {
		out = binary.AppendUvarint(out, uint64(len(seg)))
	}
	for _, seg := range segs {
		out = append(out, seg...)
	}
	return out
}

// parseRansExt validates the header's backend extension after its id — the
// class count, each table's alphabet bound and its sum to rans.Scale — and
// returns the extension's length. Into a non-nil tabs it also builds the
// class decode tables; Layout, which decodes no payload, passes nil, so a
// layer read builds them once.
func parseRansExt(ext []byte, tabs *ransTables) (int, error) {
	switch {
	case len(ext) == 0:
		return 0, truncatedf("codec: header ends inside backend extension")
	case ext[0] == retiredSlots:
		return 0, corruptf("codec: retired binary-rANS layout (a %d-slot bin-probability table); this decoder reads the %d-class symbol tables", ext[0], levelClasses)
	case ext[0] != levelClasses:
		return 0, corruptf("codec: rans header declares %d level classes, want %d", ext[0], levelClasses)
	}
	off := 1
	for c := range nClasses {
		if off == len(ext) {
			return 0, truncatedf("codec: header ends before rans class %d table", c)
		}
		n := int(ext[off])
		off++
		switch {
		case n == 0:
			continue // no chunk codes the class
		case n > classAlphabet(c):
			return 0, corruptf("codec: rans class %d declares %d of its %d symbols", c, n, classAlphabet(c))
		}
		var freq [256]uint32
		var sum uint64
		for s := 0; s < n; s++ {
			v, k := binary.Uvarint(ext[off:])
			switch {
			case k == 0:
				return 0, truncatedf("codec: header ends inside rans class %d table", c)
			case k < 0 || v > rans.Scale:
				return 0, corruptf("codec: rans class %d symbol %d frequency unreadable", c, s)
			}
			freq[s], sum, off = uint32(v), sum+v, off+k
		}
		if sum != rans.Scale {
			return 0, corruptf("codec: rans class %d frequencies sum to %d, want %d", c, sum, rans.Scale)
		}
		if tabs != nil {
			t, err := rans.FreqsFromTable(&freq)
			if err != nil {
				return 0, corruptf("codec: rans class %d: %v", c, err)
			}
			tabs[c] = t
		}
	}
	return off, nil
}

// bitWindow reads bits MSB-first off a byte window that declares n of them:
// the bypass bins of a rANS chunk. A read past the n-th bit raises
// bits.ErrOutOfData.
type bitWindow struct {
	buf    []byte
	n, pos int
}

func (w *bitWindow) bypass() int {
	i := w.pos
	if i >= w.n {
		panic(decodeError{bits.ErrOutOfData})
	}
	w.pos = i + 1
	return int(w.buf[i>>3] >> (7 - i&7) & 1)
}

func (w *bitWindow) bypassBits(n uint) uint32 {
	var v uint32
	for ; n > 0; n-- {
		v = v<<1 | uint32(w.bypass())
	}
	return v
}

// expGolomb reads a k-th order Exp-Golomb code in bypass bins — the HEVC
// coeff_abs_level_remaining binarization egEncode writes.
func (w *bitWindow) expGolomb(k uint) uint32 {
	var v uint32
	for w.bypass() == 1 {
		v += 1 << k
		k++
		if k > 30 {
			panic(decodeError{ErrCorrupt})
		}
	}
	return v + w.bypassBits(k)
}

// ransChunk is a rANS chunk payload after the pre-decode: every symbol the
// syntax parse will read, class-major — class c's in syms[start[c]:start[c+1]],
// next[c] its read cursor — and the bypass window. It is the binDecoder the
// serial syntax parse runs against.
type ransChunk struct {
	bitWindow
	syms  []uint8
	start [nClasses + 1]int
	next  [nClasses]int
}

// maxRansBins caps the symbols and bins a chunk payload may declare, relative
// to the area the chunk codes (codedPixels): the syntax never emits more than
// a handful per coefficient, so 32/pixel is generous slack while keeping a
// forged count table from committing a large allocation.
func maxRansBins(chunkPixels int64) int64 {
	return min(32*chunkPixels+4096, maxDecodePixels)
}

// readFraming resets c to the classes a rANS chunk payload declares, their
// symbols counted but undecoded, and returns the state segments.
func (c *ransChunk) readFraming(payload []byte, tabs *ransTables, chunkPixels int64) (segs [rans.Interleave][]byte, err error) {
	off := 0
	uvarint := func(what string) (int64, error) {
		v, k := binary.Uvarint(payload[off:])
		if k <= 0 || v > 1<<62 {
			return 0, corruptf("codec: rans %s unreadable", what)
		}
		off += k
		return int64(v), nil
	}
	bypassN, err := uvarint("bypass count")
	if err != nil {
		return segs, err
	}
	if bypassN > 2*maxRansBins(chunkPixels) {
		return segs, corruptf("codec: rans declares %d bypass bits for %d pixels", bypassN, chunkPixels)
	}
	bypassBytes := int((bypassN + 7) / 8)
	if len(payload)-off < bypassBytes {
		return segs, truncatedf("codec: rans payload ends inside %d bypass bytes", bypassBytes)
	}
	// The window is copied, into the buffer of the last, with a zero byte of
	// padding for parseResidual's sign reads.
	window := append(append(c.buf[:0], payload[off:off+bypassBytes]...), 0)
	*c = ransChunk{bitWindow: bitWindow{buf: window, n: int(bypassN)}, syms: c.syms[:0]}
	off += bypassBytes

	total := int64(0)
	for cl, t := range tabs {
		c.start[cl] = int(total)
		if t == nil {
			continue
		}
		n, err := uvarint("class count")
		if err != nil {
			return segs, err
		}
		total += n
		if total > maxRansBins(chunkPixels) {
			return segs, corruptf("codec: rans declares %d symbols for %d pixels", total, chunkPixels)
		}
	}
	c.start[nClasses] = int(total)
	copy(c.next[:], c.start[:nClasses])
	c.syms = slices.Grow(c.syms, int(total))[:total] // predecode writes every symbol

	var segLens [rans.Interleave]int
	segTotal := 0
	for j := range segLens {
		n, err := uvarint("segment length")
		if err != nil {
			return segs, err
		}
		if n > int64(len(payload)) {
			return segs, corruptf("codec: rans segment %d declares %d bytes", j, n)
		}
		segLens[j] = int(n)
		segTotal += int(n)
	}
	if len(payload)-off != segTotal {
		// Exact-length rule, as everywhere in the container: segments tile
		// the rest of the payload precisely.
		return segs, corruptf("codec: rans segments declare %d bytes, %d remain", segTotal, len(payload)-off)
	}
	for j, n := range segLens {
		segs[j] = payload[off : off+n]
		off += n
	}
	return segs, nil
}

// predecode decodes every class's symbols from the state segments: one
// rans.Run per class that has symbols, against the class's table.
func (c *ransChunk) predecode(segs *[rans.Interleave][]byte, tabs *ransTables) error {
	var runs [nClasses]rans.Run
	n := 0
	for cl, t := range tabs {
		if k := c.start[cl+1] - c.start[cl]; k > 0 {
			runs[n] = rans.Run{N: k, T: t}
			n++
		}
	}
	if j, err := rans.Decode(c.syms, segs, runs[:n]); err != nil {
		return corruptf("codec: rans state %d: %v", j, err)
	}
	return nil
}

// close verifies the strict end-of-chunk invariants after the syntax parse:
// every pre-decoded symbol and every bypass bit must have been consumed, so
// a payload that decodes the declared geometry with symbols left over is a
// corruption, not a success.
func (c *ransChunk) close() error {
	for cl := range c.next {
		if have, used := c.start[cl+1]-c.start[cl], c.next[cl]-c.start[cl]; used != have {
			return corruptf("codec: rans class %d: %d of %d symbols consumed", cl, used, have)
		}
	}
	if c.pos != c.n {
		return corruptf("codec: rans %d of %d bypass bits consumed", c.pos, c.n)
	}
	return nil
}

// take returns the next n symbols of class cl, or as many as it has left (a
// payload that declared too few, which the caller reports).
func (c *ransChunk) take(cl, n int) []uint8 {
	i := c.next[cl]
	j := min(i+n, c.start[cl+1])
	c.next[cl] = j
	return c.syms[i:j]
}

// bit reads the next symbol of class slot: a flag, for the flag slots the
// parse passes.
func (c *ransChunk) bit(slot int) int {
	s := c.take(slot, 1)
	if len(s) == 0 {
		panic(decodeError{ErrCorrupt})
	}
	return int(s[0])
}

// parseResidual reads one level block (ransBinEnc.levels is the inverse):
// the cbf flag, then — for a coded block — its levels as two contiguous runs,
// its band's and the rest of its scan's, each from its class. The runs cover
// the block. A level's sign is the next bypass bit, read whether or not the
// level is non-zero and consumed only if it is: no branch on a zero, which no
// predictor learns. The read stays inside the window's padding byte, and a
// window overrun is raised after the run, before a run cut short: the order
// a symbol-at-a-time parse meets them in.
func (c *ransChunk) parseResidual(lev []int32, scan []int, si int) {
	if c.bit(ctxCbf+si) == 0 {
		clear(lev)
		return
	}
	k := uint(0)
	for h, run := range [2][]int{scan[:levelBand], scan[levelBand:]} {
		syms := c.take(ctxSig+2*si+h, len(run))
		buf, pos, n := c.buf, c.pos, c.n
		for i, a := range syms {
			l := int32(a)
			if a == levelEscape {
				c.pos = pos
				rem := c.expGolomb(k)
				if rem > maxLevel-levelEscape {
					panic(decodeError{ErrCorrupt})
				}
				l += int32(rem)
				if rem > 3<<k && k < 4 {
					k++
				}
				pos = c.pos
			}
			p := min(pos, n)
			neg := int32(buf[p>>3] >> (7 - p&7) & 1)
			lev[run[i]] = l ^ -neg + neg
			pos += b2i(a != 0)
		}
		c.pos = pos
		if pos > n {
			panic(decodeError{bits.ErrOutOfData})
		}
		if len(syms) < len(run) {
			panic(decodeError{ErrCorrupt})
		}
	}
}

// codedPixels sums the area a chunk's syntax codes: each frame padded to whole
// CTUs (a 1×1 plane codes one), which its source area would undercount.
func codedPixels(dims [][2]int, ctu int) int64 {
	var n int64
	for _, d := range dims {
		n += int64(padTo(d[0], ctu)) * int64(padTo(d[1], ctu))
	}
	return n
}
