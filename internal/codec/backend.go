// Interleaved-rANS entropy backend (EntropyBackend, DESIGN.md §13).
//
// CABAC is bit-serial within a chunk: every bin's probability depends on the
// adaptation of every earlier bin. The rANS backend removes that chain with
// the paper's two-pass scheme (VcLLM):
//
//  1. Record (per chunk): the encoder runs exactly as under CABAC — same
//     decisions, syntax and reconstructions — but its bin coder appends each
//     context-coded bin to its slot's list (still adapting the contexts the
//     RD estimates read) and each bypass bin to a raw bit buffer.
//  2. Aggregate (per container): per-slot zero/one counts quantize into one
//     shared 56-byte probability table in the v3 header's backend extension.
//  3. Assemble (per chunk): the bins, slot-major — slot 0's in emission
//     order, then slot 1's, … — are coded through rans.Interleave static
//     states, bin i on state i%Interleave. The per-slot counts in the payload
//     fix every position's probability without the syntax parse, so the
//     states decode independently.
//
// The decoder pre-decodes every bin — the four states in one loop, one bin of
// each a step, their independence instruction-level parallelism
// (rans.DecodeBins) — then runs the serial syntax parse popping bins from
// per-slot queues. The chunk reader and its bin buffer live in the scratch.
//
// rANS chunk payload layout (uvarint = unsigned LEB128):
//
//	uvarint bypassBitCount | ceil(bypassBitCount/8) bypass bytes (MSB-first)
//	7-byte slot presence bitmap (bit s of byte s/8 ⇒ slot s has bins)
//	per present slot: uvarint bin count
//	if total bins > 0: 4 × uvarint segment length, then the 4 state segments
//
// Decoding is strict: counts, segment lengths and the bypass window must
// tile the payload exactly, every rANS state must close on its initial
// value, and the syntax parse must drain every queue and bypass bit.
package codec

import (
	"encoding/binary"
	"slices"

	"repro/internal/bits"
	"repro/internal/rans"
)

// ransLanes is the per-chunk interleave factor of the rANS backend.
const ransLanes = rans.Interleave

// ---------------------------------------------------------------- encoding

// ransRecord is pass 1's output for one chunk: per-slot context bins in
// emission order plus the raw bypass bits. It is heap-allocated per chunk
// (the rANS path trades the CABAC path's zero-alloc contract for
// parallel-decode framing) and consumed by assemble in pass 2.
type ransRecord struct {
	slotBins [nCtxSlots][]uint8
	bypass   *bits.Writer
}

func newRansRecord() *ransRecord {
	return &ransRecord{bypass: bits.NewWriter()}
}

// ransBinEnc is the recording binEncoder. The encoder's rate estimate is
// static, so its decisions and reconstructions are the same under either
// backend without any adaptive state here.
type ransBinEnc struct{ rec *ransRecord }

func (e ransBinEnc) bit(slot, bin int) {
	e.rec.slotBins[slot] = append(e.rec.slotBins[slot], uint8(bin))
}
func (e ransBinEnc) bypass(bin int)              { e.rec.bypass.WriteBit(bin) }
func (e ransBinEnc) bypassBits(v uint32, n uint) { e.rec.bypass.WriteBits(uint64(v), n) }

// finish is unused on the rANS path: the payload is assembled in pass 2,
// after the shared table exists. encodeChunk never calls it when recording.
func (e ransBinEnc) finish() []byte { return nil }

// bitLen reports recorded bins plus bypass bits — the raw (1 bit/bin)
// account the observability layer's stage attribution telescopes over.
func (e ransBinEnc) bitLen() int {
	n := e.rec.bypass.BitLen()
	for s := range e.rec.slotBins {
		n += len(e.rec.slotBins[s])
	}
	return n
}

// buildRansTable aggregates per-slot bin statistics across every chunk of a
// container into the shared 56-byte probability table.
func buildRansTable(recs []*ransRecord) [nCtxSlots]uint8 {
	var zeros, ones [nCtxSlots]int64
	for _, r := range recs {
		if r == nil {
			continue
		}
		for s, bins := range r.slotBins {
			zeros[s] += int64(len(bins))
			for _, b := range bins {
				ones[s] += int64(b)
				zeros[s] -= int64(b)
			}
		}
	}
	var tab [nCtxSlots]uint8
	for s := range tab {
		tab[s] = rans.QuantizeProb0(zeros[s], ones[s])
	}
	return tab
}

// assemble is pass 2: serialize one chunk's record against the shared
// table. Deterministic — output depends only on the record and the table.
func (r *ransRecord) assemble(tab *[nCtxSlots]uint8) []byte {
	total := 0
	for s := range r.slotBins {
		total += len(r.slotBins[s])
	}
	bypassN := r.bypass.BitLen()
	bypassBytes := r.bypass.Bytes()

	var tmp [binary.MaxVarintLen64]byte
	out := make([]byte, 0, len(bypassBytes)+total/4+nCtxSlots+64)
	out = append(out, tmp[:binary.PutUvarint(tmp[:], uint64(bypassN))]...)
	out = append(out, bypassBytes...)

	var bitmap [(nCtxSlots + 7) / 8]byte
	for s := range r.slotBins {
		if len(r.slotBins[s]) > 0 {
			bitmap[s/8] |= 1 << (s % 8)
		}
	}
	out = append(out, bitmap[:]...)
	for s := range r.slotBins {
		if n := len(r.slotBins[s]); n > 0 {
			out = append(out, tmp[:binary.PutUvarint(tmp[:], uint64(n))]...)
		}
	}
	if total == 0 {
		return out
	}

	// The slot-major sequence, pushed last bin first.
	var encs [ransLanes]rans.BinEncoder
	for j := range encs {
		encs[j].Reset()
	}
	i := total
	for s := nCtxSlots - 1; s >= 0; s-- {
		f0 := rans.ProbToFreq(tab[s])
		for k := len(r.slotBins[s]) - 1; k >= 0; k-- {
			i--
			encs[i%ransLanes].Put(int(r.slotBins[s][k]), f0)
		}
	}
	var segs [ransLanes][]byte
	for j := range encs {
		segs[j] = encs[j].Finish()
		out = append(out, tmp[:binary.PutUvarint(tmp[:], uint64(len(segs[j])))]...)
	}
	for j := range segs {
		out = append(out, segs[j]...)
	}
	return out
}

// ---------------------------------------------------------------- decoding

// ransChunk is a chunk payload after the pre-decode: every bin the syntax
// parse will ask for, one per byte, in nQueues queues — queue 0 the bypass
// bits, queue 1+s the context bins of slot s. Queue q owns
// bins[prefix[q]:prefix[q+1]] and next[q] is its read cursor. It is the
// binDecoder the serial syntax parse runs against, and the concrete reader of
// the per-bin residual loop, whose bin reads inline to a load and a bump.
//
// The raw ablation (no entropy coding: every bin is one literal bit, context
// and bypass interleaved in one stream) is the degenerate chunk,
// newLiteralChunk: the payload's bits are queue 0 and alias sends every read
// there.
type ransChunk struct {
	bins    []uint8
	prefix  [nQueues + 1]int
	next    [nQueues]int
	alias   int // and-ed into every queue index: all ones, or 0 for a literal chunk
	bypassN int // bypass bits the payload declares (the queue is padded to whole bytes)
}

const (
	bypassQueue = 0
	nQueues     = 1 + nCtxSlots
)

// unpackBits appends the bits of packed, MSB first, one per byte.
func unpackBits(bins []uint8, packed []byte) []uint8 {
	for _, b := range packed {
		bins = append(bins, b>>7, b>>6&1, b>>5&1, b>>4&1, b>>3&1, b>>2&1, b>>1&1, b&1)
	}
	return bins
}

// newLiteralChunk resets c to the raw payload of a chunk coding chunkPixels
// pixels, unpacked a byte per bit, and refuses it unread if it is longer than
// a rANS payload of that geometry may be: its bins, twice as many bypass bits,
// a byte's padding.
func newLiteralChunk(c *ransChunk, payload []byte, chunkPixels int64) error {
	if 8*int64(len(payload)) > 3*maxRansBins(chunkPixels)+7 {
		return corruptf("codec: %d-byte raw payload for %d pixels", len(payload), chunkPixels)
	}
	*c = ransChunk{bins: unpackBits(c.bins[:0], payload)}
	c.prefix[bypassQueue+1] = len(c.bins)
	return nil
}

// maxRansBins caps the bin count a chunk payload may declare, relative to the
// area the chunk codes (codedPixels): the syntax never emits more than a
// handful of context bins per coefficient, so 32/pixel is generous slack
// while keeping a forged count table from committing a large allocation.
func maxRansBins(chunkPixels int64) int64 {
	return min(32*chunkPixels+4096, maxDecodePixels)
}

// parseRansPayload validates one rANS chunk payload against the shared table
// and pre-decodes every context bin into c, whose buffer it reuses.
func parseRansPayload(c *ransChunk, payload []byte, tab *[nCtxSlots]uint8, chunkPixels int64) error {
	segs, err := c.readFraming(payload, chunkPixels)
	if err != nil {
		return err
	}
	return c.predecode(&segs, tab)
}

// readFraming resets c to the queues a rANS chunk payload declares, the
// context queues sized but undecoded, and returns the state segments (nil
// when the chunk codes no context bin).
func (c *ransChunk) readFraming(payload []byte, chunkPixels int64) (segs [ransLanes][]byte, err error) {
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
	bypass := payload[off : off+bypassBytes]
	off += bypassBytes
	*c = ransChunk{bins: c.bins[:0], alias: -1, bypassN: int(bypassN)}

	const bitmapLen = (nCtxSlots + 7) / 8
	if len(payload)-off < bitmapLen {
		return segs, truncatedf("codec: rans payload ends inside slot bitmap")
	}
	bitmap := payload[off : off+bitmapLen]
	off += bitmapLen
	// The bypass queue comes first, so queue q's bins start 8·bypassBytes
	// past their place in the slot-major array the rANS states decode.
	base := int64(8 * bypassBytes)
	total := int64(0)
	for s := 0; s < nCtxSlots; s++ {
		c.prefix[1+s] = int(base + total)
		if bitmap[s/8]&(1<<(s%8)) == 0 {
			continue
		}
		n, err := uvarint("slot count")
		if err != nil {
			return segs, err
		}
		if n == 0 {
			return segs, corruptf("codec: rans slot %d present with zero bins", s)
		}
		total += n
		if total > maxRansBins(chunkPixels) {
			return segs, corruptf("codec: rans declares %d bins for %d pixels", total, chunkPixels)
		}
	}
	c.prefix[nQueues] = int(base + total)
	copy(c.next[:], c.prefix[:nQueues])
	c.bins = unpackBits(c.bins, bypass)
	c.bins = slices.Grow(c.bins, int(total))[:base+total] // predecode writes every context bin
	if total == 0 {
		if off != len(payload) {
			return segs, corruptf("codec: rans %d trailing bytes after empty bin table", len(payload)-off)
		}
		return segs, nil
	}

	var segLens [ransLanes]int
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

// predecode decodes the context queues from the state segments: one rans.Run
// per present slot, at the slot's table frequency.
func (c *ransChunk) predecode(segs *[ransLanes][]byte, tab *[nCtxSlots]uint8) error {
	base := c.prefix[1]
	if c.prefix[nQueues] == base {
		return nil
	}
	var runs [nCtxSlots]rans.Run
	n := 0
	for s, p := range tab {
		if k := c.prefix[s+2] - c.prefix[s+1]; k > 0 {
			runs[n] = rans.Run{Bins: k, F0: rans.ProbToFreq(p)}
			n++
		}
	}
	if j, err := rans.DecodeBins(c.bins[base:], segs, runs[:n]); err != nil {
		return corruptf("codec: rans state %d: %v", j, err)
	}
	return nil
}

// close verifies the strict end-of-chunk invariants after the syntax parse:
// every pre-decoded bin and every bypass bit must have been consumed, so a
// payload that decodes the declared geometry with symbols left over is a
// corruption, not a success.
func (c *ransChunk) close() error {
	for s := 0; s < nCtxSlots; s++ {
		if have, used := c.prefix[s+2]-c.prefix[s+1], c.next[s+1]-c.prefix[s+1]; used != have {
			return corruptf("codec: rans slot %d: %d of %d bins consumed", s, used, have)
		}
	}
	if used := c.next[bypassQueue]; used != c.bypassN {
		return corruptf("codec: rans %d of %d bypass bits consumed", used, c.bypassN)
	}
	return nil
}

// queueDry is what a read from an empty queue raises: the bypass queue — and
// with it every read of a literal chunk — ran out of data, while a context
// queue short of a bin the parse wants is a payload that declared too few.
var queueDry = [2]error{bits.ErrOutOfData, errMalformed}

// pop takes the next bin of queue q.
func (c *ransChunk) pop(q int) int {
	i := c.next[q]
	if i >= c.prefix[q+1] {
		panic(decodeError{queueDry[min(q, 1)]})
	}
	c.next[q] = i + 1
	return int(c.bins[i])
}

func (c *ransChunk) bit(slot int) int { return c.pop((1 + slot) & c.alias) }
func (c *ransChunk) bypass() int      { return c.pop(bypassQueue) }

func (c *ransChunk) bypassBits(n uint) uint32 {
	var v uint32
	for ; n > 0; n-- {
		v = v<<1 | uint32(c.bypass())
	}
	return v
}

// expGolomb reads a k-th order Exp-Golomb code off the bypass queue — the
// HEVC coeff_abs_level_remaining binarization egEncode writes.
func (c *ransChunk) expGolomb(k uint) uint32 {
	var v uint32
	for c.bypass() == 1 {
		v += 1 << k
		k++
		if k > 30 {
			panic(decodeError{errMalformed})
		}
	}
	return v + c.bypassBits(k)
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
