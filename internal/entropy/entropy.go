// Package entropy implements the general-purpose byte compressors that form
// the §7.1 baseline grid when chained after INT/MXFP quantization: Huffman,
// Deflate, LZ4, a CABAC-style adaptive byte coder, and an interleaved-state
// static rANS coder (the entropy stage the paper's parallel decode rests on).
package entropy

import (
	"bytes"
	"compress/flate"
	"errors"
	"fmt"
	"hash/crc32"
	"io"

	"repro/internal/bits"
	"repro/internal/cabac"
)

// Typed decode taxonomy, mirroring the codec container's: every Decode
// failure on malformed input matches one of these under errors.Is, so
// callers can distinguish a cut-off transfer from structural damage without
// string matching.
var (
	// ErrTruncated marks streams that end before decoding completes.
	ErrTruncated = errors.New("entropy: truncated stream")
	// ErrCorrupt marks streams that are structurally impossible: bad
	// offsets, malformed tables, failed integrity checks, trailing garbage.
	ErrCorrupt = errors.New("entropy: corrupt stream")
)

func corruptf(format string, args ...any) error {
	return fmt.Errorf(format+": %w", append(args, ErrCorrupt)...)
}

func truncatedf(format string, args ...any) error {
	return fmt.Errorf(format+": %w", append(args, ErrTruncated)...)
}

// Coder compresses and decompresses byte streams.
//
// Decode is the trust boundary: comp may be hostile or damaged, so every
// implementation returns an error (never panics) on malformed input and
// validates n before sizing any allocation from it.
type Coder interface {
	Name() string
	// Encode compresses data. Errors are rare (back-end failures) but are
	// returned rather than panicking so callers on serving paths stay up.
	Encode(data []byte) ([]byte, error)
	// Decode inverts Encode; n is the original length.
	Decode(comp []byte, n int) ([]byte, error)
}

// MaxDecodeLen caps the output length a Decode call will agree to produce
// (256 MB). The length is caller-supplied metadata, so without a cap a
// forged n commits the decoder to an arbitrary allocation before it reads a
// single compressed byte.
const MaxDecodeLen = 1 << 28

// checkDecodeLen validates a caller-supplied output length.
func checkDecodeLen(n int) error {
	if n < 0 || n > MaxDecodeLen {
		return fmt.Errorf("entropy: output length %d out of range [0, %d]", n, MaxDecodeLen)
	}
	return nil
}

// All returns the five coders of the baseline grid.
func All() []Coder {
	return []Coder{HuffmanCoder{}, DeflateCoder{}, LZ4Coder{}, CABACCoder{}, RANSCoder{}}
}

// ---------------------------------------------------------------- Huffman

// HuffmanCoder is a canonical static Huffman coder with an explicit
// code-length table header.
type HuffmanCoder struct{}

// Name implements Coder.
func (HuffmanCoder) Name() string { return "Huffman" }

type huffNode struct {
	freq        int
	sym         int // -1 for internal
	left, right *huffNode
}

// buildLengths computes code lengths via a simple two-queue Huffman build.
func buildLengths(freq [256]int) [256]int {
	var nodes []*huffNode
	for s, f := range freq {
		if f > 0 {
			nodes = append(nodes, &huffNode{freq: f, sym: s})
		}
	}
	var lengths [256]int
	switch len(nodes) {
	case 0:
		return lengths
	case 1:
		lengths[nodes[0].sym] = 1
		return lengths
	}
	for len(nodes) > 1 {
		// Find two smallest (n is ≤256; quadratic is fine).
		a, b := 0, 1
		if nodes[b].freq < nodes[a].freq {
			a, b = b, a
		}
		for i := 2; i < len(nodes); i++ {
			if nodes[i].freq < nodes[a].freq {
				b, a = a, i
			} else if nodes[i].freq < nodes[b].freq {
				b = i
			}
		}
		merged := &huffNode{freq: nodes[a].freq + nodes[b].freq, sym: -1,
			left: nodes[a], right: nodes[b]}
		// Remove b then a (b > a not guaranteed; handle indices carefully).
		hi, lo := a, b
		if hi < lo {
			hi, lo = lo, hi
		}
		nodes[hi] = nodes[len(nodes)-1]
		nodes = nodes[:len(nodes)-1]
		if lo == len(nodes) {
			lo = hi
		}
		nodes[lo] = merged
	}
	var walk func(n *huffNode, depth int)
	walk = func(n *huffNode, depth int) {
		if n.sym >= 0 {
			d := depth
			if d == 0 {
				d = 1
			}
			lengths[n.sym] = d
			return
		}
		walk(n.left, depth+1)
		walk(n.right, depth+1)
	}
	walk(nodes[0], 0)
	return lengths
}

// canonicalCodes assigns canonical codes from lengths.
func canonicalCodes(lengths [256]int) (codes [256]uint32, ok bool) {
	maxLen := 0
	for _, l := range lengths {
		if l > maxLen {
			maxLen = l
		}
	}
	if maxLen == 0 {
		return codes, false
	}
	var blCount [64]int
	for _, l := range lengths {
		if l > 0 {
			blCount[l]++
		}
	}
	var nextCode [64]uint32
	var code uint32
	for l := 1; l <= maxLen; l++ {
		code = (code + uint32(blCount[l-1])) << 1
		nextCode[l] = code
	}
	for s := 0; s < 256; s++ {
		if lengths[s] > 0 {
			codes[s] = nextCode[lengths[s]]
			nextCode[lengths[s]]++
		}
	}
	return codes, true
}

// Encode implements Coder.
func (HuffmanCoder) Encode(data []byte) ([]byte, error) {
	var freq [256]int
	for _, b := range data {
		freq[b]++
	}
	lengths := buildLengths(freq)
	codes, ok := canonicalCodes(lengths)
	w := bits.NewWriter()
	// Header: 256 code lengths, 6 bits each.
	for s := 0; s < 256; s++ {
		w.WriteBits(uint64(lengths[s]), 6)
	}
	if ok {
		for _, b := range data {
			w.WriteBits(uint64(codes[b]), uint(lengths[b]))
		}
	}
	return w.Bytes(), nil
}

// Decode implements Coder.
func (HuffmanCoder) Decode(comp []byte, n int) ([]byte, error) {
	if err := checkDecodeLen(n); err != nil {
		return nil, err
	}
	r := bits.NewReader(comp)
	var lengths [256]int
	for s := 0; s < 256; s++ {
		v, err := r.ReadBits(6)
		if err != nil {
			return nil, truncatedf("entropy: huffman stream ends inside length table")
		}
		lengths[s] = int(v)
	}
	codes, ok := canonicalCodes(lengths)
	if !ok {
		if n == 0 {
			return nil, nil
		}
		return nil, corruptf("entropy: empty huffman code table for %d declared bytes", n)
	}
	// Build a decode map keyed by (length, code).
	type key struct {
		l int
		c uint32
	}
	dec := map[key]byte{}
	for s := 0; s < 256; s++ {
		if lengths[s] > 0 {
			dec[key{lengths[s], codes[s]}] = byte(s)
		}
	}
	out := make([]byte, 0, n)
	var cur uint32
	curLen := 0
	for len(out) < n {
		b, err := r.ReadBit()
		if err != nil {
			return nil, truncatedf("entropy: huffman stream ends after %d of %d bytes", len(out), n)
		}
		cur = cur<<1 | uint32(b)
		curLen++
		if curLen > 48 {
			return nil, corruptf("entropy: malformed huffman stream")
		}
		if s, found := dec[key{curLen, cur}]; found {
			out = append(out, s)
			cur, curLen = 0, 0
		}
	}
	return out, nil
}

// ---------------------------------------------------------------- Deflate

// DeflateCoder wraps the standard library's DEFLATE at maximum compression.
type DeflateCoder struct{}

// Name implements Coder.
func (DeflateCoder) Name() string { return "Deflate" }

// Encode implements Coder. It returns the back-end's error instead of the
// historical panic(err), so a failure can never take down a long-running
// process that merely tried to compress.
func (DeflateCoder) Encode(data []byte) ([]byte, error) {
	var buf bytes.Buffer
	w, err := flate.NewWriter(&buf, flate.BestCompression)
	if err != nil {
		return nil, fmt.Errorf("entropy: deflate init: %w", err)
	}
	if _, err := w.Write(data); err != nil {
		return nil, fmt.Errorf("entropy: deflate write: %w", err)
	}
	if err := w.Close(); err != nil {
		return nil, fmt.Errorf("entropy: deflate flush: %w", err)
	}
	return buf.Bytes(), nil
}

// Decode implements Coder.
func (DeflateCoder) Decode(comp []byte, n int) ([]byte, error) {
	if err := checkDecodeLen(n); err != nil {
		return nil, err
	}
	r := flate.NewReader(bytes.NewReader(comp))
	defer r.Close()
	out := make([]byte, 0, n)
	buf := make([]byte, 4096)
	for {
		k, err := r.Read(buf)
		out = append(out, buf[:k]...)
		if len(out) > n {
			// Bomb guard: stop inflating as soon as the output exceeds the
			// declared length instead of buffering an attacker-chosen blob.
			return nil, corruptf("entropy: deflate expands past %d declared bytes", n)
		}
		if err == io.EOF {
			break
		}
		if err != nil {
			if errors.Is(err, io.ErrUnexpectedEOF) {
				return nil, truncatedf("entropy: deflate stream ends early")
			}
			return nil, fmt.Errorf("entropy: deflate: %v: %w", err, ErrCorrupt)
		}
	}
	if len(out) != n {
		return nil, corruptf("entropy: deflate length %d, want %d", len(out), n)
	}
	return out, nil
}

// ---------------------------------------------------------------- LZ4

// LZ4Coder is a from-scratch LZ4-block-style byte-oriented LZ77 coder:
// token byte (literal-run | match-len nibbles), LSIC length extensions,
// 2-byte little-endian match offsets, greedy hash-chain matching.
type LZ4Coder struct{}

// Name implements Coder.
func (LZ4Coder) Name() string { return "LZ4" }

const (
	lz4MinMatch = 4
	lz4HashBits = 13
)

func lz4Hash(v uint32) uint32 { return (v * 2654435761) >> (32 - lz4HashBits) }

// Encode implements Coder.
func (LZ4Coder) Encode(data []byte) ([]byte, error) {
	var out []byte
	var table [1 << lz4HashBits]int
	for i := range table {
		table[i] = -1
	}
	anchor := 0
	i := 0
	emit := func(litEnd, matchLen, offset int) {
		litLen := litEnd - anchor
		token := byte(0)
		if litLen >= 15 {
			token = 15 << 4
		} else {
			token = byte(litLen) << 4
		}
		ml := matchLen - lz4MinMatch
		if matchLen > 0 {
			if ml >= 15 {
				token |= 15
			} else {
				token |= byte(ml)
			}
		}
		out = append(out, token)
		if litLen >= 15 {
			rest := litLen - 15
			for rest >= 255 {
				out = append(out, 255)
				rest -= 255
			}
			out = append(out, byte(rest))
		}
		out = append(out, data[anchor:litEnd]...)
		if matchLen > 0 {
			out = append(out, byte(offset), byte(offset>>8))
			if ml >= 15 {
				rest := ml - 15
				for rest >= 255 {
					out = append(out, 255)
					rest -= 255
				}
				out = append(out, byte(rest))
			}
		}
	}
	for i+lz4MinMatch <= len(data) {
		v := uint32(data[i]) | uint32(data[i+1])<<8 | uint32(data[i+2])<<16 | uint32(data[i+3])<<24
		h := lz4Hash(v)
		cand := table[h]
		table[h] = i
		if cand >= 0 && i-cand < 65536 &&
			data[cand] == data[i] && data[cand+1] == data[i+1] &&
			data[cand+2] == data[i+2] && data[cand+3] == data[i+3] {
			mlen := lz4MinMatch
			for i+mlen < len(data) && data[cand+mlen] == data[i+mlen] {
				mlen++
			}
			emit(i, mlen, i-cand)
			i += mlen
			anchor = i
			continue
		}
		i++
	}
	// Final literal run.
	emit(len(data), 0, 0)
	return out, nil
}

// Decode implements Coder.
func (LZ4Coder) Decode(comp []byte, n int) ([]byte, error) {
	if err := checkDecodeLen(n); err != nil {
		return nil, err
	}
	out := make([]byte, 0, n)
	i := 0
	readLSIC := func(base int) (int, error) {
		v := base
		if base == 15 {
			for {
				if i >= len(comp) {
					return 0, truncatedf("entropy: lz4 truncated length")
				}
				b := comp[i]
				i++
				v += int(b)
				if b != 255 {
					break
				}
			}
		}
		return v, nil
	}
	for i < len(comp) {
		token := comp[i]
		i++
		litLen, err := readLSIC(int(token >> 4))
		if err != nil {
			return nil, err
		}
		if i+litLen > len(comp) {
			return nil, truncatedf("entropy: lz4 truncated literals")
		}
		out = append(out, comp[i:i+litLen]...)
		i += litLen
		if len(out) >= n || i >= len(comp) {
			break
		}
		if i+2 > len(comp) {
			return nil, truncatedf("entropy: lz4 truncated offset")
		}
		offset := int(comp[i]) | int(comp[i+1])<<8
		i += 2
		// A match may only reference bytes already produced: offset 0 is a
		// self-reference and offset > len(out) reaches before the start of
		// the output window.
		if offset == 0 || offset > len(out) {
			return nil, corruptf("entropy: lz4 offset %d outside %d-byte window", offset, len(out))
		}
		mlen, err := readLSIC(int(token & 15))
		if err != nil {
			return nil, err
		}
		mlen += lz4MinMatch
		if mlen > n-len(out) {
			// Bomb guard: a forged match length cannot commit the decoder
			// to producing more than the declared n bytes.
			return nil, corruptf("entropy: lz4 match of %d overflows %d declared bytes", mlen, n)
		}
		src := len(out) - offset
		for k := 0; k < mlen; k++ {
			out = append(out, out[src+k])
		}
		if i >= len(comp) {
			// The encoder always closes a block with a literals-only token
			// after the last match, so a stream that ends on a match is a
			// truncated one — even when the output happens to be complete.
			return nil, truncatedf("entropy: lz4 stream ends on a match sequence")
		}
	}
	if len(out) != n {
		return nil, corruptf("entropy: lz4 length %d, want %d", len(out), n)
	}
	if i != len(comp) {
		// Exact-consumption rule: the encoder always closes a block with a
		// final (possibly empty) literal token, so a decode that reaches n
		// output bytes with input left over is reading a damaged or padded
		// stream. The old decoder broke out of the loop here and silently
		// accepted the trailing bytes.
		return nil, corruptf("entropy: lz4 %d trailing bytes after %d decoded", len(comp)-i, n)
	}
	return out, nil
}

// ---------------------------------------------------------------- CABAC

// CABACCoder codes bytes bit-by-bit through a context tree of adaptive
// binary models (the order-0 adaptive arithmetic coder used as the
// hardware-compression baseline in §7.1 [40]). The arithmetic stream
// carries no redundancy of its own — a flipped bit just decodes to
// different bytes — so Encode appends a CRC32C trailer and Decode verifies
// it, making truncation and bit damage typed errors instead of silent
// garbage.
type CABACCoder struct{}

// Name implements Coder.
func (CABACCoder) Name() string { return "CABAC" }

// Encode implements Coder.
func (CABACCoder) Encode(data []byte) ([]byte, error) {
	enc := cabac.NewEncoder()
	ctx := newByteContexts()
	for _, b := range data {
		node := 1
		for bit := 7; bit >= 0; bit-- {
			v := int(b>>uint(bit)) & 1
			enc.EncodeBit(&ctx[node], v)
			node = node<<1 | v
		}
	}
	return appendCRC(enc.Finish()), nil
}

// Decode implements Coder.
func (CABACCoder) Decode(comp []byte, n int) ([]byte, error) {
	if err := checkDecodeLen(n); err != nil {
		return nil, err
	}
	body, err := checkCRC(comp, "cabac")
	if err != nil {
		return nil, err
	}
	dec := cabac.NewDecoder(body)
	ctx := newByteContexts()
	out := make([]byte, n)
	for i := 0; i < n; i++ {
		node := 1
		for bit := 0; bit < 8; bit++ {
			v := dec.DecodeBit(&ctx[node])
			node = node<<1 | v
		}
		out[i] = byte(node & 0xFF)
	}
	return out, nil
}

func newByteContexts() []cabac.Context {
	ctx := make([]cabac.Context, 256)
	for i := range ctx {
		ctx[i] = cabac.NewContext(0.5)
	}
	return ctx
}

// crcTable is CRC32C (Castagnoli), matching the codec container's choice.
var crcTable = crc32.MakeTable(crc32.Castagnoli)

// crcSeed primes the integrity trailer so that an empty body has a nonzero
// checksum: without it, a stream of leading zero bytes truncated to four
// bytes parses as "empty body + CRC(empty) = 0" and sails through.
var crcSeed = crc32.Checksum([]byte("entropy.crc.v1"), crcTable)

// appendCRC suffixes a stream with a little-endian CRC32C integrity
// trailer, used by the coders whose body carries no structural redundancy.
func appendCRC(body []byte) []byte {
	sum := crc32.Update(crcSeed, crcTable, body)
	return append(body, byte(sum), byte(sum>>8), byte(sum>>16), byte(sum>>24))
}

// checkCRC validates and strips an appendCRC trailer.
func checkCRC(comp []byte, label string) ([]byte, error) {
	if len(comp) < 4 {
		return nil, truncatedf("entropy: %s stream ends inside integrity trailer", label)
	}
	body := comp[:len(comp)-4]
	tail := comp[len(comp)-4:]
	want := uint32(tail[0]) | uint32(tail[1])<<8 | uint32(tail[2])<<16 | uint32(tail[3])<<24
	if got := crc32.Update(crcSeed, crcTable, body); got != want {
		return nil, corruptf("entropy: %s integrity check failed (crc %08x, trailer %08x)", label, got, want)
	}
	return body, nil
}
