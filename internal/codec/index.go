// The optional v3 trailer and the chunk/tile index it carries (DESIGN.md
// §15).
//
// The hardened container ends, by PR-2's exact-length rule, exactly after
// its last payload — any trailing byte is treated as damaged framing, which
// is what defeats the version-byte downgrade flip. That rule made the format
// impossible to evolve: nothing could ever be appended. The trailer is the
// forward-compat escape hatch, designed so the anti-downgrade property
// survives:
//
//	"L26X" | uint32 bodyLen | records... | uint32 trailerCRC32C
//
// with each record a self-delimiting TLV:
//
//	uint32 tag | uint32 recLen | recLen bytes
//
// Rules (the compat contract):
//
//   - The trailer is defined for version-3 containers only, at most one,
//     immediately after the last payload, with nothing after it. v1/v2 keep
//     the strict exact-length rule unchanged.
//   - The trailer CRC32C covers every trailer byte before it (magic, bodyLen,
//     records), so bit-rot inside the trailer is ErrChecksum, not silent.
//   - Unknown record tags are skipped: a reader at today's revision accepts
//     trailers written by tomorrow's encoder. Structurally broken records
//     (running past bodyLen) are ErrCorrupt.
//   - Trailing bytes that do not begin with the trailer magic remain
//     ErrCorrupt, exactly as before — a flipped version byte still leaves
//     dangling CRC fields that no longer parse as a container, and they do
//     not parse as a trailer either.
//   - Lenient parses (DecodeConfig.Partial) treat a damaged trailer as
//     absent: the index is an accelerator, and every chunk is still decodable
//     from the CRC-verified header table alone.
//
// Record tag 1 is the chunk index: per chunk the absolute payload offset,
// length, CRC32C and plane span, plus (optionally) a per-plane region rect
// tying each plane to the tensor-space rectangle it covers. The index is
// what makes a packed container random-access: a store can fetch and decode
// exactly the chunks covering one layer (see DecodeConfig.First/Count,
// core.DecodeLayerCtx and internal/store).
package codec

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
)

// trailerMagic opens the optional v3 trailer section. Distinct from the
// container magic so a trailer can never be misparsed as a nested stream.
var trailerMagic = [4]byte{'L', '2', '6', 'X'}

// trailerTagChunkIndex is the TLV tag of the chunk-index record.
const trailerTagChunkIndex = 1

// trailer framing sizes: magic + bodyLen prefix, and the trailing CRC.
const (
	trailerHeadLen  = 8
	trailerCRCLen   = 4
	trailerRecHead  = 8
	indexEntryLen   = 24 // u64 offset, u32 length, u32 crc, u32 planeBase, u32 planeCount
	indexRegionLen  = 20 // u32 layer, x0, y0, w, h
	maxTrailerBytes = 1 << 26
)

// PlaneRegion ties one plane of a container to the tensor-space rectangle it
// covers: the stack layer it belongs to and the cell rect [Y0,Y0+H)×[X0,X0+W)
// within that layer's matrix. The codec itself never interprets these — they
// are carried for the core layer and the chunk store, which use them to map
// tensor regions back to chunks.
type PlaneRegion struct {
	Layer, X0, Y0, W, H int
}

// IndexEntry locates one chunk inside a container: the absolute byte offset
// of its payload, the payload length and CRC32C, and the contiguous plane
// span it decodes to.
type IndexEntry struct {
	Offset     int64  // absolute payload offset from the container start
	Length     int    // payload length in bytes
	CRC        uint32 // CRC32C over the payload (same value as the chunk table's)
	PlaneBase  int    // index of the chunk's first plane
	PlaneCount int    // number of planes the chunk decodes to
}

// ChunkIndex is the parsed chunk-index trailer record.
type ChunkIndex struct {
	// Entries lists every chunk in container order.
	Entries []IndexEntry
	// Regions maps plane i to its tensor-space rectangle. Either nil (the
	// encoder was not given regions) or exactly one entry per plane.
	Regions []PlaneRegion
}

// buildChunkIndexRecord serializes the chunk-index record body.
func buildChunkIndexRecord(entries []IndexEntry, regions []PlaneRegion) []byte {
	body := make([]byte, 0, 4+len(entries)*indexEntryLen+4+len(regions)*indexRegionLen)
	var u32 [4]byte
	var u64 [8]byte
	put32 := func(v uint32) {
		binary.BigEndian.PutUint32(u32[:], v)
		body = append(body, u32[:]...)
	}
	put32(uint32(len(entries)))
	for _, e := range entries {
		binary.BigEndian.PutUint64(u64[:], uint64(e.Offset))
		body = append(body, u64[:]...)
		put32(uint32(e.Length))
		put32(e.CRC)
		put32(uint32(e.PlaneBase))
		put32(uint32(e.PlaneCount))
	}
	put32(uint32(len(regions)))
	for _, r := range regions {
		put32(uint32(r.Layer))
		put32(uint32(r.X0))
		put32(uint32(r.Y0))
		put32(uint32(r.W))
		put32(uint32(r.H))
	}
	return body
}

// buildTrailer assembles the full trailer section (magic, length-prefixed
// records, CRC) around the given chunk index.
func buildTrailer(entries []IndexEntry, regions []PlaneRegion) []byte {
	rec := buildChunkIndexRecord(entries, regions)
	out := make([]byte, 0, trailerHeadLen+trailerRecHead+len(rec)+trailerCRCLen)
	out = append(out, trailerMagic[:]...)
	var u32 [4]byte
	put32 := func(v uint32) {
		binary.BigEndian.PutUint32(u32[:], v)
		out = append(out, u32[:]...)
	}
	put32(uint32(trailerRecHead + len(rec))) // bodyLen
	put32(trailerTagChunkIndex)
	put32(uint32(len(rec)))
	out = append(out, rec...)
	put32(crc32.Checksum(out, crcTable))
	return out
}

// parseChunkIndexRecord parses a chunk-index record body. The record arrives
// CRC-verified, so defects here mean an encoder bug or a forged trailer —
// always ErrCorrupt.
func parseChunkIndexRecord(body []byte) (*ChunkIndex, error) {
	if len(body) < 4 {
		return nil, corruptf("codec: index record ends before chunk count")
	}
	n := int(binary.BigEndian.Uint32(body))
	off := 4
	if n < 0 || len(body)-off < n*indexEntryLen {
		return nil, corruptf("codec: index record declares %d chunks, %d bytes remain", n, len(body)-off)
	}
	idx := &ChunkIndex{Entries: make([]IndexEntry, n)}
	for i := 0; i < n; i++ {
		e := &idx.Entries[i]
		e.Offset = int64(binary.BigEndian.Uint64(body[off:]))
		e.Length = int(binary.BigEndian.Uint32(body[off+8:]))
		e.CRC = binary.BigEndian.Uint32(body[off+12:])
		e.PlaneBase = int(binary.BigEndian.Uint32(body[off+16:]))
		e.PlaneCount = int(binary.BigEndian.Uint32(body[off+20:]))
		off += indexEntryLen
		if e.Offset < 0 || e.Length < 0 || e.PlaneBase < 0 || e.PlaneCount <= 0 {
			return nil, corruptf("codec: index entry %d has impossible fields", i)
		}
	}
	if len(body)-off < 4 {
		return nil, corruptf("codec: index record ends before region count")
	}
	nr := int(binary.BigEndian.Uint32(body[off:]))
	off += 4
	if nr < 0 || len(body)-off != nr*indexRegionLen {
		return nil, corruptf("codec: index record declares %d regions, %d bytes remain", nr, len(body)-off)
	}
	if nr > 0 {
		idx.Regions = make([]PlaneRegion, nr)
		for i := 0; i < nr; i++ {
			r := &idx.Regions[i]
			r.Layer = int(binary.BigEndian.Uint32(body[off:]))
			r.X0 = int(binary.BigEndian.Uint32(body[off+4:]))
			r.Y0 = int(binary.BigEndian.Uint32(body[off+8:]))
			r.W = int(binary.BigEndian.Uint32(body[off+12:]))
			r.H = int(binary.BigEndian.Uint32(body[off+16:]))
			off += indexRegionLen
		}
	}
	return idx, nil
}

// parseTrailer parses the trailer section starting at data[off], which the
// caller has established is non-empty and belongs to a v3 container. It
// returns the chunk index if a chunk-index record is present (nil if the
// trailer carries only unknown records) and the offset one past the trailer.
// All failures are typed; the caller decides whether they abort the decode
// (strict) or merely drop the index (lenient).
func parseTrailer(data []byte, off int) (*ChunkIndex, int, error) {
	rest := data[off:]
	if len(rest) < trailerHeadLen+trailerCRCLen {
		if string(rest[:min(len(rest), 4)]) == string(trailerMagic[:min(len(rest), 4)]) {
			return nil, 0, truncatedf("codec: %d-byte trailer fragment", len(rest))
		}
		return nil, 0, corruptf("codec: %d trailing bytes after container end", len(rest))
	}
	for i := range trailerMagic {
		if rest[i] != trailerMagic[i] {
			// Not a trailer: the historical trailing-bytes rejection, which is
			// what keeps the version-downgrade flip an error.
			return nil, 0, corruptf("codec: %d trailing bytes after container end", len(rest))
		}
	}
	bodyLen := int(binary.BigEndian.Uint32(rest[4:]))
	if bodyLen < 0 || bodyLen > maxTrailerBytes {
		return nil, 0, corruptf("codec: trailer body of %d bytes out of range", bodyLen)
	}
	total := trailerHeadLen + bodyLen + trailerCRCLen
	if len(rest) < total {
		return nil, 0, truncatedf("codec: trailer needs %d bytes, %d remain", total, len(rest))
	}
	if len(rest) > total {
		return nil, 0, corruptf("codec: %d trailing bytes after trailer end", len(rest)-total)
	}
	want := binary.BigEndian.Uint32(rest[trailerHeadLen+bodyLen:])
	if got := crc32.Checksum(rest[:trailerHeadLen+bodyLen], crcTable); got != want {
		return nil, 0, fmt.Errorf("codec: trailer CRC %08x != %08x: %w", got, want, ErrChecksum)
	}
	var idx *ChunkIndex
	body := rest[trailerHeadLen : trailerHeadLen+bodyLen]
	for len(body) > 0 {
		if len(body) < trailerRecHead {
			return nil, 0, corruptf("codec: trailer ends inside record header")
		}
		tag := binary.BigEndian.Uint32(body)
		recLen := int(binary.BigEndian.Uint32(body[4:]))
		body = body[trailerRecHead:]
		if recLen < 0 || recLen > len(body) {
			return nil, 0, corruptf("codec: trailer record of %d bytes runs past body", recLen)
		}
		switch tag {
		case trailerTagChunkIndex:
			if idx != nil {
				return nil, 0, corruptf("codec: duplicate chunk-index record")
			}
			var err error
			if idx, err = parseChunkIndexRecord(body[:recLen]); err != nil {
				return nil, 0, err
			}
		default:
			// Unknown-trailer-tolerant: future record types are skipped, not
			// rejected — the forward-compat half of the contract.
		}
		body = body[recLen:]
	}
	return idx, off + total, nil
}

// validateIndex cross-checks a parsed chunk index against the CRC-verified
// header chunk table. The two encode the same facts, so any disagreement
// means a forged or buggy trailer — ErrCorrupt, never acted on.
func validateIndex(idx *ChunkIndex, pc *parsedContainer, payloadBase int, sizes []int, crcs []uint32, counts []int) error {
	if idx == nil {
		return nil
	}
	if len(idx.Entries) != len(sizes) {
		return corruptf("codec: index lists %d chunks, table has %d", len(idx.Entries), len(sizes))
	}
	off, base := int64(payloadBase), 0
	for i, e := range idx.Entries {
		if e.Offset != off || e.Length != sizes[i] || e.CRC != crcs[i] ||
			e.PlaneBase != base || e.PlaneCount != counts[i] {
			return corruptf("codec: index entry %d contradicts the chunk table", i)
		}
		off += int64(sizes[i])
		base += counts[i]
	}
	if idx.Regions != nil && len(idx.Regions) != len(pc.dims) {
		return corruptf("codec: index maps %d regions, container has %d planes",
			len(idx.Regions), len(pc.dims))
	}
	for i, r := range idx.Regions {
		if r.W != pc.dims[i][0] || r.H != pc.dims[i][1] {
			return corruptf("codec: index region %d is %dx%d, plane is %dx%d",
				i, r.W, r.H, pc.dims[i][0], pc.dims[i][1])
		}
		if r.Layer < 0 || r.X0 < 0 || r.Y0 < 0 {
			return corruptf("codec: index region %d has negative geometry", i)
		}
	}
	return nil
}

// ContainerLayout describes a container's byte geometry without decoding any
// payload: where the header ends, where each chunk payload lives, and where
// the trailer (if any) begins. The chunk store uses it to split a container
// into content-addressable pieces that reassemble byte-identically.
type ContainerLayout struct {
	Version    int          // container version (1, 2 or 3)
	Planes     int          // total planes the container decodes to
	HeaderLen  int          // bytes before the first payload
	Entries    []IndexEntry // per-chunk payload spans, in container order
	TrailerOff int          // offset of the trailer; len(data) when absent
	TrailerLen int          // trailer length in bytes; 0 when absent
	Index      *ChunkIndex  // parsed trailer index; nil when absent
}

// Layout parses a container down to its byte geometry, strictly (any framing
// defect is a typed error). Entries are always populated — for un-indexed
// containers they are computed from the header chunk table — so callers can
// address chunks uniformly.
func Layout(data []byte) (*ContainerLayout, error) {
	pc, err := parseContainer(data, false)
	if err != nil {
		return nil, err
	}
	lay := &ContainerLayout{
		Version:    int(pc.version),
		Planes:     len(pc.dims),
		HeaderLen:  pc.payloadBase,
		TrailerOff: pc.trailerOff,
		TrailerLen: len(data) - pc.trailerOff,
		Index:      pc.index,
	}
	off, base := int64(pc.payloadBase), 0
	for _, c := range pc.chunks {
		lay.Entries = append(lay.Entries, IndexEntry{
			Offset:     off,
			Length:     len(c.payload),
			CRC:        crc32.Checksum(c.payload, crcTable),
			PlaneBase:  base,
			PlaneCount: len(c.dims),
		})
		off += int64(len(c.payload))
		base += len(c.dims)
	}
	return lay, nil
}
