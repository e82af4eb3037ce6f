// Container byte geometry (DESIGN.md §15): Layout, and where a version-3
// container ends.
//
// Earlier builds could append a chunk-index trailer to a v3 container:
//
//	"L26X" | uint32 bodyLen | body | uint32 trailerCRC32C
//
// Its body restated the CRC-verified chunk table, so the encoder no longer
// writes one; the reader still accepts it, so streams at rest stay readable,
// and never reads its body. What it checks is what decides where the
// container ends:
//
//   - At most one trailer, on a v3 container only, right after the last
//     payload and with nothing after it. v1/v2 keep the exact-length rule.
//   - Trailing bytes that do not begin with the trailer magic are ErrCorrupt:
//     a flipped version byte leaves dangling CRC fields that parse neither as
//     a container nor as a trailer, so the downgrade flip stays an error.
//   - bodyLen is bounded, the trailer spans exactly the rest of the data, and
//     its CRC32C (over every trailer byte before it) verifies.
//   - Lenient parses (DecodeConfig.Partial) treat a damaged trailer as absent:
//     every chunk is decodable from the header table alone.
package codec

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
)

// trailerMagic opens a trailer. Distinct from the container magic so a
// trailer can never be misparsed as a nested stream.
var trailerMagic = [4]byte{'L', '2', '6', 'X'}

// Trailer framing sizes: magic + bodyLen prefix, and the trailing CRC.
const (
	trailerHeadLen  = 8
	trailerCRCLen   = 4
	maxTrailerBytes = 1 << 26
)

// checkTrailer checks the bytes after a v3 container's last payload (rest is
// non-empty) as a trailer. Every failure is typed; the caller decides whether
// it aborts the parse (strict) or drops the trailer (lenient).
func checkTrailer(rest []byte) error {
	if len(rest) < trailerHeadLen+trailerCRCLen {
		if string(rest[:min(len(rest), 4)]) == string(trailerMagic[:min(len(rest), 4)]) {
			return truncatedf("codec: %d-byte trailer fragment", len(rest))
		}
		return corruptf("codec: %d trailing bytes after container end", len(rest))
	}
	if [4]byte(rest) != trailerMagic {
		// Not a trailer: the historical trailing-bytes rejection, which is
		// what keeps the version-downgrade flip an error.
		return corruptf("codec: %d trailing bytes after container end", len(rest))
	}
	n := binary.BigEndian.Uint32(rest[4:])
	if n > maxTrailerBytes {
		return corruptf("codec: trailer body of %d bytes out of range", n)
	}
	total := trailerHeadLen + int(n) + trailerCRCLen
	if len(rest) < total {
		return truncatedf("codec: trailer needs %d bytes, %d remain", total, len(rest))
	}
	if len(rest) > total {
		return corruptf("codec: %d trailing bytes after trailer end", len(rest)-total)
	}
	want := binary.BigEndian.Uint32(rest[total-trailerCRCLen:])
	if got := crc32.Checksum(rest[:total-trailerCRCLen], crcTable); got != want {
		return fmt.Errorf("codec: trailer CRC %08x != %08x: %w", got, want, ErrChecksum)
	}
	return nil
}

// ChunkEntry locates one chunk inside a container: the absolute byte offset
// of its payload, the payload length, and the contiguous plane span it
// decodes to.
type ChunkEntry struct {
	Offset     int64 // absolute payload offset from the container start
	Length     int   // payload length in bytes
	PlaneBase  int   // index of the chunk's first plane
	PlaneCount int   // number of planes the chunk decodes to
}

// ContainerLayout describes a container's byte geometry without decoding any
// payload: where the header ends, where each chunk payload lives, and where
// the trailer (if any) begins. The chunk store uses it to split a container
// into content-addressable pieces that reassemble byte-identically.
type ContainerLayout struct {
	Version    int          // container version (1, 2 or 3)
	Planes     int          // total planes the container decodes to
	HeaderLen  int          // bytes before the first payload
	Entries    []ChunkEntry // per-chunk payload spans, in container order
	TrailerOff int          // offset of the trailer; len(data) when absent
	TrailerLen int          // trailer length in bytes; 0 when absent
}

// Layout parses a container down to its byte geometry, strictly (any framing
// defect is a typed error; a v3 container's CRCs are verified).
func Layout(data []byte) (*ContainerLayout, error) {
	pc, err := parseContainer(data, false, false)
	if err != nil {
		return nil, err
	}
	lay := &ContainerLayout{
		Version:    int(pc.version),
		Planes:     len(pc.dims),
		HeaderLen:  pc.payloadBase,
		TrailerOff: pc.trailerOff,
		TrailerLen: len(data) - pc.trailerOff,
		Entries:    make([]ChunkEntry, len(pc.chunks)),
	}
	off := int64(pc.payloadBase)
	for i, c := range pc.chunks {
		lay.Entries[i] = ChunkEntry{Offset: off, Length: len(c.payload), PlaneBase: c.planeBase, PlaneCount: len(c.dims)}
		off += int64(len(c.payload))
	}
	return lay, nil
}
