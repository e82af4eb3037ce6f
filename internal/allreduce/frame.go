// Package allreduce implements compressed-gradient collective reduction as
// a real concurrent system: N goroutine workers connected by in-process
// channels move codec-compressed gradient segments around a ring, reduce
// them in a canonical order, and gather the result back to every worker
// (DESIGN.md §17, the paper's §5.2 training story).
//
// Topology and determinism. The bucket is split into S row-aligned segments;
// segment s is owned by worker s mod N. Phase 1 (reduce-scatter): every
// worker compresses each of its segments once and the frames travel the ring
// hop-by-hop (store-and-forward, no re-encoding of partial sums) until they
// reach the segment's owner, which decodes every contribution and sums them
// in ascending origin order — so the floating-point association is fixed by
// worker index, never by message arrival order, and the uncompressed path is
// bit-identical to a sequential sum. Phase 2
// (all-gather): the owner compresses the reduced segment once and the same
// bytes circle the ring, so every worker reconstructs the identical result.
// Compressing each contribution exactly once (instead of re-encoding partial
// sums at every hop) keeps the lossy error from growing with hop count and
// gives classic per-worker error-feedback semantics.
package allreduce

import (
	"encoding/binary"
	"fmt"

	"repro/internal/codec"
)

// Frame kinds: the two phases of the collective.
const (
	KindReduce = 0x00 // a worker's compressed contribution, en route to the segment owner
	KindGather = 0x01 // the owner's compressed reduced segment, circling the ring
)

// Wire formats a segment payload can use (SegmentCodec.Wire).
const (
	WireRaw    = 0x00 // float32 LE values (simulated FP16 link)
	WireTensor = 0x01 // core .l265 container (the real codec path)
	WireRTN    = 0x02 // group-wise round-to-nearest: per-group range + packed codes
	WireSign   = 0x03 // 1-bit sign compression with a per-segment scale (1-bit Adam style)
)

const (
	frameMagic0  = 'A'
	frameMagic1  = 'R'
	frameVersion = 1

	// frameHeaderLen is the fixed prefix before the payload: magic(2),
	// version(1), kind(1), wire(1), origin(u16), seg(u32), rows(u16),
	// cols(u16), payload length(u32).
	frameHeaderLen = 2 + 1 + 1 + 1 + 2 + 4 + 2 + 2 + 4

	// maxSegDim caps the declared segment geometry before any allocation is
	// sized from it (a segment is a slice of a gradient bucket, never a
	// full model).
	maxSegDim = 1 << 15
	// maxFramePayload caps the payload a frame may declare; matches the
	// order of magnitude of the codec's own decode allocation caps.
	maxFramePayload = 1 << 26
)

// Frame is one message on a ring edge: a compressed segment plus enough
// routing and geometry metadata for the receiver to validate it before
// touching the payload.
type Frame struct {
	Kind    byte // KindReduce or KindGather
	Wire    byte // Wire* payload format
	Origin  int  // contributing worker (reduce) or owning worker (gather)
	Seg     int  // segment index
	Rows    int  // segment rows
	Cols    int  // segment cols
	Payload []byte
}

// Marshal serializes the frame. The inverse is ParseFrame.
func (f *Frame) Marshal() []byte {
	buf := make([]byte, frameHeaderLen+len(f.Payload))
	buf[0], buf[1], buf[2] = frameMagic0, frameMagic1, frameVersion
	buf[3], buf[4] = f.Kind, f.Wire
	binary.BigEndian.PutUint16(buf[5:], uint16(f.Origin))
	binary.BigEndian.PutUint32(buf[7:], uint32(f.Seg))
	binary.BigEndian.PutUint16(buf[11:], uint16(f.Rows))
	binary.BigEndian.PutUint16(buf[13:], uint16(f.Cols))
	binary.BigEndian.PutUint32(buf[15:], uint32(len(f.Payload)))
	copy(buf[frameHeaderLen:], f.Payload)
	return buf
}

// ParseFrame validates and parses one wire frame. Failures are typed with
// the codec taxonomy — codec.ErrTruncated when the buffer ends early,
// codec.ErrCorrupt for impossible fields or trailing bytes — and the
// function never panics, whatever the input (FuzzAllreduceSegment pins
// this). Every length is validated against the bytes actually present
// before any allocation is sized from it.
func ParseFrame(data []byte) (*Frame, error) {
	if len(data) < 2 {
		return nil, fmt.Errorf("allreduce: %d-byte frame: %w", len(data), codec.ErrTruncated)
	}
	if data[0] != frameMagic0 || data[1] != frameMagic1 {
		return nil, fmt.Errorf("allreduce: bad frame magic %#x%02x: %w", data[0], data[1], codec.ErrCorrupt)
	}
	if len(data) < frameHeaderLen {
		return nil, fmt.Errorf("allreduce: frame ends inside header: %w", codec.ErrTruncated)
	}
	if data[2] != frameVersion {
		return nil, fmt.Errorf("allreduce: frame version %d: %w", data[2], codec.ErrCorrupt)
	}
	f := &Frame{Kind: data[3], Wire: data[4]}
	if f.Kind > KindGather {
		return nil, fmt.Errorf("allreduce: frame kind %d: %w", f.Kind, codec.ErrCorrupt)
	}
	if f.Wire > WireSign {
		return nil, fmt.Errorf("allreduce: wire format %d: %w", f.Wire, codec.ErrCorrupt)
	}
	f.Origin = int(binary.BigEndian.Uint16(data[5:]))
	f.Seg = int(binary.BigEndian.Uint32(data[7:]))
	f.Rows = int(binary.BigEndian.Uint16(data[11:]))
	f.Cols = int(binary.BigEndian.Uint16(data[13:]))
	if f.Rows == 0 || f.Cols == 0 || f.Rows > maxSegDim || f.Cols > maxSegDim {
		return nil, fmt.Errorf("allreduce: segment geometry %dx%d: %w", f.Rows, f.Cols, codec.ErrCorrupt)
	}
	plen := int(binary.BigEndian.Uint32(data[15:]))
	if plen > maxFramePayload {
		return nil, fmt.Errorf("allreduce: payload length %d exceeds cap: %w", plen, codec.ErrCorrupt)
	}
	rest := len(data) - frameHeaderLen
	if rest < plen {
		return nil, fmt.Errorf("allreduce: payload needs %d bytes, %d remain: %w", plen, rest, codec.ErrTruncated)
	}
	if rest > plen {
		// Exact-length rule, mirroring the codec container: a frame carries
		// nothing after its payload, so trailing bytes mean damaged framing.
		return nil, fmt.Errorf("allreduce: %d trailing bytes after payload: %w", rest-plen, codec.ErrCorrupt)
	}
	f.Payload = data[frameHeaderLen : frameHeaderLen+plen]
	return f, nil
}
