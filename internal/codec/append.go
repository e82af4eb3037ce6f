// Incremental container growth for streaming sessions (DESIGN.md §16).
//
// The one-shot encoders are pure functions: planes in, container out. A
// streaming KV cache needs the opposite shape — a container that grows as
// token rows arrive, without ever re-encoding (or even re-touching) the
// bytes already committed. Appender is that object:
//
//   - Each Append call encodes its planes as one chunk per plane, bypassing
//     chunkSpans' pixel-count batching. Chunk boundaries are therefore a
//     pure function of the flush schedule's row granularity, never of how
//     many planes happened to arrive in one call — which is what makes a
//     chunk's payload bytes content-addressable across sessions that share
//     a prefix but not an arrival pattern.
//   - Committed chunks are immutable. Append only appends; the
//     codec.encode.chunks counter advances by exactly the number of planes
//     in the call, which is how the kv tier's tests prove the no-re-encode
//     invariant.
//   - Snapshot(first, count) re-frames any live chunk range into a
//     standalone hardened v3 container, built from the stored payloads alone
//     (writeContainer): no entropy work, no plane data. The snapshot decodes
//     byte-identically to the same crop of a one-shot encode (append_test.go
//     proves it at every worker count).
//   - DropPlanes releases the payload prefix under eviction pressure;
//     Snapshot refuses ranges that reach into the dropped prefix.
//
// Chunks are CABAC only: a rANS payload decodes against a probability table
// built from every chunk of its container, which a growing container cannot
// know, so Append and AppendEncoded refuse a rANS tool set.
//
// Appender is not safe for concurrent use; the kv session lock serializes it.
package codec

import (
	"context"
	"errors"
	"fmt"
	"hash/crc32"

	"repro/internal/frame"
	"repro/internal/obs"
)

// Appender accumulates an append-only sequence of single-plane chunks and
// serves v3 snapshot containers over any live range of them.
type Appender struct {
	qp      int
	prof    Profile
	tools   Tools
	workers int
	m       *encMetrics

	dims [][2]int
	// chunks holds one sealed single-plane chunk per committed plane. A
	// dropped (evicted) chunk keeps its entry with a nil payload.
	chunks []chunkRec

	dropped      int   // planes [0, dropped) have released payloads
	payloadBytes int64 // live (non-dropped) payload bytes
}

// NewAppender creates an empty incremental container with the given coding
// parameters. Parameter validation happens on the first Append (it needs
// planes); workers <= 0 selects GOMAXPROCS as everywhere in the engine.
func NewAppender(qp int, prof Profile, tools Tools, workers int, reg *obs.Registry) *Appender {
	return &Appender{qp: qp, prof: prof, tools: tools, workers: workers, m: newEncMetrics(reg)}
}

// Planes returns the number of committed planes (chunks), dropped included.
func (a *Appender) Planes() int { return len(a.dims) }

// DroppedPlanes returns how many leading planes have been dropped.
func (a *Appender) DroppedPlanes() int { return a.dropped }

// PayloadBytes returns the resident compressed bytes (live payloads only).
func (a *Appender) PayloadBytes() int64 { return a.payloadBytes }

// errAppendRANS refuses a rANS tool set (see the package doc).
var errAppendRANS = errors.New("codec: appended chunks are CABAC only")

// Append encodes planes as one immutable chunk each and commits them. It
// returns the per-plane payload bytes (for content addressing) and the
// encode Stats of just this call. On error nothing is committed.
//
// regions is ignored. It stays only because benchmark/surface.go binds
// Append with this signature; the next benchmark change drops it.
func (a *Appender) Append(ctx context.Context, planes []*frame.Plane, _ []PlaneRegion) ([][]byte, Stats, error) {
	if a.tools.Backend != BackendCABAC {
		return nil, Stats{}, errAppendRANS
	}
	if err := validateEncode(planes, EncodeConfig{QP: a.qp, Profile: a.prof, Tools: a.tools}); err != nil {
		return nil, Stats{}, err
	}
	spans := make([][2]int, len(planes))
	for i := range planes {
		spans[i] = [2]int{i, i + 1}
	}
	chunks, _, recs, err := encodeChunks(ctx, planes, spans, a.qp, a.prof, a.tools, a.workers, a.m)
	if err != nil {
		return nil, Stats{}, err
	}
	seal(chunks)
	payloads := make([][]byte, len(chunks))
	payloadLen := 0
	for i, c := range chunks {
		payloads[i] = c.payload
		a.dims = append(a.dims, [2]int{planes[i].W, planes[i].H})
		payloadLen += len(c.payload)
	}
	a.chunks = append(a.chunks, chunks...)
	a.payloadBytes += int64(payloadLen)
	st := computeStats(planes, recs, payloadLen*8)
	st.Chunks = len(spans)
	if a.m != nil {
		a.m.recordEncodeTotals(st, payloadLen, payloadLen, len(planes))
	}
	return payloads, st, nil
}

// AppendEncoded commits an already-encoded single-plane chunk — the
// prefix-aliasing fast path: a session whose next flush group hashes to a
// chunk some donor session already encoded adopts the donor's payload bytes
// without running the encoder (and so without advancing encode counters).
func (a *Appender) AppendEncoded(payload []byte, w, h int) error {
	if a.tools.Backend != BackendCABAC {
		return errAppendRANS
	}
	if w <= 0 || h <= 0 || w > a.prof.MaxFrameDim || h > a.prof.MaxFrameDim {
		return fmt.Errorf("codec: aliased chunk dims %dx%d out of range", w, h)
	}
	a.dims = append(a.dims, [2]int{w, h})
	a.chunks = append(a.chunks, chunkRec{payload: payload, crc: crc32.Checksum(payload, crcTable), planes: 1})
	a.payloadBytes += int64(len(payload))
	return nil
}

// DropPlanes releases the payloads of planes [DroppedPlanes(), upto) and
// returns the bytes freed. Chunk-table entries stay (the container's plane
// numbering is append-only); Snapshot simply refuses dropped ranges.
func (a *Appender) DropPlanes(upto int) int64 {
	if upto > len(a.dims) {
		upto = len(a.dims)
	}
	var freed int64
	for i := a.dropped; i < upto; i++ {
		freed += int64(len(a.chunks[i].payload))
		a.chunks[i].payload = nil
	}
	if upto > a.dropped {
		a.dropped = upto
	}
	a.payloadBytes -= freed
	return freed
}

// Snapshot re-frames planes [first, first+count) into a standalone hardened
// v3 container without touching the entropy layer: stored payloads are
// copied under a freshly framed header whose plane numbering starts at zero.
// The range must be live: within [DroppedPlanes(), Planes()).
func (a *Appender) Snapshot(first, count int) ([]byte, error) {
	if first < a.dropped || count <= 0 || first+count > len(a.dims) {
		return nil, fmt.Errorf("codec: snapshot planes [%d,%d) outside live range [%d,%d)",
			first, first+count, a.dropped, len(a.dims))
	}
	out, _ := writeContainer(versionChecksummed, a.dims[first:first+count], a.qp, a.prof, a.tools, nil,
		a.chunks[first:first+count])
	return out, nil
}
