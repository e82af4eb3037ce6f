// The codec's public surface: one Encode, one Decode (DESIGN.md "Codec API").
//
// Everything that used to be a choice of function — which container to emit,
// whether to record metrics, whether to honour a context, whether to decode
// a plane window or to recover what a damaged stream still holds — is a field
// of EncodeConfig or DecodeConfig. Both are passed by value, a nil Metrics
// registry and a never-cancelled ctx each collapse to one pointer check on
// the hot path, and every combination runs through the same encode core
// (validate → chunkSpans → worker pool → writeContainer) and the same decode
// core (parse → select chunks → worker pool → error policy).
package codec

import (
	"context"
	"fmt"
	"time"

	"repro/internal/frame"
	"repro/internal/obs"
)

// Container selects the framing Encode emits. Both decode through the same
// Decode; the payload bytes of a given chunk are identical in each.
type Container int

const (
	// ContainerLegacy emits the unchecksummed containers: version 1 when the
	// partition is a single chunk (small workloads, or inter prediction
	// serializing the frames), version 2 when it is several. rANS streams
	// need the v3 header's backend extension (the shared probability table),
	// so under Tools.Backend == BackendRANS this emits ContainerV3 instead.
	ContainerLegacy Container = iota
	// ContainerV3 emits the hardened version-3 container: the header
	// (preamble, dim table, chunk table) is covered by a CRC32C and every
	// chunk payload carries its own, verified before decode. A single-chunk
	// workload still gets a one-entry chunk table — integrity framing is the
	// point.
	ContainerV3
)

// EncodeConfig carries everything Encode needs besides the planes.
type EncodeConfig struct {
	QP      int
	Profile Profile
	Tools   Tools
	// Workers sizes the chunk worker pool; <= 0 selects GOMAXPROCS. Output
	// bytes are identical for every value.
	Workers int
	// Metrics, when non-nil, receives the codec.encode.* taxonomy
	// (metrics.go). Output bytes are identical with or without it.
	Metrics   *obs.Registry
	Container Container
}

// Encode compresses planes into one container. Independent plane chunks
// (chunkSpans) are encoded concurrently, each worker owning its full encoder
// state (entropy contexts, transforms, reconstruction buffers), and the
// substreams are stitched in chunk order, so the output is byte-identical for
// every worker count.
//
// The third result is what Decode will make of the stream: one reconstruction
// per source plane, cropped to its dims, byte for byte Decoded.Planes
// (TestEncodeReconIsDecode). The encoder builds them for its own prediction
// and for Stats.MSE; they are fresh allocations the codec never pools or
// writes again, and they belong to the caller — whoever wants the receiver's
// view keeps them, everyone else drops them.
//
// Cancellation is observed at pool, chunk and CTU granularity; a canceled
// call returns exactly ctx.Err() with no output.
func Encode(ctx context.Context, planes []*frame.Plane, cfg EncodeConfig) ([]byte, Stats, []*frame.Plane, error) {
	if err := validateEncode(planes, cfg); err != nil {
		return nil, Stats{}, nil, err
	}
	m := newEncMetrics(cfg.Metrics)
	spans := chunkSpans(planes, cfg.Tools)
	chunks, records, recs, err := encodeChunks(ctx, planes, spans, cfg.QP, cfg.Profile, cfg.Tools, cfg.Workers, m)
	if err != nil {
		return nil, Stats{}, nil, err
	}

	var tContainer time.Time
	if m != nil {
		tContainer = time.Now()
	}
	version := byte(versionChecksummed)
	if cfg.Container == ContainerLegacy && cfg.Tools.Backend == BackendCABAC {
		// A single chunk has no chunk table to spend bytes on: version 1,
		// bit-compatible with historical single-substream streams.
		version = versionChunked
		if len(spans) == 1 {
			version = 1
		}
	}
	var ransExt []byte
	if records != nil {
		ransExt = sealRans(chunks, records)
	}
	dims := make([][2]int, len(planes))
	for i, p := range planes {
		dims[i] = [2]int{p.W, p.H}
	}
	out, payloadLen := writeContainer(version, dims, cfg.QP, cfg.Profile, cfg.Tools, ransExt, chunks)

	st := computeStats(planes, recs, len(out)*8)
	st.Chunks = len(spans)
	if m != nil {
		m.stageContainer.ObserveSince(tContainer)
		m.recordEncodeTotals(st, len(out), payloadLen, len(planes))
	}
	return out, st, recs, nil
}

// DecodeConfig carries everything Decode needs besides the bytes.
type DecodeConfig struct {
	// Workers sizes the chunk worker pool; <= 0 selects GOMAXPROCS. Workers
	// beyond the chunk count go inside the chunks instead: each chunk's
	// reconstruction runs beside its entropy parse. The planes are identical
	// for every value.
	Workers int
	// Metrics, when non-nil, receives the codec.decode.* taxonomy
	// (metrics.go), including the decode-error counters.
	Metrics *obs.Registry
	// First and Count select the plane window [First, First+Count): only the
	// chunks covering it are decoded — O(region) work, the chunk partition
	// bounding it — and Decoded.Planes holds exactly Count planes,
	// byte-identical to the same crop of a full decode. The zero value of
	// both selects every plane. A window outside the container is a caller
	// bug, reported as a plain error outside the decode taxonomy.
	First, Count int
	// Partial turns chunk failures from a call error into a report: the
	// container is parsed leniently, every chunk whose bytes are present
	// (and, for version 3, whose CRC32C verifies) is decoded, and the rest
	// come back as Decoded.Errors with nil planes. A serving layer uses it
	// when one shard of a cached tensor arrives damaged: the undamaged planes
	// are still served and only the failed chunks need refetching. The call
	// error is then non-nil only when nothing can be recovered because the
	// shared geometry itself is unusable — bad magic, truncated or
	// CRC-failing header, impossible chunk table — or on cancellation.
	Partial bool
}

// ChunkError reports one chunk that failed to decode: which chunk, which
// plane range it covered, and why. Err matches ErrCorrupt, ErrTruncated or
// ErrChecksum under errors.Is.
type ChunkError struct {
	Chunk      int // chunk index in container order
	PlaneStart int // index of the chunk's first plane
	PlaneCount int // number of planes the chunk covered
	Err        error
}

// Error implements error.
func (e ChunkError) Error() string {
	return fmt.Sprintf("chunk %d (planes %d..%d): %v",
		e.Chunk, e.PlaneStart, e.PlaneStart+e.PlaneCount-1, e.Err)
}

// Unwrap exposes the underlying cause to errors.Is/As.
func (e ChunkError) Unwrap() error { return e.Err }

// Decoded is the outcome of a Decode.
type Decoded struct {
	// Planes has one entry per selected plane (every container plane, or the
	// DecodeConfig window), in container order. Under DecodeConfig.Partial,
	// entries covered by a failed chunk are nil; otherwise none is.
	Planes []*frame.Plane
	// Chunks is the total chunk count of the container (1 for version 1).
	Chunks int
	// Errors lists every failed chunk among those selected, in container
	// order. Always empty without DecodeConfig.Partial (a failure is the
	// call's error then); empty under it means the selection decoded
	// completely.
	Errors []ChunkError
}

// OK reports whether every selected chunk decoded.
func (d *Decoded) OK() bool { return len(d.Errors) == 0 }

// Recovered reports how many planes decoded successfully.
func (d *Decoded) Recovered() int {
	n := 0
	for _, p := range d.Planes {
		if p != nil {
			n++
		}
	}
	return n
}

// Decode parses a container of any version and returns the reconstructed
// planes (cropped to their original sizes), decoding independent chunks
// concurrently. It never panics on hostile input: every failure is a typed
// error matching ErrCorrupt, ErrTruncated or ErrChecksum under errors.Is —
// the first defective chunk's, as a ChunkError, unless cfg.Partial asks for
// a per-chunk report instead.
//
// Cancellation aborts the remaining chunk decodes and returns exactly
// ctx.Err(), never wrapped into the taxonomy; it wins over chunk errors and
// over partial recovery alike, since the caller has already walked away.
func Decode(ctx context.Context, data []byte, cfg DecodeConfig) (*Decoded, error) {
	m := newDecMetrics(cfg.Metrics)
	var t0 time.Time
	if m != nil {
		m.calls.Inc()
		t0 = time.Now()
	}
	pc, err := parseContainer(data, cfg.Partial, true)
	if m != nil {
		m.stageParse.ObserveSince(t0)
	}
	var d *Decoded
	if err == nil {
		d = &Decoded{Chunks: len(pc.chunks)}
		d.Planes, d.Errors, err = decodeParsed(ctx, pc, cfg, m)
	}
	if err != nil {
		m.countError(err)
		return nil, err
	}
	if m != nil {
		m.planes.Add(int64(d.Recovered()))
		for _, ce := range d.Errors {
			m.countError(ce.Err)
			m.partialChunksLost.Inc()
			m.partialPlanesLost.Add(int64(ce.PlaneCount))
		}
	}
	return d, nil
}

// decodeParsed is the decode core after the parse (Appender.Decode's too):
// optional plane-window chunk selection, the chunk pool, the error policy.
func decodeParsed(ctx context.Context, pc *parsedContainer, cfg DecodeConfig, m *decMetrics) ([]*frame.Plane, []ChunkError, error) {
	first, count := cfg.First, cfg.Count
	if first == 0 && count == 0 {
		count = len(pc.dims)
	}
	if first < 0 || count <= 0 || first > len(pc.dims) || count > len(pc.dims)-first {
		return nil, nil, fmt.Errorf("codec: planes [%d,%d) out of range for %d-plane container",
			first, first+count, len(pc.dims))
	}
	if count < len(pc.dims) {
		// Keep only the chunks whose plane spans overlap the window. They
		// keep their dims/planeBase/index, so decodeChunks still scatters
		// planes to absolute container positions and reports original chunk
		// numbers, and surplus workers still go inside the chunks.
		var picked []chunkMeta
		for _, c := range pc.chunks {
			if c.planeBase < first+count && c.planeBase+len(c.dims) > first {
				picked = append(picked, c)
			}
		}
		pc.chunks = picked
	}
	planes, chunkErrs := decodeChunks(ctx, pc, cfg.Workers, m)
	if err := ctxErr(ctx); err != nil {
		return nil, nil, err
	}
	if !cfg.Partial && len(chunkErrs) > 0 {
		return nil, nil, chunkErrs[0]
	}
	return planes[first : first+count], chunkErrs, nil
}
