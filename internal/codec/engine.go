// Parallel multi-plane encode/decode engine and container framing.
//
// The codec is intra-only in its shipping configuration (§3.2), so every
// plane of a tensor stack is an independent slice: it shares no prediction
// state, no entropy contexts and no reconstruction with its neighbours. The
// engine exploits that by fanning plane groups ("chunks") out over a worker
// pool — mirroring the multiple NVENC/NVDEC engines that give the hardware
// its ~1100/1300 MB/s throughput — and stitching the per-chunk substreams
// into a length-prefixed chunked container.
//
// Determinism: the chunk partition is a pure function of the plane list and
// the tool set, every chunk is encoded by a self-contained encoder, and the
// substreams are stitched in chunk order. Output bytes therefore do not
// depend on the worker count or on goroutine scheduling: Encode with
// Workers: 1 equals Encode with Workers: N bit for bit, for every Container.
//
// Version-1 container layout (all integers big-endian) — one chunk only:
//
//	"L265" | version=1 | profile | tools | qp        (8 bytes)
//	uint32 nPlanes | nPlanes × (uint32 w, uint32 h)
//	uint32 payloadLen | payload
//
// Version-2 container layout:
//
//	"L265" | version=2 | profile | tools | qp        (8 bytes, as v1)
//	uint32 nPlanes | nPlanes × (uint32 w, uint32 h)  (as v1)
//	uint32 nChunks
//	nChunks × (uint32 planeCount, uint32 payloadLen)
//	payloads, concatenated in chunk order
//
// Version-3 ("hardened") container layout — v2 plus integrity:
//
//	"L265" | version=3 | profile | tools | qp
//	uint32 nPlanes | nPlanes × (uint32 w, uint32 h)
//	uint32 nChunks
//	nChunks × (uint32 planeCount, uint32 payloadLen, uint32 payloadCRC32C)
//	uint32 headerCRC32C   — CRC32C over every preceding byte
//	payloads, concatenated in chunk order
//	optional trailer, read but no longer written (layout.go)
//
// The header CRC covers the preamble, dim table and chunk table, so a
// decoder never acts on damaged geometry; each payload CRC is verified
// before the substream is parsed, so bit-rot inside a chunk surfaces as
// ErrChecksum (and, under DecodeConfig.Partial, damages only that chunk's
// planes). CRC32C (Castagnoli) is used for its hardware support on both x86
// and arm.
//
// Each payload is a self-delimiting substream: fresh entropy contexts, fresh
// mode predictor, frame indices local to the chunk.
package codec

import (
	"context"
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"runtime"
	"sync"
	"time"

	"repro/internal/frame"
)

// versionChunked is the bitstream version of the chunked multi-substream
// container (ContainerLegacy with more than one chunk).
const versionChunked = 2

// versionChecksummed is the bitstream version of the hardened container
// (ContainerV3 and every rANS stream): chunked framing plus CRC32C integrity
// on the header and on every chunk payload.
const versionChecksummed = 3

// crcTable is the CRC32C (Castagnoli) table used by the v3 container.
var crcTable = crc32.MakeTable(crc32.Castagnoli)

// normalizeWorkers resolves a requested worker count: values <= 0 select
// runtime.GOMAXPROCS(0).
func normalizeWorkers(w int) int {
	if w <= 0 {
		w = runtime.GOMAXPROCS(0)
	}
	if w < 1 {
		w = 1
	}
	return w
}

// minChunkPixels is the chunk granularity floor: consecutive planes are
// grouped into one chunk until it holds at least this many source pixels.
// Per-chunk cost is real — a fresh CABAC context set must re-adapt, and the
// chunk table spends 8 (v2) or 12 (v3) bytes per entry — so tiny planes are
// batched to keep the chunked container's rate within noise of a single
// substream, while large planes (192×192 and up) still get a chunk (and
// therefore a worker) each.
const minChunkPixels = 1 << 15

// chunkSpans partitions planes into contiguous [start, end) chunks that are
// independently codable. Intra-only tool sets are split greedily: a chunk
// closes once it has accumulated minChunkPixels source pixels, so big planes
// parallelize one-per-worker and small planes batch together. When inter
// prediction is enabled, frames reference their predecessors, so all planes
// must stay in a single chunk. The partition depends only on the plane
// geometry and the tool set — never on the worker count — which is what
// makes the container bytes deterministic.
func chunkSpans(planes []*frame.Plane, tools Tools) [][2]int {
	n := len(planes)
	if tools.InterPred {
		return [][2]int{{0, n}}
	}
	var spans [][2]int
	start, acc := 0, 0
	for i, p := range planes {
		acc += p.W * p.H
		if acc >= minChunkPixels {
			spans = append(spans, [2]int{start, i + 1})
			start, acc = i+1, 0
		}
	}
	if start < n {
		spans = append(spans, [2]int{start, n})
	}
	return spans
}

// ------------------------------------------------------------ worker pool

// runPool calls job(i, scratch) for every i in [0, n) on a pool of at most
// `workers` goroutines (workers <= 0 selects GOMAXPROCS; never more than n).
// Each pool worker checks out one scratch arena for its whole job run, so
// per-chunk codec state is reused instead of reallocated; a one-worker pool
// runs inline on the caller's goroutine through the exact same job code.
// With metrics enabled (pm != nil) it records the pool size, busy and wall
// time (wall = elapsed × pool size, so utilization = busy/wall) and tags
// each worker goroutine with pprof labels under the given pool name.
//
// runPool knows nothing of cancellation or errors: jobs check their own ctx
// and report through whatever they close over, and the pool always drains.
func runPool(n, workers int, name string, pm *poolMetrics, job func(i int, scr *scratch)) {
	workers = normalizeWorkers(workers)
	if workers > n {
		workers = n
	}
	var wallStart time.Time
	if pm != nil {
		wallStart = time.Now()
		pm.workers.Observe(int64(workers))
	}
	if workers <= 1 {
		scr := getScratch()
		for i := 0; i < n; i++ {
			job(i, scr)
		}
		putScratch(scr)
		if pm != nil {
			wall := int64(time.Since(wallStart))
			pm.busy.Add(wall)
			pm.wall.Add(wall)
		}
		return
	}
	jobs := make(chan int)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			work := func() {
				scr := getScratch()
				var busy int64
				for i := range jobs {
					t0 := time.Now()
					job(i, scr)
					busy += int64(time.Since(t0))
				}
				putScratch(scr)
				if pm != nil {
					pm.busy.Add(busy)
				}
			}
			if pm != nil {
				workerLabels(name, w, work)
			} else {
				work()
			}
		}(w)
	}
	for i := 0; i < n; i++ {
		jobs <- i
	}
	close(jobs)
	wg.Wait()
	if pm != nil {
		pm.wall.Add(int64(time.Since(wallStart)) * int64(workers))
	}
}

// ----------------------------------------------------------- chunk encode

// chunkRec is one encoded chunk as the container writer sees it.
type chunkRec struct {
	payload []byte
	crc     uint32 // CRC32C of payload; meaningful for the v3 container only
	planes  int    // number of planes the chunk decodes to
}

// seal stamps every chunk's CRC32C from its (final) payload bytes.
func seal(chunks []chunkRec) {
	for i := range chunks {
		chunks[i].crc = crc32.Checksum(chunks[i].payload, crcTable)
	}
}

// encodeChunks encodes each span as an independent substream on the worker
// pool and returns, in span order, the per-chunk payloads and the per-plane
// reconstructions. Under the rANS backend the payloads are not final yet:
// records holds each chunk's bin statistics and sealRans (pass 2) assembles
// the payloads once the shared probability table exists; records is nil for
// CABAC. With metrics enabled it records per-chunk makespans on top of the
// pool's own accounts.
//
// Cancellation: a job checks ctx before starting its chunk (skipping the
// queued chunks of a canceled call) and encodeChunk aborts mid-chunk at CTU
// granularity; the first cancellation is returned after the pool drains,
// with no partial output.
func encodeChunks(ctx context.Context, planes []*frame.Plane, spans [][2]int, qp int, prof Profile, tools Tools, workers int, m *encMetrics) ([]chunkRec, []*ransRecord, []*frame.Plane, error) {
	chunks := make([]chunkRec, len(spans))
	recs := make([]*frame.Plane, len(planes))
	errs := make([]error, len(spans))
	var records []*ransRecord
	if tools.Backend == BackendRANS {
		records = make([]*ransRecord, len(spans))
	}
	var pm *poolMetrics
	if m != nil {
		pm = &m.pool
	}
	runPool(len(spans), workers, "encode", pm, func(i int, scr *scratch) {
		if errs[i] = ctxErr(ctx); errs[i] != nil {
			return // canceled before the chunk started; skip the encode
		}
		var t0 time.Time
		if m != nil {
			t0 = time.Now()
		}
		s := spans[i]
		payload, record, chunkRecs, err := encodeChunk(ctx, planes[s[0]:s[1]], qp, prof, tools, m, scr)
		if m != nil {
			m.pool.chunkNs.ObserveSince(t0)
		}
		chunks[i] = chunkRec{payload: payload, planes: s[1] - s[0]}
		if records != nil {
			records[i] = record
		}
		copy(recs[s[0]:s[1]], chunkRecs)
		errs[i] = err
	})
	for _, err := range errs {
		if err != nil {
			return nil, nil, nil, err
		}
	}
	return chunks, records, recs, nil
}

// sealRans is pass 2 of the rANS scheme: assemble every chunk's payload
// against the shared probability table. A pure function of the records
// (which arrive in span order), so container bytes stay independent of the
// worker count.
func sealRans(chunks []chunkRec, records []*ransRecord, tab *[nCtxSlots]uint8) {
	for i, r := range records {
		chunks[i].payload = r.assemble(tab)
	}
}

// -------------------------------------------------------- container writer

// writeContainer frames encoded chunks into a container of the given
// version — the one place container bytes are assembled, shared by Encode
// and Appender.Snapshot. Version 1 takes exactly one chunk and no chunk
// table; version 2 adds the table; version 3 adds the per-chunk and header
// CRCs (chunks must be sealed). When tools selects a non-CABAC backend (its
// tools byte carries toolsBackendExt), the backend extension — backend id,
// slot count and the shared rANS probability table — follows the qp byte;
// ransTab must be non-nil exactly then. CABAC headers are byte-identical to the historical
// layout. Returns the container and the summed payload length.
func writeContainer(version byte, dims [][2]int, qp int, prof Profile, tools Tools, ransTab *[nCtxSlots]uint8, chunks []chunkRec) ([]byte, int) {
	headLen := 8 + 4 + 8*len(dims)
	if tools.Backend != BackendCABAC {
		headLen += 2 + nCtxSlots
	}
	switch version {
	case 1:
		headLen += 4
	case versionChunked:
		headLen += 4 + 8*len(chunks)
	case versionChecksummed:
		headLen += 4 + 12*len(chunks) + 4
	}
	payloadLen := 0
	for _, c := range chunks {
		payloadLen += len(c.payload)
	}
	out := make([]byte, 0, headLen+payloadLen)
	out = append(out, magic[:]...)
	out = append(out, version, prof.id(), tools.bits(), uint8(qp))
	if tools.Backend != BackendCABAC {
		out = append(out, byte(tools.Backend), nCtxSlots)
		out = append(out, ransTab[:]...)
	}
	be := binary.BigEndian
	out = be.AppendUint32(out, uint32(len(dims)))
	for _, d := range dims {
		out = be.AppendUint32(out, uint32(d[0]))
		out = be.AppendUint32(out, uint32(d[1]))
	}
	if version == 1 {
		out = be.AppendUint32(out, uint32(len(chunks[0].payload)))
	} else {
		out = be.AppendUint32(out, uint32(len(chunks)))
		for _, c := range chunks {
			out = be.AppendUint32(out, uint32(c.planes))
			out = be.AppendUint32(out, uint32(len(c.payload)))
			if version == versionChecksummed {
				out = be.AppendUint32(out, c.crc)
			}
		}
		if version == versionChecksummed {
			out = be.AppendUint32(out, crc32.Checksum(out, crcTable))
		}
	}
	for _, c := range chunks {
		out = append(out, c.payload...)
	}
	return out, payloadLen
}

// ---------------------------------------------------------------- parsing

// chunkMeta is one entry of a parsed container's chunk layout. When err is
// non-nil the chunk is unusable before any entropy decoding happens
// (payload out of range, or a v3 CRC mismatch).
type chunkMeta struct {
	index     int // position in the container's chunk table
	payload   []byte
	crc       uint32 // the v3 chunk table's payload CRC32C; 0 for v1/v2
	dims      [][2]int
	planeBase int
	err       error
}

// parsedContainer is the validated frame of any container version: geometry
// plus the per-chunk payload windows. All bounds are checked against the
// actual data length before any payload-sized state is allocated.
type parsedContainer struct {
	version byte
	prof    Profile
	tools   Tools
	qp      int
	dims    [][2]int
	chunks  []chunkMeta

	// ransTab is the shared rANS probability table from the header's backend
	// extension; non-nil exactly when tools.Backend == BackendRANS.
	ransTab *[nCtxSlots]uint8

	// payloadBase is the offset of the first payload byte (the header length);
	// trailerOff is the offset one past the last payload, where the optional
	// v3 trailer starts — len(data) when there is no trailer.
	payloadBase int
	trailerOff  int
}

// parseContainer validates a container of any version down to its chunk
// layout. In strict mode (lenient=false) the first defect — truncation, CRC
// mismatch, impossible counts — aborts with an error. In lenient mode,
// defects confined to a single chunk (payload runs past the end of data, or
// a payload CRC mismatch) are recorded on that chunk's meta.err so a
// Partial decode can still recover the others; defects in the shared header
// or chunk table still abort, because no geometry can be trusted after them.
func parseContainer(data []byte, lenient bool) (*parsedContainer, error) {
	if err := checkPreamble(data); err != nil {
		return nil, err
	}
	version := data[4]
	switch version {
	case 1, versionChunked, versionChecksummed:
	default:
		return nil, corruptf("codec: unsupported version %d", version)
	}
	prof, tools, qp, dims, ransTab, off, err := parseCommonHeader(data)
	if err != nil {
		return nil, err
	}
	if ransTab != nil && version != versionChecksummed {
		// The backend extension is defined only for the hardened container:
		// the encoder never emits a v1/v2 rANS stream, so one on the wire is
		// damaged (e.g. a flipped version byte) and its geometry untrustworthy.
		return nil, corruptf("codec: entropy-backend extension in version %d container", version)
	}
	pc := &parsedContainer{version: version, prof: prof, tools: tools, qp: qp, dims: dims, ransTab: ransTab}

	if version == 1 {
		if len(data) < off+4 {
			return nil, truncatedf("codec: v1 header ends before payload length")
		}
		payLen := int(binary.BigEndian.Uint32(data[off:]))
		off += 4
		pc.payloadBase = off
		pc.trailerOff = len(data)
		meta := chunkMeta{dims: dims, planeBase: 0}
		switch {
		case payLen < 0:
			return nil, corruptf("codec: negative payload length")
		case off+payLen > len(data):
			meta.err = truncatedf("codec: payload needs %d bytes, %d remain", payLen, len(data)-off)
			if !lenient {
				return nil, meta.err
			}
		case !lenient && off+payLen != len(data):
			// Exact-length rule (strict mode): the encoder never emits
			// trailing bytes, so a container longer than it declares is
			// damaged framing. This is also what defeats the version-byte
			// downgrade: a bit flip turning a v3 container into "v1" leaves
			// the CRC fields and payloads dangling past the declared end.
			return nil, corruptf("codec: %d trailing bytes after declared payload", len(data)-off-payLen)
		default:
			meta.payload = data[off : off+payLen]
		}
		pc.chunks = []chunkMeta{meta}
		return pc, nil
	}

	if len(data) < off+4 {
		return nil, truncatedf("codec: header ends before chunk count")
	}
	nChunks := int(binary.BigEndian.Uint32(data[off:]))
	off += 4
	if nChunks <= 0 || nChunks > len(dims) {
		return nil, corruptf("codec: chunk count %d out of range for %d planes", nChunks, len(dims))
	}
	entry := 8
	if version == versionChecksummed {
		entry = 12
	}
	if len(data) < off+entry*nChunks {
		return nil, truncatedf("codec: header ends inside %d-entry chunk table", nChunks)
	}
	counts := make([]int, nChunks)
	sizes := make([]int, nChunks)
	crcs := make([]uint32, nChunks)
	totalPlanes := 0
	for i := 0; i < nChunks; i++ {
		counts[i] = int(binary.BigEndian.Uint32(data[off:]))
		sizes[i] = int(binary.BigEndian.Uint32(data[off+4:]))
		if version == versionChecksummed {
			crcs[i] = binary.BigEndian.Uint32(data[off+8:])
		}
		off += entry
		if counts[i] <= 0 || sizes[i] < 0 {
			return nil, corruptf("codec: chunk %d declares %d planes, %d bytes", i, counts[i], sizes[i])
		}
		totalPlanes += counts[i]
		if totalPlanes > len(dims) {
			return nil, corruptf("codec: chunk table covers %d planes, container has %d", totalPlanes, len(dims))
		}
	}
	if totalPlanes != len(dims) {
		return nil, corruptf("codec: chunk table covers %d planes, container has %d", totalPlanes, len(dims))
	}
	if version == versionChecksummed {
		// The header CRC covers everything before itself: preamble, dim
		// table and chunk table. Verified before any payload is touched so
		// damaged geometry is never acted on.
		if len(data) < off+4 {
			return nil, truncatedf("codec: header ends before header CRC")
		}
		want := binary.BigEndian.Uint32(data[off:])
		if got := crc32.Checksum(data[:off], crcTable); got != want {
			return nil, fmt.Errorf("codec: header CRC %08x != %08x: %w", got, want, ErrChecksum)
		}
		off += 4
	}

	pc.payloadBase = off
	pc.chunks = make([]chunkMeta, nChunks)
	base := 0
	for i := 0; i < nChunks; i++ {
		meta := chunkMeta{index: i, crc: crcs[i], dims: dims[base : base+counts[i]], planeBase: base}
		if off+sizes[i] > len(data) {
			meta.err = truncatedf("codec: chunk %d needs %d bytes, %d remain", i, sizes[i], len(data)-off)
			if !lenient {
				return nil, meta.err
			}
			// Later chunk offsets are still well-defined (lengths are in the
			// verified table), but they are all past the end too; keep
			// walking so every chunk gets a truncation record.
		} else {
			payload := data[off : off+sizes[i]]
			if version == versionChecksummed {
				if got := crc32.Checksum(payload, crcTable); got != crcs[i] {
					meta.err = fmt.Errorf("codec: chunk %d CRC %08x != %08x: %w", i, got, crcs[i], ErrChecksum)
					if !lenient {
						return nil, meta.err
					}
				} else {
					meta.payload = payload
				}
			} else {
				meta.payload = payload
			}
		}
		pc.chunks[i] = meta
		off += sizes[i]
		base += counts[i]
	}
	pc.trailerOff = off
	if pc.trailerOff > len(data) {
		pc.trailerOff = len(data) // lenient truncation: payloads ran past the end
	}
	if off < len(data) && !lenient {
		// Lenient parses ignore what follows the last payload: every chunk is
		// recoverable from the header table alone.
		if version != versionChecksummed {
			// Exact-length rule, mirroring v1: the v2 encoder emits nothing
			// after the last payload, so trailing bytes mean damaged framing —
			// e.g. a version byte flipped 3→2 leaves the v3 CRC fields
			// misparsed into the chunk table and payload bytes dangling. Only
			// the v3 container may end in a trailer (layout.go).
			return nil, corruptf("codec: %d trailing bytes after container end", len(data)-off)
		}
		if err := checkTrailer(data[off:]); err != nil {
			return nil, err
		}
	}
	return pc, nil
}

// decodeChunks decodes every usable chunk of a parsed container on the
// worker pool. Failed chunks leave nil planes and produce a ChunkError;
// recovered planes land at their container positions. With metrics enabled
// it records per-chunk decode times on top of the pool's own accounts.
// Cancellation mirrors the encode pool: queued chunks of a canceled call are
// skipped, and in-flight chunks abort at CTU granularity; callers must check
// ctx after the pool drains (a canceled call's error is ctx.Err(), not a
// ChunkError).
func decodeChunks(ctx context.Context, pc *parsedContainer, workers int, m *decMetrics) ([]*frame.Plane, []ChunkError) {
	planes := make([]*frame.Plane, len(pc.dims))
	// Intra-chunk parallelism: when the pool has more workers than chunks,
	// the surplus goes inside each chunk — to its reconstruct stage, which
	// then overlaps the parse. Computed from the requested count, since the
	// pool's clamp to the chunk count is exactly what discards the surplus.
	// Output is identical either way.
	surplus := normalizeWorkers(workers) > len(pc.chunks)
	var pm *poolMetrics
	if m != nil {
		pm = &m.pool
	}
	runPool(len(pc.chunks), workers, "decode", pm, func(i int, scr *scratch) {
		c := &pc.chunks[i]
		if err := ctxErr(ctx); err != nil {
			c.err = err // canceled before the chunk started; skip the decode
			return
		}
		if c.err != nil {
			return // unusable since the parse (out of range, or CRC mismatch)
		}
		var t0 time.Time
		if m != nil {
			t0 = time.Now()
		}
		ps, err := decodeChunkPayload(ctx, c, pc, surplus, m, scr)
		if m != nil {
			m.pool.chunkNs.ObserveSince(t0)
			m.chunks.Inc()
		}
		if err != nil {
			c.err = err
			return
		}
		copy(planes[c.planeBase:], ps)
	})

	var chunkErrs []ChunkError
	for i := range pc.chunks {
		if c := &pc.chunks[i]; c.err != nil {
			chunkErrs = append(chunkErrs, ChunkError{
				Chunk:      c.index,
				PlaneStart: c.planeBase,
				PlaneCount: len(c.dims),
				Err:        c.err,
			})
		}
	}
	return planes, chunkErrs
}

// parseContainerObs is parseContainer with the container-parse stage timed.
func parseContainerObs(data []byte, lenient bool, m *decMetrics) (*parsedContainer, error) {
	if m == nil {
		return parseContainer(data, lenient)
	}
	t0 := time.Now()
	pc, err := parseContainer(data, lenient)
	m.stageParse.ObserveSince(t0)
	return pc, err
}
