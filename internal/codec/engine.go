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
// Container layout (all integers big-endian). Every version is one header,
// one chunk table and the payloads concatenated in chunk order; the versions
// differ only in what the chunk table spells out:
//
//	"L265" | version | profile | tools | qp          (8 bytes)
//	uint32 nPlanes | nPlanes × (uint32 w, uint32 h)
//	chunk table:
//	  v1: uint32 payloadLen                — one chunk, every plane, no count
//	  v2: uint32 nChunks | nChunks × (uint32 planeCount, uint32 payloadLen)
//	  v3: uint32 nChunks | nChunks × (uint32 planeCount, uint32 payloadLen,
//	      uint32 payloadCRC32C) | uint32 headerCRC32C over every preceding byte
//	payloads                             — the container ends at the last one
//
// v3 ("hardened") is v2 plus integrity; the writer computes each CRC as it
// writes the entry. The header CRC covers the preamble, dim table and chunk
// table, so a decoder never acts on damaged geometry; each payload CRC is
// verified before the substream is parsed, so bit-rot inside a chunk surfaces
// as ErrChecksum (and, under DecodeConfig.Partial, damages only that chunk's
// planes). CRC32C (Castagnoli) is used for its hardware support on both x86
// and arm.
//
// Each payload is a self-delimiting substream: fresh entropy contexts, fresh
// mode predictor, frame indices local to the chunk.
package codec

import (
	"bytes"
	"context"
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"runtime"
	"sync"

	"repro/internal/frame"
)

// versionChunked is the bitstream version of the chunked multi-substream
// container (ContainerLegacy with more than one chunk).
const versionChunked = 2

// versionChecksummed is the bitstream version of the hardened container
// (ContainerV3 and every rANS stream): chunked framing plus CRC32C integrity
// on the header and on every chunk payload.
const versionChecksummed = 3

// retiredTrailerMagic opened the chunk-index trailer that earlier builds
// appended to a v3 container; a strict parse names that layout when it
// refuses one (DESIGN.md §15.1).
var retiredTrailerMagic = []byte("L26X")

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
// It records the pool size, busy and wall time (wall = elapsed × pool size,
// so utilization = busy/wall) and, when pm records, tags each worker
// goroutine with pprof labels under the given pool name.
//
// runPool knows nothing of cancellation or errors: jobs check their own ctx
// and report through whatever they close over, and the pool always drains.
func runPool(n, workers int, name string, pm *poolMetrics, job func(i int, scr *scratch)) {
	workers = normalizeWorkers(workers)
	if workers > n {
		workers = n
	}
	wallStart := pm.now()
	pm.workers.Observe(int64(workers))
	if workers <= 1 {
		scr := getScratch()
		for i := 0; i < n; i++ {
			job(i, scr)
		}
		putScratch(scr)
		wall := pm.since(wallStart)
		pm.busy.Add(wall)
		pm.wall.Add(wall)
		return
	}
	jobs := make(chan int)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go pm.labeled(name, w, func() {
			defer wg.Done()
			scr := getScratch()
			var busy int64
			for i := range jobs {
				t := pm.now()
				job(i, scr)
				busy += pm.since(t)
			}
			putScratch(scr)
			pm.busy.Add(busy)
		})
	}
	for i := 0; i < n; i++ {
		jobs <- i
	}
	close(jobs)
	wg.Wait()
	pm.wall.Add(pm.since(wallStart) * int64(workers))
}

// ----------------------------------------------------------- chunk encode

// chunkRec is one encoded chunk as the container writer sees it.
type chunkRec struct {
	payload []byte
	planes  int // number of planes the chunk decodes to
}

// encodeChunks encodes each span as an independent substream on the worker
// pool and returns, in span order, the per-chunk payloads and the per-plane
// reconstructions. Under the rANS backend the payloads are not final yet:
// records holds each chunk's symbols and sealRans (pass 2) assembles the
// payloads once the class tables exist; records is nil for
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
	runPool(len(spans), workers, "encode", &m.poolMetrics, func(i int, scr *scratch) {
		if errs[i] = ctxErr(ctx); errs[i] != nil {
			return // canceled before the chunk started; skip the encode
		}
		t0 := m.now()
		s := spans[i]
		payload, record, chunkRecs, err := encodeChunk(ctx, planes[s[0]:s[1]], qp, prof, tools, m, scr)
		m.chunkNs.ObserveSince(t0)
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

// sealRans is pass 2 of the rANS scheme: build the class tables from every
// chunk's record, assemble every chunk's payload against them and return the
// header's backend extension. A pure function of the records (which arrive in
// span order), so container bytes stay independent of the worker count.
func sealRans(chunks []chunkRec, records []*ransRecord) []byte {
	tabs := buildRansTables(records)
	for i, r := range records {
		chunks[i].payload = r.assemble(tabs)
	}
	return appendRansExt(nil, tabs)
}

// -------------------------------------------------------- container writer

// writeContainer frames encoded chunks into a container of the given
// version — the one place container bytes are assembled. Version 1 takes
// exactly one chunk. When tools selects a non-CABAC backend (its tools byte
// carries toolsBackendExt), the backend extension — backend id, then
// ransExt, the class tables sealRans serialized — follows the qp byte. CABAC
// headers are byte-identical to the historical layout. Returns the container
// and the summed payload length.
func writeContainer(version byte, dims [][2]int, qp int, prof Profile, tools Tools, ransExt []byte, chunks []chunkRec) ([]byte, int) {
	payloadLen := 0
	for _, c := range chunks {
		payloadLen += len(c.payload)
	}
	// Capacity for the longest header, a v3 one with the backend extension.
	out := make([]byte, 0, 8+1+len(ransExt)+4+8*len(dims)+4+12*len(chunks)+4+payloadLen)
	out = append(out, magic[:]...)
	out = append(out, version, prof.params().wire, tools.bits(), uint8(qp))
	if tools.Backend != BackendCABAC {
		out = append(out, byte(tools.Backend))
		out = append(out, ransExt...)
	}
	be := binary.BigEndian
	out = be.AppendUint32(out, uint32(len(dims)))
	for _, d := range dims {
		out = be.AppendUint32(out, uint32(d[0]))
		out = be.AppendUint32(out, uint32(d[1]))
	}
	if version != 1 {
		out = be.AppendUint32(out, uint32(len(chunks)))
	}
	for _, c := range chunks {
		if version != 1 {
			out = be.AppendUint32(out, uint32(c.planes))
		}
		out = be.AppendUint32(out, uint32(len(c.payload)))
		if version == versionChecksummed {
			out = be.AppendUint32(out, crc32.Checksum(c.payload, crcTable))
		}
	}
	if version == versionChecksummed {
		out = be.AppendUint32(out, crc32.Checksum(out, crcTable))
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
	dims      [][2]int
	planeBase int
	err       error
}

// parsedContainer is the validated frame of any container version: geometry
// plus the per-chunk payload windows. All bounds are checked against the
// actual data length before any payload-sized state is allocated.
type parsedContainer struct {
	prof   Profile
	tools  Tools
	qp     int
	dims   [][2]int
	chunks []chunkMeta

	// ransTabs are the rANS class tables from the header's backend
	// extension; non-nil exactly when tools.Backend == BackendRANS and the
	// parse builds tables (every parse but Layout's).
	ransTabs *ransTables

	// payloadBase is the offset of the first payload byte (the header length).
	payloadBase int
}

// parseContainer validates a container of any version down to its chunk
// layout, building the rANS class tables only when tables is set (a decode
// reads them; Layout does not). In strict mode (lenient=false) the first
// defect — truncation, CRC mismatch, impossible counts — aborts with an
// error. In lenient mode, defects confined to a single chunk (payload runs
// past the end of data, or a payload CRC mismatch) are recorded on that
// chunk's meta.err so a Partial decode can still recover the others; defects
// in the shared header or chunk table still abort, because no geometry can be
// trusted after them.
func parseContainer(data []byte, lenient, tables bool) (*parsedContainer, error) {
	if err := checkPreamble(data); err != nil {
		return nil, err
	}
	version := data[4]
	switch version {
	case 1, versionChunked, versionChecksummed:
	default:
		return nil, corruptf("codec: unsupported version %d", version)
	}
	pc := new(parsedContainer)
	off, err := pc.parseHeader(data, tables)
	if err != nil {
		return nil, err
	}
	if pc.tools.Backend == BackendRANS && version != versionChecksummed {
		// The backend extension is defined only for the hardened container:
		// the encoder never emits a v1/v2 rANS stream, so one on the wire is
		// damaged (e.g. a flipped version byte) and its geometry untrustworthy.
		return nil, corruptf("codec: entropy-backend extension in version %d container", version)
	}
	dims := pc.dims

	// v1's table is a single payload length: one chunk covering every plane.
	be := binary.BigEndian
	nChunks, entry := 1, 4
	if version != 1 {
		if len(data) < off+4 {
			return nil, truncatedf("codec: header ends before chunk count")
		}
		nChunks = int(be.Uint32(data[off:]))
		off += 4
		if nChunks <= 0 || nChunks > len(dims) {
			return nil, corruptf("codec: chunk count %d out of range for %d planes", nChunks, len(dims))
		}
		entry = 8
		if version == versionChecksummed {
			entry = 12
		}
	}
	if len(data) < off+entry*nChunks {
		return nil, truncatedf("codec: header ends inside %d-entry chunk table", nChunks)
	}
	counts := make([]int, nChunks)
	sizes := make([]int, nChunks)
	crcs := make([]uint32, nChunks)
	totalPlanes := 0
	for i := 0; i < nChunks; i++ {
		e := data[off : off+entry]
		off += entry
		if version == 1 {
			counts[i], sizes[i] = len(dims), int(be.Uint32(e))
		} else {
			counts[i], sizes[i] = int(be.Uint32(e)), int(be.Uint32(e[4:]))
		}
		if version == versionChecksummed {
			crcs[i] = be.Uint32(e[8:])
		}
		if counts[i] <= 0 || sizes[i] < 0 {
			return nil, corruptf("codec: chunk %d declares %d planes, %d bytes", i, counts[i], sizes[i])
		}
		// Compared before adding, so a 32-bit int cannot wrap the sum.
		if counts[i] > len(dims)-totalPlanes {
			return nil, corruptf("codec: chunk table covers more than the container's %d planes", len(dims))
		}
		totalPlanes += counts[i]
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
		want := be.Uint32(data[off:])
		if got := crc32.Checksum(data[:off], crcTable); got != want {
			return nil, fmt.Errorf("codec: header CRC %08x != %08x: %w", got, want, ErrChecksum)
		}
		off += 4
	}

	pc.payloadBase = off
	pc.chunks = make([]chunkMeta, nChunks)
	base := 0
	for i := 0; i < nChunks; i++ {
		meta := chunkMeta{index: i, dims: dims[base : base+counts[i]], planeBase: base}
		if sizes[i] > len(data)-off {
			meta.err = truncatedf("codec: chunk %d needs %d bytes, %d remain", i, sizes[i], max(len(data)-off, 0))
			if !lenient {
				return nil, meta.err
			}
			// Every later chunk starts past the end too; keep walking so
			// each gets a truncation record. Parking off one past the end
			// (rather than adding the length) keeps a 32-bit int from wrapping.
			off = len(data) + 1
		} else {
			meta.payload = data[off : off+sizes[i]]
			off += sizes[i]
			if version == versionChecksummed {
				if got := crc32.Checksum(meta.payload, crcTable); got != crcs[i] {
					meta.payload, meta.err = nil, fmt.Errorf("codec: chunk %d CRC %08x != %08x: %w", i, got, crcs[i], ErrChecksum)
					if !lenient {
						return nil, meta.err
					}
				}
			}
		}
		pc.chunks[i] = meta
		base += counts[i]
	}
	if off < len(data) && !lenient {
		// Lenient parses ignore what follows the last payload: every chunk is
		// recoverable from the header table alone. A strict one holds every
		// version to the exact-length rule: the encoder emits nothing after
		// the last payload, so trailing bytes mean damaged framing. This is
		// what defeats the version-downgrade flip: a byte turning v3 into
		// "v2" misparses the CRC fields into the chunk table, and one turning
		// it into "v1" reads the chunk count as the payload length, either
		// way leaving bytes dangling past the declared end.
		if bytes.HasPrefix(data[off:], retiredTrailerMagic) {
			return nil, corruptf("codec: retired chunk-index trailer layout (%d bytes after the last payload); this decoder reads containers that end at their last payload", len(data)-off)
		}
		return nil, corruptf("codec: %d trailing bytes after container end", len(data)-off)
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
	runPool(len(pc.chunks), workers, "decode", &m.poolMetrics, func(i int, scr *scratch) {
		c := &pc.chunks[i]
		if err := ctxErr(ctx); err != nil {
			c.err = err // canceled before the chunk started; skip the decode
			return
		}
		if c.err != nil {
			return // unusable since the parse (out of range, or CRC mismatch)
		}
		t0 := m.now()
		ps, err := decodeChunkPayload(ctx, c, pc, surplus, m, scr)
		m.chunkNs.ObserveSince(t0)
		m.chunks.Inc()
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
