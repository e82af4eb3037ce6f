// Observability instrumentation of the codec layer (DESIGN.md §10).
//
// Encode and Decode record into the *obs.Registry their config carries
// (EncodeConfig.Metrics / DecodeConfig.Metrics); nil disables collection.
// The instrumentation contract:
//
//   - Zero cost when disabled. A nil registry resolves to nil metric
//     handles, and every record site is guarded by a single nil check —
//     no clock reads, no allocations, no atomics (proved by
//     BenchmarkEncodeDisabledMetrics against the uninstrumented baseline).
//   - Race-clean when enabled. Per-chunk stage times and bit accounts are
//     accumulated in a plain stageRecorder owned by the one goroutine
//     encoding that chunk, then flushed into the shared atomic registry
//     handles at chunk end; the worker pools additionally report busy/wall
//     time through atomic counters only.
//
// Metric taxonomy (all durations in nanoseconds):
//
//	codec.encode.calls / planes / pixels / chunks / bytes     counters
//	codec.encode.rd_trials                                    counter    (transform+quantise trials of the search)
//	codec.encode.bits.{container,partition,mode,residual}     counters
//	codec.encode.stage.{partition,intra_search,
//	                    transform_quant,entropy,container}_ns histograms (per chunk/call)
//	codec.encode.chunk_ns                                     histogram  (per-chunk makespan)
//	codec.encode.pool.{busy_ns,wall_ns}                       counters
//	codec.encode.pool.workers                                 histogram  (pool size per call)
//	codec.decode.calls / planes / chunks                      counters
//	codec.decode.errors.{corrupt,truncated,checksum}          counters
//	codec.decode.partial.{chunks_lost,planes_lost}            counters
//	codec.decode.stage.parse_ns                               histogram  (container parse)
//	codec.decode.stage.{entropy,reconstruct}_ns               histograms (per chunk)
//	codec.decode.pipelined_chunks                             counter    (chunks whose reconstruct stage had its own goroutine)
//	codec.decode.chunk_ns                                     histogram  (per-chunk decode)
//	codec.decode.pool.{busy_ns,wall_ns}                       counters
//	codec.decode.pool.workers                                 histogram
//
// codec.decode.calls counts every Decode and Appender.Decode invocation,
// whatever its outcome: it is incremented once, on entry, before the first
// byte is looked at. A call that fails — bad magic, a header-CRC mismatch, a
// damaged chunk on the strict path, a cancellation — therefore counts as one
// call and one errors.* increment, so errors/calls is the failure rate on
// every path (TestDecodeCallsCountEveryInvocation pins one row per failure
// class).
// codec.encode.calls counts completed encodes only.
//
// The decode stage split mirrors encode's: one observation per chunk, summed
// from one clock pair per CTU batch — entropy_ns is the syntax parse,
// reconstruct_ns the pixel pipeline (DESIGN.md §13.4). Time the parse spends
// waiting for the reconstruct stage is in neither.
//
// pool.wall_ns is wall-clock × pool size (total worker-seconds of
// capacity), so utilization = pool.busy_ns / pool.wall_ns directly; a
// pipelined chunk's reconstruct goroutine counts as one more slot for its
// lifetime, busy while it reconstructs. Bit
// attribution under CABAC is byte-granular per site but telescopes exactly
// in aggregate (see binEncoder.bitLen).
package codec

import (
	"context"
	"errors"
	"runtime/pprof"
	"strconv"

	"repro/internal/obs"
)

// poolMetrics is the worker-pool instrument set, identical in both
// directions: per-chunk makespan, pool size, busy and wall time.
type poolMetrics struct {
	chunkNs, workers *obs.Histogram
	busy, wall       *obs.Counter
}

// encMetrics holds the pre-resolved encode-side metric handles so hot paths
// never touch the registry's name map. A nil *encMetrics disables
// everything.
type encMetrics struct {
	calls, planes, pixels, chunks, bytes, trials     *obs.Counter
	bitsContainer, bitsPartition, bitsMode, bitsResi *obs.Counter
	stagePartition, stageIntra, stageXform           *obs.Histogram
	stageEntropy, stageContainer                     *obs.Histogram
	pool                                             poolMetrics
}

func newEncMetrics(reg *obs.Registry) *encMetrics {
	if reg == nil {
		return nil
	}
	return &encMetrics{
		calls:          reg.Counter("codec.encode.calls"),
		planes:         reg.Counter("codec.encode.planes"),
		pixels:         reg.Counter("codec.encode.pixels"),
		chunks:         reg.Counter("codec.encode.chunks"),
		bytes:          reg.Counter("codec.encode.bytes"),
		trials:         reg.Counter("codec.encode.rd_trials"),
		bitsContainer:  reg.Counter("codec.encode.bits.container"),
		bitsPartition:  reg.Counter("codec.encode.bits.partition"),
		bitsMode:       reg.Counter("codec.encode.bits.mode"),
		bitsResi:       reg.Counter("codec.encode.bits.residual"),
		stagePartition: reg.Histogram("codec.encode.stage.partition_ns"),
		stageIntra:     reg.Histogram("codec.encode.stage.intra_search_ns"),
		stageXform:     reg.Histogram("codec.encode.stage.transform_quant_ns"),
		stageEntropy:   reg.Histogram("codec.encode.stage.entropy_ns"),
		stageContainer: reg.Histogram("codec.encode.stage.container_ns"),
		pool: poolMetrics{
			chunkNs: reg.Histogram("codec.encode.chunk_ns"),
			workers: reg.Histogram("codec.encode.pool.workers"),
			busy:    reg.Counter("codec.encode.pool.busy_ns"),
			wall:    reg.Counter("codec.encode.pool.wall_ns"),
		},
	}
}

// stageRecorder accumulates one chunk's stage times and bit accounts with
// plain (non-atomic) arithmetic; the chunk is encoded by exactly one
// goroutine, and flush() publishes the totals through the atomic handles.
type stageRecorder struct {
	m *encMetrics

	decideNs, intraNs, xformNs, entropyNs int64
	trials                                int64 // trialResidual calls
	bitsPartition, bitsMode, bitsResidual int64
}

// flush publishes the accumulated chunk stats. The pure partition-search
// share is the RD-decide total minus the leaf-internal intra-search and
// transform+quant shares measured inside it.
func (r *stageRecorder) flush() {
	partition := r.decideNs - r.intraNs - r.xformNs
	if partition < 0 {
		partition = 0
	}
	r.m.stagePartition.Observe(partition)
	r.m.stageIntra.Observe(r.intraNs)
	r.m.stageXform.Observe(r.xformNs)
	r.m.stageEntropy.Observe(r.entropyNs)
	r.m.bitsPartition.Add(r.bitsPartition)
	r.m.bitsMode.Add(r.bitsMode)
	r.m.bitsResi.Add(r.bitsResidual)
	r.m.trials.Add(r.trials)
}

// recordEncodeTotals publishes the call-level rollup shared by Encode and
// Appender.Append: geometry counters plus the container-framing bit account
// (total container bits minus the entropy payload bits, i.e. headers,
// dim/chunk tables and CRCs).
func (m *encMetrics) recordEncodeTotals(st Stats, containerLen, payloadLen, nPlanes int) {
	if m == nil {
		return
	}
	m.calls.Inc()
	m.planes.Add(int64(nPlanes))
	m.pixels.Add(int64(st.Pixels))
	m.chunks.Add(int64(st.Chunks))
	m.bytes.Add(int64(containerLen))
	m.bitsContainer.Add(int64(containerLen-payloadLen) * 8)
}

// decMetrics is the decode-side twin of encMetrics.
type decMetrics struct {
	calls, planes, chunks                 *obs.Counter
	errCorrupt, errTruncated, errChecksum *obs.Counter
	errCanceled                           *obs.Counter
	partialChunksLost, partialPlanesLost  *obs.Counter
	pipelined                             *obs.Counter
	stageParse, stageEntropy, stageRecon  *obs.Histogram
	pool                                  poolMetrics
}

func newDecMetrics(reg *obs.Registry) *decMetrics {
	if reg == nil {
		return nil
	}
	return &decMetrics{
		calls:             reg.Counter("codec.decode.calls"),
		planes:            reg.Counter("codec.decode.planes"),
		chunks:            reg.Counter("codec.decode.chunks"),
		errCorrupt:        reg.Counter("codec.decode.errors.corrupt"),
		errTruncated:      reg.Counter("codec.decode.errors.truncated"),
		errChecksum:       reg.Counter("codec.decode.errors.checksum"),
		errCanceled:       reg.Counter("codec.decode.errors.canceled"),
		partialChunksLost: reg.Counter("codec.decode.partial.chunks_lost"),
		partialPlanesLost: reg.Counter("codec.decode.partial.planes_lost"),
		pipelined:         reg.Counter("codec.decode.pipelined_chunks"),
		stageParse:        reg.Histogram("codec.decode.stage.parse_ns"),
		stageEntropy:      reg.Histogram("codec.decode.stage.entropy_ns"),
		stageRecon:        reg.Histogram("codec.decode.stage.reconstruct_ns"),
		pool: poolMetrics{
			chunkNs: reg.Histogram("codec.decode.chunk_ns"),
			workers: reg.Histogram("codec.decode.pool.workers"),
			busy:    reg.Counter("codec.decode.pool.busy_ns"),
			wall:    reg.Counter("codec.decode.pool.wall_ns"),
		},
	}
}

// countError bumps the taxonomy counter matching err's class. An error outside
// the taxonomy — a plane window out of range, a caller bug — says nothing
// about the bytes and bumps none.
func (m *decMetrics) countError(err error) {
	if m == nil || err == nil {
		return
	}
	switch {
	case IsCancellation(err):
		// Cancellation is the caller's doing, not a property of the bytes —
		// counted on its own so dashboards can tell hostile input from
		// impatient clients.
		m.errCanceled.Inc()
	case errors.Is(err, ErrChecksum):
		m.errChecksum.Inc()
	case errors.Is(err, ErrTruncated):
		m.errTruncated.Inc()
	case errors.Is(err, ErrCorrupt):
		m.errCorrupt.Inc()
	}
}

// workerLabels runs f with pprof goroutine labels identifying the engine
// pool and worker index, so CPU and goroutine profiles attribute samples to
// individual codec workers (`llm265_pool=encode llm265_worker=3`).
func workerLabels(pool string, worker int, f func()) {
	pprof.Do(context.Background(), pprof.Labels(
		"llm265_pool", pool,
		"llm265_worker", strconv.Itoa(worker),
	), func(context.Context) { f() })
}
