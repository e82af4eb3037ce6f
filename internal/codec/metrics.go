// Observability instrumentation of the codec layer (DESIGN.md §10).
//
// Encode and Decode record into the *obs.Registry their config carries
// (EncodeConfig.Metrics / DecodeConfig.Metrics); nil disables collection.
// The instrumentation contract:
//
//   - One switch. A nil registry resolves every handle to nil, and a nil
//     handle records nothing, so record sites call the handles directly.
//     Only the nil-safe helpers below test, to skip what a nil handle
//     cannot: a clock read, a bitLen() query, pprof labels (once a
//     goroutine). Each hot one is an inlinable test around an outlined
//     body, costing that test when disabled (root TestMetricsHelpersInline).
//   - Race-clean when enabled. Per-chunk stage times and bit accounts are
//     accumulated in a plain stageRecorder owned by the one goroutine
//     coding that chunk (the decoder has one per stage), then flushed into
//     the shared atomic registry handles at chunk end; the worker pools
//     additionally report busy/wall time through atomic counters only.
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
	"time"

	"repro/internal/obs"
)

// poolMetrics is the worker-pool instrument set, identical in both
// directions: per-chunk makespan, pool size, busy and wall time. Its wall
// handle is nil exactly when metrics are off, which is what its helpers test.
type poolMetrics struct {
	chunkNs, workers *obs.Histogram
	busy, wall       *obs.Counter
}

// now is the start of a step these handles time: the clock when they record,
// the zero time without a clock read when they are nil.
func (pm *poolMetrics) now() time.Time {
	if pm.wall == nil {
		return time.Time{}
	}
	return time.Now()
}

// since is the nanoseconds from t, a time now returned, to this instant; 0
// without a clock read when the handles are nil.
func (pm *poolMetrics) since(t time.Time) int64 {
	if pm.wall == nil {
		return 0
	}
	return int64(time.Since(t))
}

// labeled runs f under pprof labels naming the pool and worker when the
// handles record, and bare when they are nil.
func (pm *poolMetrics) labeled(pool string, worker int, f func()) {
	if pm.wall == nil {
		f()
		return
	}
	workerLabels(pool, worker, f)
}

// encMetrics holds the encode-side metric handles, resolved once per call
// (or per Appender) so hot paths never touch the registry's name map.
type encMetrics struct {
	calls, planes, pixels, chunks, bytes, trials     *obs.Counter
	bitsContainer, bitsPartition, bitsMode, bitsResi *obs.Counter
	stagePartition, stageIntra, stageXform           *obs.Histogram
	stageEntropy, stageContainer                     *obs.Histogram
	poolMetrics
}

// noEncMetrics and noDecMetrics are a nil registry's sets, every handle nil.
// They are shared so that a call with metrics off allocates none.
var (
	noEncMetrics encMetrics
	noDecMetrics decMetrics
)

func newEncMetrics(reg *obs.Registry) *encMetrics {
	if reg == nil {
		return &noEncMetrics
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
		poolMetrics: poolMetrics{
			chunkNs: reg.Histogram("codec.encode.chunk_ns"),
			workers: reg.Histogram("codec.encode.pool.workers"),
			busy:    reg.Counter("codec.encode.pool.busy_ns"),
			wall:    reg.Counter("codec.encode.pool.wall_ns"),
		},
	}
}

// slot names what a stageRecorder sums: a stage's nanoseconds, or the bits
// of one of the encoder's syntax accounts.
type slot int

const (
	stageDecide   slot = iota // encode: a CTU's RD decision, intra and trials included
	stageIntra                // encode: a leaf's coarse intra ranking
	stageXform                // encode: one transform+quant trial
	stageEntropy              // encode: emitting a CTU's bins; decode: parsing them
	stageRecon                // decode: reconstructing a parsed CTU
	bitsPartition             // encode: split flags
	bitsMode                  // encode: inter flags, motion vectors, intra modes
	bitsResidual              // encode: levels
	numSlots
)

// stageRecorder sums one chunk's stage times and bit accounts, and counts
// how often each stage ran, with plain (non-atomic) arithmetic: it belongs
// to the one goroutine running its stages, and the chunk's flush publishes
// it through the atomic handles. A nil *stageRecorder (metrics off, or a
// caller that passed no set) reads no clock and queries no bit position.
type stageRecorder struct {
	sum, runs [numSlots]int64
}

// start is the start of a stage: the clock, or the zero time when r is nil.
func (r *stageRecorder) start() time.Time {
	if r == nil {
		return time.Time{}
	}
	return time.Now()
}

// stop charges stage s the time from t, a time start or stop returned, to
// now, counts one run of s, and returns now: the start of whatever follows.
func (r *stageRecorder) stop(s slot, t time.Time) time.Time {
	if r == nil {
		return t
	}
	return r.charge(s, t)
}

// charge reads only the monotonic clock: t.Add(d) is now.
//
//go:noinline
func (r *stageRecorder) charge(s slot, t time.Time) time.Time {
	d := time.Since(t)
	r.sum[s] += int64(d)
	r.runs[s]++
	return t.Add(d)
}

// mark is bw's bit position, for account; 0, without the bitLen() query
// (not free under CABAC), when r is nil.
func (r *stageRecorder) mark(bw binEncoder) int {
	if r == nil {
		return 0
	}
	return bw.bitLen()
}

// account charges account a the bits bw wrote since position b, a mark,
// and returns the position now.
func (r *stageRecorder) account(a slot, bw binEncoder, b int) int {
	if r == nil {
		return 0
	}
	return r.count(a, bw, b)
}

//go:noinline
func (r *stageRecorder) count(a slot, bw binEncoder, b int) int {
	now := bw.bitLen()
	r.sum[a] += int64(now - b)
	return now
}

// labeled runs f under pprof labels naming the pool and worker when r
// records, and bare when r is nil.
func (r *stageRecorder) labeled(pool string, worker int, f func()) {
	if r == nil {
		f()
		return
	}
	workerLabels(pool, worker, f)
}

// recorder resets *r and returns it when m records, and nil when m is nil
// (a caller that passed no set) or its handles are.
func (m *encMetrics) recorder(r *stageRecorder) *stageRecorder {
	if m == nil || m.wall == nil {
		return nil
	}
	*r = stageRecorder{}
	return r
}

// flush publishes an encode chunk's stages. The pure partition-search share
// is the RD-decide total minus the leaf-internal intra-search and
// transform+quant shares measured inside it.
func (m *encMetrics) flush(r *stageRecorder) {
	if r == nil {
		return
	}
	partition := r.sum[stageDecide] - r.sum[stageIntra] - r.sum[stageXform]
	if partition < 0 {
		partition = 0
	}
	m.stagePartition.Observe(partition)
	m.stageIntra.Observe(r.sum[stageIntra])
	m.stageXform.Observe(r.sum[stageXform])
	m.stageEntropy.Observe(r.sum[stageEntropy])
	m.bitsPartition.Add(r.sum[bitsPartition])
	m.bitsMode.Add(r.sum[bitsMode])
	m.bitsResi.Add(r.sum[bitsResidual])
	m.trials.Add(r.runs[stageXform])
}

// recordEncodeTotals publishes the call-level rollup shared by Encode and
// Appender.Append: geometry counters plus the container-framing bit account
// (total container bits minus the entropy payload bits, i.e. headers,
// dim/chunk tables and CRCs).
func (m *encMetrics) recordEncodeTotals(st Stats, containerLen, payloadLen, nPlanes int) {
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
	poolMetrics
}

func newDecMetrics(reg *obs.Registry) *decMetrics {
	if reg == nil {
		return &noDecMetrics
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
		poolMetrics: poolMetrics{
			chunkNs: reg.Histogram("codec.decode.chunk_ns"),
			workers: reg.Histogram("codec.decode.pool.workers"),
			busy:    reg.Counter("codec.decode.pool.busy_ns"),
			wall:    reg.Counter("codec.decode.pool.wall_ns"),
		},
	}
}

// recorder is encMetrics.recorder for a decode stage.
func (m *decMetrics) recorder(r *stageRecorder) *stageRecorder {
	if m == nil || m.wall == nil {
		return nil
	}
	*r = stageRecorder{}
	return r
}

// flush publishes a decode chunk's stages: parse holds the parse stage's
// time, recon the reconstruct stage's. A pipelined chunk's reconstruct
// goroutine is one more pool slot for as long as it lived, from stageStart,
// busy while it reconstructed.
func (m *decMetrics) flush(parse, recon *stageRecorder, pipelined bool, stageStart time.Time) {
	if parse == nil {
		return
	}
	m.stageEntropy.Observe(parse.sum[stageEntropy])
	m.stageRecon.Observe(recon.sum[stageRecon])
	if pipelined {
		m.pipelined.Inc()
		m.busy.Add(recon.sum[stageRecon])
		m.wall.Add(int64(time.Since(stageStart)))
	}
}

// countError bumps the taxonomy counter matching err's class. An error outside
// the taxonomy — a plane window out of range, a caller bug — says nothing
// about the bytes and bumps none.
func (m *decMetrics) countError(err error) {
	if err == nil {
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
