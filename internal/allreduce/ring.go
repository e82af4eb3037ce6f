// Package allreduce implements compressed-gradient collective reduction as
// a real concurrent system: N goroutine workers connected by in-process
// channels move codec-compressed gradient segments around a ring, reduce
// them in a canonical order, and gather the result back to every worker
// (DESIGN.md §17, the paper's §5.2 training story).
//
// Topology and determinism. The bucket is split into S row-aligned segments;
// segment s is owned by worker s mod N. Phase 1 (reduce-scatter): every
// worker compresses each of its segments once and the payloads travel the
// ring hop-by-hop (store-and-forward, no re-encoding of partial sums) until
// they reach the segment's owner, which decodes every contribution and sums
// them in ascending origin order — so the floating-point association is fixed
// by worker index, never by message arrival order, and the uncompressed path
// is bit-identical to a sequential sum. Phase 2 (all-gather): the owner
// compresses the reduced segment once and the same bytes circle the ring, so
// every worker reconstructs the identical result.
// Compressing each contribution exactly once (instead of re-encoding partial
// sums at every hop) keeps the lossy error from growing with hop count and
// gives classic per-worker error-feedback semantics.
package allreduce

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"sync"
	"time"

	"repro/internal/obs"
)

// Config describes one ring instance. The zero value is not usable: Workers,
// Rows, Cols and Codec are required.
type Config struct {
	// Workers is the ring size N: one goroutine per data-parallel worker.
	Workers int
	// Rows, Cols give the bucket geometry every worker contributes.
	Rows, Cols int
	// SegRows is the row height of one pipelined segment. 0 picks
	// ceil(Rows/(2·Workers)) (at least 1), giving every worker about two
	// owned segments so encode overlaps neighbor communication — rounded up
	// to whole codec blocks (the profile's CTU: 32 rows for H.265 and AV1,
	// 16 for H.264) for TensorCodec and RateCodec.
	SegRows int
	// Codec builds each worker's segment codec (required).
	Codec CodecFactory
	// ErrorFeedback enables per-worker residual accumulation: the
	// quantization error of each segment a worker sends is carried into its
	// next step's contribution (and, on the gather side, into the owner's next
	// reduced encode). A segment's owner sends no contribution, so it keeps no
	// reduce-side residual for it. No effect on lossless codecs.
	ErrorFeedback bool
	// Metrics receives allreduce.* counters and histograms; nil disables
	// them at zero cost.
	Metrics *obs.Registry
	// ScheduleSeed, when nonzero, permutes each worker's segment encode
	// order pseudo-randomly (seeded per worker). Results are identical for
	// every seed — the determinism property tests sweep this.
	ScheduleSeed int64
	// Chaos, when set, is called at named scheduling points
	// ("encode"/"send"/"recv"/"decode"/"reduce") with the worker index.
	// The race soak uses it to inject Gosched/sleep jitter; it must be
	// safe for concurrent use.
	Chaos func(point string, worker int)
}

// Stats aggregates one Allreduce call across all workers.
type Stats struct {
	// WireBits is the accounted cost of every frame that traveled at least
	// one ring hop (counted once at its origin, not per hop). The raw
	// codec accounts 16 bits/value (FP16 link model), so an uncompressed
	// N-worker ring accounts exactly N·numel·16.
	WireBits int64
	// Values is the number of tensor values those frames carried — every
	// value handed to SegmentCodec.Encode, since only what travels is coded.
	Values int64
	// PayloadBytes is the physical payload bytes that traveled (per hop
	// this time: a frame forwarded F times contributes F·len(payload)).
	PayloadBytes int64
	// Frames is the total frame-hops across all edges.
	Frames int64
	// EncodeNs and DecodeNs are summed per-worker CPU time inside the
	// segment codec (not wall clock — workers overlap).
	EncodeNs, DecodeNs int64
	// ResidualL2 is the summed squared error-feedback residual left behind
	// by this step's encodes: N−1 contributions and one gather a segment (0
	// when lossless or EF disabled).
	ResidualL2 float64
}

type segment struct {
	start, rows int
}

// frame is one message on a ring edge: a segment's payload and the routing the
// ring attached to it. Frames never leave the process, so they travel as
// values; payload is the slice SegmentCodec.Encode returned, handed uncopied
// to every worker it reaches.
type frame struct {
	gather      bool // the owner's reduced segment, not a contribution
	origin, seg int  // sending worker (the owner, for a gather) and segment index
	payload     []byte
}

type ringMetrics struct {
	encNs, decNs, reduceNs, waitNs *obs.Histogram
	reduceBits, gatherBits         *obs.Histogram
	payloadBytes, frames, segments *obs.Counter
	steps, cancelled               *obs.Counter
	residL2                        *obs.Histogram
}

// Ring is a reusable N-worker compressed allreduce. A Ring carries state
// across steps (error-feedback residuals, codec warmup counters), so a
// training loop creates one Ring and calls Allreduce once per step,
// AdvanceStep after each. A Ring is not safe for concurrent Allreduce calls.
type Ring struct {
	cfg    Config
	n      int
	segs   []segment
	codecs []SegmentCodec

	// resid[w][s]: worker w's reduce-side EF residual for segment s; nil for
	// the segments w owns, whose contribution is never coded.
	resid [][][]float32
	// gatherResid[s]: the owner's gather-side EF residual (owned segs only).
	gatherResid [][]float32

	// contrib[s][origin] and sumBuf[s] are owner-side buffers, touched only
	// by the owning worker's goroutine. Allocated once in New, reused every
	// step (the steady state allocates only codec payloads).
	contrib [][][]float32
	sumBuf  [][]float32

	// scratch[w]: worker w's encode staging buffer (segment + residual).
	scratch [][]float32

	// chans[i] is the edge worker i → worker (i+1)%N, pre-sized in New to
	// the exact number of frames that cross it, so sends never block and
	// the ring cannot deadlock whatever the interleaving.
	chans   []chan frame
	inCount []int

	met ringMetrics
}

// New validates cfg and builds the ring: per-worker codecs, EF residual and
// owner-side reduction buffers, and exactly-sized edge channels. The bounds on
// Workers (< 2¹⁶) and on Rows and Cols (≤ 2¹⁵) cap what New allocates — a
// codec and residual table per worker, a contribution buffer per worker and
// segment — and the goroutines Allreduce starts, before anything is sized
// from cfg: a bucket is a slice of a model's gradients, never a whole model.
func New(cfg Config) (*Ring, error) {
	if cfg.Workers < 1 || cfg.Workers > 1<<16-1 {
		return nil, fmt.Errorf("allreduce: %d workers", cfg.Workers)
	}
	if cfg.Rows < 1 || cfg.Cols < 1 || cfg.Rows > 1<<15 || cfg.Cols > 1<<15 {
		return nil, fmt.Errorf("allreduce: bucket geometry %dx%d", cfg.Rows, cfg.Cols)
	}
	if cfg.Codec == nil {
		return nil, errors.New("allreduce: Codec is required")
	}
	if cfg.SegRows < 0 {
		return nil, fmt.Errorf("allreduce: SegRows %d", cfg.SegRows)
	}
	r := &Ring{cfg: cfg, n: cfg.Workers}
	r.codecs = make([]SegmentCodec, r.n)
	for w := 0; w < r.n; w++ {
		r.codecs[w] = cfg.Codec(w)
	}
	segRows := cfg.SegRows
	if segRows == 0 {
		segRows = (cfg.Rows + 2*cfg.Workers - 1) / (2 * cfg.Workers)
		if segRows < 1 {
			segRows = 1
		}
		if bc, ok := r.codecs[0].(blockCodec); ok {
			// An unknown profile has no CTU (0): its encodes are refused later.
			b := max(bc.blockRows(), 1)
			segRows = (segRows + b - 1) / b * b
		}
	}
	for start := 0; start < cfg.Rows; start += segRows {
		rows := segRows
		if start+rows > cfg.Rows {
			rows = cfg.Rows - start
		}
		r.segs = append(r.segs, segment{start: start, rows: rows})
	}
	s := len(r.segs)
	r.resid = make([][][]float32, r.n)
	for w := range r.resid {
		r.resid[w] = make([][]float32, s)
	}
	r.gatherResid = make([][]float32, s)
	r.contrib = make([][][]float32, s)
	r.sumBuf = make([][]float32, s)
	for i, seg := range r.segs {
		n := seg.rows * cfg.Cols
		r.sumBuf[i] = make([]float32, n)
		r.contrib[i] = make([][]float32, r.n)
		for o := range r.contrib[i] {
			r.contrib[i][o] = make([]float32, n)
		}
	}
	r.scratch = make([][]float32, r.n)
	for w := range r.scratch {
		r.scratch[w] = make([]float32, segRows*cfg.Cols)
	}
	if r.n > 1 {
		edgeCap := make([]int, r.n)
		for si := range r.segs {
			owner := si % r.n
			for origin := 0; origin < r.n; origin++ {
				d := (owner - origin + r.n) % r.n
				for k := 0; k < d; k++ {
					edgeCap[(origin+k)%r.n]++
				}
			}
			// The gather frame crosses every edge except the one entering
			// its owner.
			for k := 0; k < r.n-1; k++ {
				edgeCap[(owner+k)%r.n]++
			}
		}
		r.chans = make([]chan frame, r.n)
		r.inCount = make([]int, r.n)
		for i := range r.chans {
			r.chans[i] = make(chan frame, edgeCap[i])
		}
		for w := 0; w < r.n; w++ {
			r.inCount[w] = edgeCap[(w-1+r.n)%r.n]
		}
	}
	m := cfg.Metrics
	r.met = ringMetrics{
		encNs:        m.Histogram("allreduce.segment.encode_ns"),
		decNs:        m.Histogram("allreduce.segment.decode_ns"),
		reduceNs:     m.Histogram("allreduce.segment.reduce_ns"),
		waitNs:       m.Histogram("allreduce.recv.wait_ns"),
		reduceBits:   m.Histogram("allreduce.wire.reduce_bits"),
		gatherBits:   m.Histogram("allreduce.wire.gather_bits"),
		payloadBytes: m.Counter("allreduce.wire.payload_bytes"),
		frames:       m.Counter("allreduce.wire.frames"),
		segments:     m.Counter("allreduce.segments"),
		steps:        m.Counter("allreduce.steps"),
		cancelled:    m.Counter("allreduce.cancelled"),
		residL2:      m.Histogram("allreduce.ef.residual_l2_x1e6"),
	}
	return r, nil
}

// AdvanceStep advances per-step codec state (e.g. 1-bit warmup counters) on
// every worker's codec. Call once after each training step.
func (r *Ring) AdvanceStep() {
	for _, c := range r.codecs {
		if s, ok := c.(Stepper); ok {
			s.AdvanceStep()
		}
	}
}

// Allreduce runs one collective: in[w] is worker w's bucket (Rows·Cols,
// row-major) and out[w] receives what every worker decodes from the one gather
// encode of each segment's SUM — callers scale by 1/N themselves. The sum is
// exact float32 addition of the N−1 contributions that crossed the ring, as
// their owner decoded them, and the owner's own, which crossed nothing and is
// taken uncoded; a one-worker ring returns in. out may alias in. The reduction
// order is canonical (ascending worker index at the segment owner), so the
// result is bit-identical across repeated runs, channel schedules and codec
// worker counts; with the raw codec it is bit-identical to a sequential sum.
//
// On ctx cancellation every worker unwinds promptly and leak-free; out is
// then meaningless and the error reports the cause.
func (r *Ring) Allreduce(ctx context.Context, in, out [][]float32) (Stats, error) {
	if len(in) != r.n || len(out) != r.n {
		return Stats{}, fmt.Errorf("allreduce: %d inputs, %d outputs for %d workers", len(in), len(out), r.n)
	}
	numel := r.cfg.Rows * r.cfg.Cols
	for w := 0; w < r.n; w++ {
		if len(in[w]) != numel || len(out[w]) != numel {
			return Stats{}, fmt.Errorf("allreduce: worker %d buffers %d/%d values, want %d", w, len(in[w]), len(out[w]), numel)
		}
	}
	// Drain any frames a previously cancelled step abandoned in flight, so
	// the exact-capacity invariant holds again.
	for _, ch := range r.chans {
		for len(ch) > 0 {
			<-ch
		}
	}

	ictx, cancel := context.WithCancel(ctx)
	defer cancel()

	var (
		wg       sync.WaitGroup
		errOnce  sync.Once
		firstErr error
	)
	fail := func(err error) {
		errOnce.Do(func() {
			firstErr = err
			cancel()
		})
	}
	stats := make([]Stats, r.n)
	for w := 0; w < r.n; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			if err := r.runWorker(ictx, w, in[w], out[w], &stats[w]); err != nil {
				fail(err)
			}
		}(w)
	}
	wg.Wait()
	if firstErr != nil {
		r.met.cancelled.Inc()
		return Stats{}, firstErr
	}
	var total Stats
	for _, s := range stats {
		total.WireBits += s.WireBits
		total.Values += s.Values
		total.PayloadBytes += s.PayloadBytes
		total.Frames += s.Frames
		total.EncodeNs += s.EncodeNs
		total.DecodeNs += s.DecodeNs
		total.ResidualL2 += s.ResidualL2
	}
	r.met.steps.Inc()
	r.met.residL2.Observe(int64(total.ResidualL2 * 1e6))
	return total, nil
}

func (r *Ring) chaos(point string, w int) {
	if r.cfg.Chaos != nil {
		r.cfg.Chaos(point, w)
	}
}

// encodeOrder returns worker w's segment encode order for this step.
func (r *Ring) encodeOrder(w int) []int {
	order := make([]int, len(r.segs))
	for i := range order {
		order[i] = i
	}
	if r.cfg.ScheduleSeed != 0 {
		rng := rand.New(rand.NewSource(r.cfg.ScheduleSeed*1_000_003 + int64(w)))
		rng.Shuffle(len(order), func(i, j int) { order[i], order[j] = order[j], order[i] })
	}
	return order
}

func (r *Ring) runWorker(ctx context.Context, w int, in, out []float32, st *Stats) error {
	cod := r.codecs[w]
	done := make([]int, len(r.segs)) // owner-side contribution counts

	// Phase 1: encode and launch every local segment. Sends cannot block
	// (exact edge capacity), so a worker streams all its contributions out
	// while neighbors are still encoding — the pipelining the tentpole asks
	// for. A segment this worker owns never leaves it and so is not coded: the
	// values themselves are its contribution, with no quantisation error to
	// feed back.
	for _, si := range r.encodeOrder(w) {
		if err := ctx.Err(); err != nil {
			return err
		}
		seg := r.segs[si]
		n := seg.rows * r.cfg.Cols
		src := in[seg.start*r.cfg.Cols : seg.start*r.cfg.Cols+n]
		r.met.segments.Inc()
		if si%r.n == w {
			copy(r.contrib[si][w], src)
			if err := r.contributed(ctx, w, si, done, out, st); err != nil {
				return err
			}
			continue
		}
		payload, _, bitCost, err := r.encode(ctx, w, src, seg, &r.resid[w][si], st)
		if err != nil {
			return fmt.Errorf("allreduce: worker %d encode seg %d: %w", w, si, err)
		}
		st.WireBits += bitCost
		st.Values += int64(n)
		r.met.reduceBits.Observe(bitCost)
		if err := r.send(ctx, w, frame{origin: w, seg: si, payload: payload}, st); err != nil {
			return err
		}
	}

	// Phase 2: drain the incoming edge. The exact per-edge frame counts
	// guarantee that after inCount frames this worker has consumed every
	// contribution it owns and every gather result it needs.
	if r.n == 1 {
		return nil
	}
	inCh := r.chans[(w-1+r.n)%r.n]
	for k := 0; k < r.inCount[w]; k++ {
		r.chaos("recv", w)
		t0 := time.Now()
		var f frame
		select {
		case f = <-inCh:
		case <-ctx.Done():
			return ctx.Err()
		}
		r.met.waitNs.ObserveSince(t0)
		if !f.gather {
			if f.seg%r.n == w {
				if err := r.consumeReduce(ctx, w, f, done, out, st); err != nil {
					return err
				}
			} else if err := r.send(ctx, w, f, st); err != nil {
				return err
			}
			continue
		}
		seg := r.segs[f.seg]
		n := seg.rows * r.cfg.Cols
		r.chaos("decode", w)
		t0 = time.Now()
		err := cod.Decode(ctx, f.payload, seg.rows, r.cfg.Cols, out[seg.start*r.cfg.Cols:seg.start*r.cfg.Cols+n])
		st.DecodeNs += time.Since(t0).Nanoseconds()
		r.met.decNs.ObserveSince(t0)
		if err != nil {
			return fmt.Errorf("allreduce: worker %d gather seg %d: %w", w, f.seg, err)
		}
		if (w+1)%r.n != f.origin {
			if err := r.send(ctx, w, f, st); err != nil {
				return err
			}
		}
	}
	return nil
}

func (r *Ring) send(ctx context.Context, w int, f frame, st *Stats) error {
	r.chaos("send", w)
	st.Frames++
	st.PayloadBytes += int64(len(f.payload))
	r.met.frames.Inc()
	r.met.payloadBytes.Add(int64(len(f.payload)))
	select {
	case r.chans[w] <- f:
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}

// encode codes vals — one segment about to leave worker w — plus, under
// error feedback, the residual *res its previous encode left, and leaves this
// encode's residual there. recon is what every receiver will decode: the staged
// values themselves when the codec is lossless.
func (r *Ring) encode(ctx context.Context, w int, vals []float32, seg segment, res *[]float32, st *Stats) (payload []byte, recon []float32, bitCost int64, err error) {
	scratch := r.scratch[w][:len(vals)]
	copy(scratch, vals)
	if r.cfg.ErrorFeedback && *res != nil {
		for i, d := range *res {
			scratch[i] += d
		}
	}
	r.chaos("encode", w)
	t0 := time.Now()
	payload, recon, bitCost, err = r.codecs[w].Encode(ctx, scratch, seg.rows, r.cfg.Cols)
	st.EncodeNs += time.Since(t0).Nanoseconds()
	r.met.encNs.ObserveSince(t0)
	if err != nil || recon == nil {
		return payload, scratch, bitCost, err
	}
	if r.cfg.ErrorFeedback {
		if *res == nil {
			*res = make([]float32, len(vals))
		}
		var l2 float64
		for i := range scratch {
			d := scratch[i] - recon[i]
			(*res)[i] = d
			l2 += float64(float64(d) * float64(d))
		}
		st.ResidualL2 += l2
	}
	return payload, recon, bitCost, nil
}

// consumeReduce decodes one contribution off the wire at its segment's owner.
func (r *Ring) consumeReduce(ctx context.Context, w int, f frame, done []int, out []float32, st *Stats) error {
	seg := r.segs[f.seg]
	r.chaos("decode", w)
	t0 := time.Now()
	err := r.codecs[w].Decode(ctx, f.payload, seg.rows, r.cfg.Cols, r.contrib[f.seg][f.origin])
	st.DecodeNs += time.Since(t0).Nanoseconds()
	r.met.decNs.ObserveSince(t0)
	if err != nil {
		return fmt.Errorf("allreduce: worker %d reduce seg %d origin %d: %w", w, f.seg, f.origin, err)
	}
	return r.contributed(ctx, w, f.seg, done, out, st)
}

// contributed counts one contribution to segment si, already in r.contrib, at
// its owner w and, once all N have arrived, performs the canonical-order
// reduction and launches the gather.
func (r *Ring) contributed(ctx context.Context, w, si int, done []int, out []float32, st *Stats) error {
	seg := r.segs[si]
	n := seg.rows * r.cfg.Cols
	done[si]++
	if done[si] < r.n {
		return nil
	}

	// All contributions present: sum in ascending origin order — float32
	// accumulation in a schedule-independent association, exactly the
	// arithmetic a sequential sum performs.
	r.chaos("reduce", w)
	t0 := time.Now()
	sum := r.sumBuf[si]
	copy(sum, r.contrib[si][0])
	for origin := 1; origin < r.n; origin++ {
		c := r.contrib[si][origin]
		for i := range sum {
			sum[i] += c[i]
		}
	}
	r.met.reduceNs.ObserveSince(t0)

	outSeg := out[seg.start*r.cfg.Cols : seg.start*r.cfg.Cols+n]
	if r.n == 1 {
		// Single worker: nothing travels, so nothing is coded — the "sum" is
		// this worker's input.
		copy(outSeg, sum)
		return nil
	}

	// Gather: compress the reduced segment once; the identical bytes circle
	// the ring so every worker reconstructs the identical values.
	payload, recon, bitCost, err := r.encode(ctx, w, sum, seg, &r.gatherResid[si], st)
	if err != nil {
		return fmt.Errorf("allreduce: worker %d gather encode seg %d: %w", w, si, err)
	}
	copy(outSeg, recon)
	st.WireBits += bitCost
	st.Values += int64(n)
	r.met.gatherBits.Observe(bitCost)
	return r.send(ctx, w, frame{gather: true, origin: w, seg: si, payload: payload}, st)
}
