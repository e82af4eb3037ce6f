package main

import (
	"context"
	"fmt"
	"math"
	"os"
	"runtime"
	"sync"
	"time"
)

// env is what every workload's set-up may depend on: the seed, the host's
// core count (the closed-loop client and worker bound) and a scratch dir.
type env struct {
	seed  int64
	nproc int
	dir   string
}

// workload is one closed-loop load: set-up from a seed, then clients that
// each run one verified operation at a time.
type workload interface {
	// setup builds the inputs and every reference output; it is what setup_s
	// times. A second call replaces the first (close is called in between).
	setup(e env) error
	// clients is the closed-loop client count, never above nproc.
	clients() int
	// op runs client c's next operation and records it on r.
	op(ctx context.Context, c int, r *recorder)
	// attach hands the pass's tracer (nil when untraced) to whatever records
	// spans outside the clients; quiesce blocks until work the clients left
	// behind there (server handlers) has been recorded.
	attach(tr *tracer)
	quiesce()
	// native derives the workload's own end-to-end metrics from a timed pass.
	native(p *pass) map[string]float64
	// layers derives the per-layer metrics this workload's traced pass owns.
	layers(p *pass) map[string]float64
	close()
}

// spec names a workload; the names are final — later issues cite them.
type spec struct {
	name string
	why  string // frozen coding point and purpose, one line; copied into BENCHMARK.json
	// lap is how long this workload's traced pass runs when a traced run
	// names another workload (see runSuite).
	lap time.Duration
	new func() workload
}

var specs = []spec{
	{"weights_encode", "1 caller: core EncodeStackCtx+Marshal of 8 2x256x256 tensorgen.WeightStack (rho 0.3; 4 fixed, 4 seeded), QP 12, CABAC, checksum+index, full search, Workers=nproc. Encode-bound: intra search, transform", 1200 * time.Millisecond, newWeightsEncode},
	{"weights_fetch", "1 caller: store.Fetch+DecodeStackCtx of 8 WeightStack tensors 4x256x256 (QP 12, CABAC/rANS alternating), then 16 skewed Model.Layer reads under an 8-layer LRU. Decode/store-bound; encode does no work", 1200 * time.Millisecond, newWeightsFetch},
	{"serve_codec", "nproc keep-alive clients -> proxy (hedging on) -> 2 serve replicas (Workers=1): 20% POST /v1/encode 128x256 qp=4 checksum=1, 80% POST /v1/decode, 32 Weights/Activations bodies. Per-request cost shows", 1000 * time.Millisecond, newServeCodec},
	{"kv_stream", "same topology; nproc clients x16 sessions (8 fixed, 8 seeded), dim 128, KVQP 24, flush 32 rows, 64 MiB: 50% PUT 32 rows, 50% GET 32-row window, shared prompt, DELETE at 512 rows. Writes beside reads", 1000 * time.Millisecond, newKVStream},
	{"grad_ring", "1 caller: Ring.Allreduce+AdvanceStep, 4 workers, TensorCodec QP 12 Workers=1, error feedback, 256x256 bucket from 8 seeded Gradients(rangeOrders 2) step-sets. Encode, decode and ring wait per step", 2000 * time.Millisecond, newGradRing},
}

// inProcess is the attach/quiesce half of a workload whose spans are all
// recorded by its own clients.
type inProcess struct{}

func (inProcess) attach(*tracer) {}
func (inProcess) quiesce()       {}

// allWorkloads lists the workload names in the order of specs.
var allWorkloads = func() []string {
	names := make([]string, len(specs))
	for i, sp := range specs {
		names[i] = sp.name
	}
	return names
}()

func specByName(name string) *spec {
	for i := range specs {
		if specs[i].name == name {
			return &specs[i]
		}
	}
	return nil
}

// outcome of one operation.
type outcome int

const (
	opOK       outcome = iota
	opFailed           // refused or errored: counted against attempts
	opMismatch         // wrong output: counted, and fails the whole command
)

// sample is one finished operation.
type sample struct {
	kind  string
	op    int64   // id of the operation's root span
	class int     // which input of its pool (or which sort of input) the op ran on
	ms    float64 // time inside the system under test; verification excluded
	calMs float64 // the client's calibration time around the op (calibrate.go)
	rawMB float64 // float32 bytes in or out ÷ 1e6
}

// refMs is the op's time at the reference speed.
func (s sample) refMs() float64 { return s.ms * calNominalMs / s.calMs }

// link ties a serve-middleware span to the client span that caused it.
type link struct{ id, op, parent int64 }

// recorder is one client's private log of a pass; clients never share one.
type recorder struct {
	tr      *tracer
	nextID  int64 // span ids: each client owns a disjoint range
	samples []sample
	links   []link
	marks   []calMark

	attempted, failed, mismatched int
	firstErr                      string
}

// calMark is one run of the client's calibration kernel: how long it took and
// how many samples the client had recorded by then.
type calMark struct {
	at int
	ms float64
}

// calibrate runs the kernel and notes where in the client's samples it fell.
func (r *recorder) calibrate(k *calibrator) {
	r.marks = append(r.marks, calMark{at: len(r.samples), ms: k.run()})
}

// applyMarks gives every sample the mean of the calibration times on either
// side of it; the client's loop brackets its ops with one at each end.
func (r *recorder) applyMarks() {
	for m := 0; m+1 < len(r.marks); m++ {
		for i := r.marks[m].at; i < r.marks[m+1].at; i++ {
			r.samples[i].calMs = (r.marks[m].ms + r.marks[m+1].ms) / 2
		}
	}
}

// liveOp is an operation in flight: the root span plus the id its children
// hang under.
type liveOp struct {
	r     *recorder
	kind  string
	class int
	id    int64
	root  liveSpan
}

func (r *recorder) id() int64 { r.nextID++; return r.nextID }

// begin opens an operation of the given kind on an input of the given class.
func (r *recorder) begin(kind string, class int) liveOp {
	id := r.id()
	return liveOp{r: r, kind: kind, class: class, id: id, root: r.tr.begin(id, id, 0, "client.op."+kind)}
}

// setKind renames an operation whose kind is only known once it has run.
func (o *liveOp) setKind(kind string) {
	o.kind = kind
	o.root.name = "client.op." + kind
}

// span opens a child of the operation's root.
func (o liveOp) span(name string) liveSpan {
	if o.r.tr == nil {
		return liveSpan{}
	}
	return o.r.tr.begin(o.r.id(), o.id, o.id, name)
}

// done closes the operation. dt is the time spent inside the system.
func (o liveOp) done(dt time.Duration, rawMB float64, out outcome, detail string) {
	o.root.end()
	r := o.r
	r.attempted++
	if out != opOK {
		r.failed++
		if out == opMismatch {
			r.mismatched++
		}
		if r.firstErr == "" {
			r.firstErr = o.kind + ": " + detail
		}
		return
	}
	r.samples = append(r.samples, sample{kind: o.kind, op: o.id, class: o.class, ms: float64(dt) / 1e6, rawMB: rawMB})
}

// pass is the merged record of one phase of one workload.
type pass struct {
	wall   time.Duration // of the pass, less the time a client spent calibrating
	byKind map[string][]sample
	spans  []span
	calMs  []float64 // every calibration time of the pass

	attempted, failed, mismatched int
	firstErr                      string
}

func (p *pass) ms(kind string) []float64 {
	xs := make([]float64, len(p.byKind[kind]))
	for i, s := range p.byKind[kind] {
		xs[i] = s.ms
	}
	return xs
}

// center is the reported centre of f over the ops of one kind: the median
// over ops, taken per input class and averaged over the classes. The inputs
// of a pool cost different amounts (a layer with an outlier column codes in
// fewer bits and less time than one without, rANS tensors decode slower than
// CABAC ones), so the op times of a pass are a mixture of modes, and the plain
// median of a mixture jumps between neighbouring modes from run to run; with
// one class this is the plain median.
func (p *pass) center(kind string, f func(sample) float64) float64 {
	byClass := map[int][]float64{}
	for _, s := range p.byKind[kind] {
		byClass[s.class] = append(byClass[s.class], f(s))
	}
	return meanOfMedians(byClass)
}

func meanOfMedians(byClass map[int][]float64) float64 {
	if len(byClass) == 0 {
		return math.NaN()
	}
	var sum float64
	for _, xs := range byClass {
		sum += median(xs)
	}
	return sum / float64(len(byClass))
}

// spanMsByClass groups the durations, in ms, of the spans called name by the
// input their operation ran on; a span no operation claimed stays out.
func (p *pass) spanMsByClass(name string) map[int][]float64 {
	classOf := map[int64]int{}
	for _, ss := range p.byKind {
		for _, s := range ss {
			classOf[s.op] = s.class
		}
	}
	out := map[int][]float64{}
	for _, s := range p.spans {
		if c, ok := classOf[s.Op]; ok && s.Name == name {
			out[c] = append(out[c], float64(s.End-s.Start)/1e6)
		}
	}
	return out
}

// p50 is the centre of the op times of one kind at the reference speed, in
// ms, and mbps the centre of raw float32 MB ÷ that time: the end-to-end
// figures. rawP50 is the centre of the times as the clock read them, which is
// what the per-layer metrics, taken from spans, can be set against.
func (p *pass) p50(kind string) float64 { return p.center(kind, sample.refMs) }

func (p *pass) mbps(kind string) float64 {
	return p.center(kind, func(s sample) float64 { return s.rawMB / (s.refMs() / 1e3) })
}

func (p *pass) rawP50(kind string) float64 {
	return p.center(kind, func(s sample) float64 { return s.ms })
}

func (p *pass) succeeded() int { return p.attempted - p.failed }

// runPass drives every client of w in a closed loop for d.
func runPass(ctx context.Context, w workload, d time.Duration, tr *tracer) *pass {
	w.attach(tr)
	n := w.clients()
	recs := make([]*recorder, n)
	var wg sync.WaitGroup
	start := time.Now()
	for c := 0; c < n; c++ {
		recs[c] = &recorder{tr: tr, nextID: int64(c+1) << 40}
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			r, k := recs[c], newCalibrator()
			r.calibrate(k)
			for last := time.Now(); time.Since(start) < d && ctx.Err() == nil; {
				w.op(ctx, c, r)
				if time.Since(last) >= calEvery {
					r.calibrate(k)
					last = time.Now()
				}
			}
			r.calibrate(k)
			r.applyMarks()
		}(c)
	}
	wg.Wait()
	p := &pass{wall: time.Since(start), byKind: map[string][]sample{}}
	w.quiesce()
	p.spans = tr.snapshot()
	byID := map[int64]int{}
	for i, s := range p.spans {
		byID[s.ID] = i
	}
	for _, r := range recs {
		for _, s := range r.samples {
			p.byKind[s.kind] = append(p.byKind[s.kind], s)
		}
		for _, m := range r.marks {
			p.calMs = append(p.calMs, m.ms)
			p.wall -= time.Duration(m.ms * 1e6 / float64(n))
		}
		for _, l := range r.links {
			if i, ok := byID[l.id]; ok {
				p.spans[i].Op, p.spans[i].Parent = l.op, l.parent
			}
		}
		p.attempted += r.attempted
		p.failed += r.failed
		p.mismatched += r.mismatched
		if p.firstErr == "" {
			p.firstErr = r.firstErr
		}
	}
	return p
}

// plan says how one workload is run inside a suite.
type plan struct {
	repeatSetup bool // set up several times: the run reports setup_s
	warm, timed time.Duration
	traced      time.Duration // 0: no traced pass
}

// A run that reports setup_s sets up at least setupRepsMin times and goes on,
// up to setupRepsMax, until setupSpend has gone: a set-up of a few hundredths
// of a second needs more repetitions for a steady median than one of seconds.
const (
	setupRepsMin = 5
	setupRepsMax = 40
	setupSpend   = 3 * time.Second
)

// result is everything one workload produced.
type result struct {
	name      string
	e2e       map[string]float64  // end-to-end metrics (setup_s included)
	setupRawS float64             // setup_s as the clock read it
	opsPerS   float64             // operations succeeded ÷ length of the timed pass
	layer     map[string]float64  // per-layer metrics owned by this workload
	tails     map[string]tailStat // per op kind, from the untraced pass when there is one
	phases    map[string]*pass    // "warmup", "timed", "traced"
}

type tailStat struct {
	Pct   float64 `json:"percentile"`
	Ms    float64 `json:"ms"`
	P50Ms float64 `json:"p50_ms"`
	N     int     `json:"n"`
}

// runWorkload sets w up (several times, reporting the median), warms it,
// measures it untraced for pl.timed and then with spans for pl.traced; a zero
// duration skips that pass.
func runWorkload(ctx context.Context, sp *spec, e env, pl plan) (*result, error) {
	w := sp.new()
	defer w.close()
	// Each set-up is bracketed by the calibration kernel like an op, but the
	// kernel runs after the collection that follows a set-up, not straight
	// after it: beside the collector's background workers it reads slow.
	var setupS, setupRawS, calMs []float64
	var spent time.Duration
	k := newCalibrator()
	for i := 0; i == 0 || pl.repeatSetup && i < setupRepsMax && (i < setupRepsMin || spent < setupSpend); i++ {
		w.close()
		runtime.GC()
		calMs = append(calMs, k.run())
		t0 := time.Now()
		if err := w.setup(e); err != nil {
			return nil, fmt.Errorf("%s: set-up: %w", sp.name, err)
		}
		dt := time.Since(t0)
		spent += dt
		setupRawS = append(setupRawS, dt.Seconds())
	}
	runtime.GC()
	calMs = append(calMs, k.run())
	for i, raw := range setupRawS {
		setupS = append(setupS, raw*calNominalMs/((calMs[i]+calMs[i+1])/2))
	}
	res := &result{name: sp.name, phases: map[string]*pass{}, tails: map[string]tailStat{}}
	res.phases["warmup"] = runPass(ctx, w, pl.warm, nil)
	if pl.timed > 0 {
		runtime.GC()
		timed := runPass(ctx, w, pl.timed, nil)
		res.phases["timed"] = timed
		res.e2e = w.native(timed)
		res.e2e["setup_s"] = median(setupS)
		res.setupRawS = median(setupRawS)
		res.opsPerS = float64(timed.succeeded()) / timed.wall.Seconds()
	}
	if pl.traced > 0 {
		runtime.GC()
		traced := runPass(ctx, w, pl.traced, newTracer())
		res.phases["traced"] = traced
		res.layer = w.layers(traced)
	}
	measured := res.phases["timed"]
	if measured == nil {
		measured = res.phases["traced"]
	}
	for kind := range measured.byKind {
		xs := measured.ms(kind)
		pct, v := tail(xs)
		res.tails[kind] = tailStat{Pct: pct, Ms: v, P50Ms: median(xs), N: len(xs)}
	}
	return res, nil
}

// scratchDir makes a fresh directory for a workload's files under base.
func scratchDir(base, prefix string) (string, error) {
	if err := os.MkdirAll(base, 0o755); err != nil {
		return "", err
	}
	return os.MkdirTemp(base, prefix)
}
