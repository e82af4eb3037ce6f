// Package serve exposes the tensor codec as a long-running HTTP service
// (DESIGN.md §12): the paper's serving scenario — remote KV-cache and weight
// shards moving between GPU nodes — needs the codec behind a network edge
// with admission control, deadlines and observability, not a one-shot CLI.
//
// Endpoints:
//
//	POST /v1/encode   raw float32 LE tensor body → .l265 container
//	POST /v1/decode   .l265 (core) or codec-level container → planes/tensors
//	GET  /healthz     liveness + admission state (503 while draining)
//	GET  /metricsz    JSON snapshot of the shared obs registry
//
// Architecture: every request passes the admission scheduler — a semaphore
// of max-inflight encode/decode jobs backed by a bounded wait queue. A full
// queue answers 429 with Retry-After instead of letting latency collapse;
// a draining server answers 503. Admitted requests run on the shared codec
// worker pool under the request context, so a hung-up client or a blown
// deadline stops burning CPU at the next CTU boundary (codec-level
// cooperative cancellation) and the taxonomy-typed failure maps onto a
// stable HTTP status (see status.go).
package serve

import (
	"context"
	"fmt"
	"net/http"
	"sync"
	"sync/atomic"

	"repro/internal/kv"
	"repro/internal/obs"
)

// DefaultMaxBodyBytes is the request body cap New applies when
// Config.MaxBodyBytes is zero — and the proxy's, which buffers the same
// bodies for retry replay.
const DefaultMaxBodyBytes = 1 << 30

// Config sizes the service. The zero value is usable: New applies the
// defaults.
type Config struct {
	// Workers sizes the codec's worker pool used by each admitted request.
	// 0 selects runtime.GOMAXPROCS(0) inside the codec.
	Workers int
	// MaxInflight bounds concurrently executing encode/decode jobs.
	// Default 4.
	MaxInflight int
	// MaxQueue bounds requests waiting for an inflight slot before the
	// server answers 429. Default 2×MaxInflight.
	MaxQueue int
	// MaxBodyBytes caps request bodies. Default DefaultMaxBodyBytes.
	MaxBodyBytes int64

	// KV mounts a prebuilt session table under /v1/kv/ (tests use this to
	// attach eviction hooks, clocks or tight budgets); nil builds one from
	// the KV* fields below with the server's registry and worker count.
	KV *kv.Table
	// KVBudgetBytes caps the kv tier's resident bytes. Default 256 MiB.
	KVBudgetBytes int64
	// KVFlushRows is the kv tier's chunk granularity in token rows.
	// Default 32.
	KVFlushRows int
	// KVQP is the kv tier's quantizer step. Default 12 (near-lossless —
	// cache rows feed attention directly, unlike weights fetched once).
	// New panics on a value above dct.MaxQP, as kv.New does.
	KVQP int
}

// withDefaults fills the zero fields.
func (c Config) withDefaults() Config {
	if c.MaxInflight <= 0 {
		c.MaxInflight = 4
	}
	if c.MaxQueue <= 0 {
		c.MaxQueue = 2 * c.MaxInflight
	}
	if c.MaxBodyBytes <= 0 {
		c.MaxBodyBytes = DefaultMaxBodyBytes
	}
	return c
}

// serveMetrics holds the pre-resolved service-level metric handles
// (taxonomy mirrors the codec layer's; all durations in nanoseconds):
//
//	serve.encode.requests / serve.decode.requests          counters
//	serve.encode.latency_ns / serve.decode.latency_ns      histograms
//	serve.queue_wait_ns                                    histogram
//	serve.rejected.{queue_full,draining,too_large}         counters
//	serve.errors.{corrupt,truncated,checksum,canceled}     counters
//	serve.responses.{2xx,4xx,5xx}                          counters
type serveMetrics struct {
	encReq, decReq                     *obs.Counter
	kvPutReq, kvGetReq                 *obs.Counter
	encLatency, decLatency, queueWait  *obs.Histogram
	kvLatency                          *obs.Histogram
	rejQueue, rejDraining, rejTooLarge *obs.Counter
	errCorrupt, errTruncated           *obs.Counter
	errChecksum, errCanceled           *obs.Counter
	resp2xx, resp4xx, resp5xx          *obs.Counter
}

func newServeMetrics(reg *obs.Registry) serveMetrics {
	return serveMetrics{
		encReq:       reg.Counter("serve.encode.requests"),
		decReq:       reg.Counter("serve.decode.requests"),
		kvPutReq:     reg.Counter("serve.kv.put.requests"),
		kvGetReq:     reg.Counter("serve.kv.get.requests"),
		kvLatency:    reg.Histogram("serve.kv.latency_ns"),
		encLatency:   reg.Histogram("serve.encode.latency_ns"),
		decLatency:   reg.Histogram("serve.decode.latency_ns"),
		queueWait:    reg.Histogram("serve.queue_wait_ns"),
		rejQueue:     reg.Counter("serve.rejected.queue_full"),
		rejDraining:  reg.Counter("serve.rejected.draining"),
		rejTooLarge:  reg.Counter("serve.rejected.too_large"),
		errCorrupt:   reg.Counter("serve.errors.corrupt"),
		errTruncated: reg.Counter("serve.errors.truncated"),
		errChecksum:  reg.Counter("serve.errors.checksum"),
		errCanceled:  reg.Counter("serve.errors.canceled"),
		resp2xx:      reg.Counter("serve.responses.2xx"),
		resp4xx:      reg.Counter("serve.responses.4xx"),
		resp5xx:      reg.Counter("serve.responses.5xx"),
	}
}

// countStatus rolls an HTTP status into its class counter.
func (m *serveMetrics) countStatus(status int) {
	switch {
	case status >= 500:
		m.resp5xx.Inc()
	case status >= 400:
		m.resp4xx.Inc()
	default:
		m.resp2xx.Inc()
	}
}

// Server is the codec service. Create with New, mount via Handler (an
// http.Handler usable under httptest or any mux), and stop with Drain.
type Server struct {
	cfg Config
	reg *obs.Registry
	m   serveMetrics
	adm *admission
	kv  *kv.Table
	mux *http.ServeMux
}

// New builds a Server from cfg (zero fields defaulted) with a registry of
// its own, which /metricsz serves.
func New(cfg Config) *Server {
	cfg = cfg.withDefaults()
	reg := obs.NewRegistry()
	kvTab := cfg.KV
	if kvTab == nil {
		kvTab = kv.New(kv.Config{
			BudgetBytes: cfg.KVBudgetBytes,
			FlushRows:   cfg.KVFlushRows,
			QP:          cfg.KVQP,
			Workers:     cfg.Workers,
			Metrics:     reg,
		})
	}
	s := &Server{
		cfg: cfg,
		reg: reg,
		m:   newServeMetrics(reg),
		adm: newAdmission(cfg.MaxInflight, cfg.MaxQueue),
		kv:  kvTab,
		mux: http.NewServeMux(),
	}
	s.mux.HandleFunc("/v1/encode", s.handleEncode)
	s.mux.HandleFunc("/v1/decode", s.handleDecode)
	s.mux.HandleFunc("/v1/kv/", s.handleKV)
	s.mux.HandleFunc("/healthz", s.handleHealthz)
	s.mux.HandleFunc("/metricsz", s.handleMetricsz)
	return s
}

// KV returns the session table mounted under /v1/kv/.
func (s *Server) KV() *kv.Table { return s.kv }

// Handler returns the service's http.Handler (the route mux). It is safe
// for concurrent use and for mounting under httptest.NewServer.
func (s *Server) Handler() http.Handler { return s.mux }

// Inflight reports currently executing jobs; Queued reports jobs waiting
// for an inflight slot.
func (s *Server) Inflight() int { return s.adm.inflightNow() }

// Queued reports requests waiting in the admission queue.
func (s *Server) Queued() int { return int(s.adm.queued.Load()) }

// Drain stops admitting work (new requests get 503) and blocks until every
// inflight request has finished or ctx expires. It is idempotent; the first
// error (ctx expiry) is returned.
func (s *Server) Drain(ctx context.Context) error {
	done := s.adm.startDrain()
	if done == nil {
		return nil
	}
	select {
	case <-done:
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}

// Draining reports whether Drain has been initiated.
func (s *Server) Draining() bool { return s.adm.isDraining() }

// admission is the request scheduler: a counting semaphore of inflight
// slots plus a bounded wait queue. It is deliberately channel-based so a
// queued request can abandon its wait the moment its context dies.
//
// Drain accounting is a mutex-guarded counter rather than a sync.WaitGroup:
// a request can register (Add from a zero counter) at any moment, including
// concurrently with a drain — a pairing the WaitGroup contract forbids and
// the race detector flags. The mutex makes register-vs-drain a total order:
// a request either registers before the drain flag is set (and the drain
// waits for it) or observes the flag and is rejected.
type admission struct {
	sem      chan struct{} // cap = MaxInflight; a token is one running job
	maxQueue int64
	queued   atomic.Int64

	mu        sync.Mutex
	draining  bool
	active    int           // requests registered via enter and not yet exited
	drainDone chan struct{} // non-nil while a drain waits; closed at active==0
}

func newAdmission(maxInflight, maxQueue int) *admission {
	return &admission{
		sem:      make(chan struct{}, maxInflight),
		maxQueue: int64(maxQueue),
	}
}

func (a *admission) inflightNow() int { return len(a.sem) }

// enter registers a request with the drain accounting; false means the
// server is draining and the request must be rejected. Every true return
// must be balanced by exactly one exit.
func (a *admission) enter() bool {
	a.mu.Lock()
	defer a.mu.Unlock()
	if a.draining {
		return false
	}
	a.active++
	return true
}

// exit unregisters a request and, if a drain is waiting and this was the
// last active request, releases it.
func (a *admission) exit() {
	a.mu.Lock()
	a.active--
	if a.active == 0 && a.drainDone != nil {
		close(a.drainDone)
		a.drainDone = nil
	}
	a.mu.Unlock()
}

// startDrain flips the draining flag and returns a channel that closes when
// the last active request exits, or nil when the server is already idle.
func (a *admission) startDrain() chan struct{} {
	a.mu.Lock()
	defer a.mu.Unlock()
	a.draining = true
	if a.active == 0 {
		return nil
	}
	if a.drainDone == nil {
		a.drainDone = make(chan struct{})
	}
	return a.drainDone
}

func (a *admission) isDraining() bool {
	a.mu.Lock()
	defer a.mu.Unlock()
	return a.draining
}

// admit blocks until the request holds an inflight slot, the queue
// overflows, the server drains, or ctx dies. On success it returns a
// release function that must be called exactly once; otherwise an error
// whose errorTable row is the rejection (errDraining, errQueueFull, or the
// context's own error).
func (a *admission) admit(ctx context.Context) (release func(), err error) {
	if !a.enter() {
		return nil, errDraining
	}
	release = func() {
		<-a.sem
		a.exit()
	}
	// expired rejects a request whose budget died before it could start
	// computing: the slot is handed straight back instead of dispatching a
	// job whose every ctx poll would fail — queue-expiry waste the pool never
	// sees.
	expired := func(err error) (func(), error) {
		<-a.sem
		a.exit()
		return nil, fmt.Errorf("serve: request expired before dispatch: %w", err)
	}
	// Fast path: a free slot right now.
	select {
	case a.sem <- struct{}{}:
		if err := ctx.Err(); err != nil {
			return expired(err)
		}
		return release, nil
	default:
	}
	// Queue path, bounded: beyond maxQueue waiters the request is bounced
	// with 429 + Retry-After so callers back off instead of piling up.
	if a.queued.Add(1) > a.maxQueue {
		a.queued.Add(-1)
		a.exit()
		return nil, errQueueFull
	}
	defer a.queued.Add(-1)
	select {
	case a.sem <- struct{}{}:
		// The slot arrived, but the deadline may have passed while this
		// request sat in the queue (a free slot and a dead context can become
		// ready together — select picks arbitrarily). Dispatching it would
		// burn pool time on work that is already 504.
		if err := ctx.Err(); err != nil {
			return expired(err)
		}
		return release, nil
	case <-ctx.Done():
		// The budget blew (or the client hung up) while still queued; map it
		// through the same taxonomy as a mid-encode cancellation so the
		// status is uniform wherever the deadline lands.
		a.exit()
		return nil, fmt.Errorf("serve: request abandoned while queued: %w", ctx.Err())
	}
}
