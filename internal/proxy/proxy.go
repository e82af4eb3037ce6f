// Package proxy is the fleet layer of the codec service (DESIGN.md §14):
// `llm265 proxy` shards /v1/encode, /v1/decode and /v1/kv/{session}
// traffic over N backend `llm265 serve` instances by consistent hashing
// (codec requests by content/key, kv requests by session for stateful
// affinity), and makes the fleet robust
// the way the container format is robust — by assuming every component
// fails and proving the failure behavior:
//
//   - Active health checking: each backend's /healthz is probed on an
//     interval with rise/fall thresholds, so a draining or dead backend
//     leaves rotation before clients feel it (serve's healthz flips to 503
//     with draining=true the moment Drain begins).
//   - Passive ejection: a per-backend circuit breaker (closed → open →
//     half-open, breaker.go) trips after consecutive request failures
//     without waiting for the next probe tick, and re-admits the backend
//     through a single half-open probe request.
//   - Retries: connect errors, resets, mid-body truncation, 500s and
//     503-drains are retried on the next backend in ring order with capped
//     exponential backoff + full jitter, honoring Retry-After hints
//     (serve.ParseRetryAfter). Responses are fully buffered before a byte
//     reaches the client, so a retry can never follow committed output.
//   - Hedging: decode requests fire a second attempt at a p99-derived delay
//     when the first is slow; the first success wins and the loser is
//     canceled through the codec's 3-level cooperative cancellation.
//   - Shed-before-queue: when every replica for a key is ejected the proxy
//     answers 503 + Retry-After immediately, mapped into the serve error
//     taxonomy, instead of queueing onto a dead fleet.
//
// The robustness claims are driven by internal/faultinject's network layer
// (deterministic scripted resets/truncations/stalls/spurious statuses) and
// a kill/restart subprocess soak; see proxy_test.go and soak_test.go.
package proxy

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"net/url"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/obs"
	"repro/internal/serve"
)

// Config sizes the proxy. Zero fields are defaulted by New. Besides
// Backends, every field is a seam its tests shorten, substitute or switch;
// what no caller varies is a constant below.
type Config struct {
	// Backends are the base URLs of the serve instances, e.g.
	// "http://127.0.0.1:8265". At least one is required.
	Backends []string

	// ProbeInterval is the active health-check period. Default 1s.
	ProbeInterval time.Duration
	// OpenTimeout is the open→half-open cool-down. Default 2s.
	OpenTimeout time.Duration

	// MaxRetries caps re-dispatches after the first attempt. 0 selects the
	// default of 2; a negative value disables retries entirely.
	MaxRetries int
	// RetryBase/RetryCap shape the capped exponential backoff with full
	// jitter between attempts; RetryCap also bounds how long a backend's
	// Retry-After hint is honored. Defaults 25ms / 1s.
	RetryBase, RetryCap time.Duration

	// HedgeDelay fixes the decode hedging delay; 0 derives it from the
	// observed upstream decode p99, clamped to [hedgeMin, hedgeMax].
	// DisableHedge turns hedging off.
	HedgeDelay   time.Duration
	DisableHedge bool

	// Transport performs upstream round trips — the injection point for
	// faultinject.FlakyTransport. nil means http.DefaultTransport.
	Transport http.RoundTripper
}

// The fixed parameters of the fleet machinery: ring points per backend, the
// bound on one /healthz probe, the consecutive probe successes (rise) that
// readmit a backend and failures (fall) that eject it, and the consecutive
// request failures that open a backend's circuit. Request bodies, buffered for
// retry replay, are capped at serve's default.
const (
	virtualNodes     = 128
	probeTimeout     = 500 * time.Millisecond
	rise, fall       = 2, 2
	breakerThreshold = 3
	maxBodyBytes     = serve.DefaultMaxBodyBytes
)

func (c Config) withDefaults() Config {
	if c.ProbeInterval <= 0 {
		c.ProbeInterval = time.Second
	}
	if c.OpenTimeout <= 0 {
		c.OpenTimeout = 2 * time.Second
	}
	if c.MaxRetries < 0 {
		c.MaxRetries = 0
	} else if c.MaxRetries == 0 {
		c.MaxRetries = 2
	}
	if c.RetryBase <= 0 {
		c.RetryBase = 25 * time.Millisecond
	}
	if c.RetryCap <= 0 {
		c.RetryCap = time.Second
	}
	if c.Transport == nil {
		c.Transport = http.DefaultTransport
	}
	return c
}

// Backend state gauge levels (proxy.backend.<name>.state).
const (
	stateProbeDown = 0 // active prober ejected it
	stateOpen      = 1 // circuit open
	stateHalfOpen  = 2 // circuit probing
	stateHealthy   = 3 // in rotation
)

// backend is one upstream serve instance plus its health machinery and
// pre-resolved metric handles.
type backend struct {
	idx  int
	name string // host:port — the metrics label
	base string // scheme://host:port, no trailing slash

	br           *breaker
	probeHealthy atomic.Bool
	// prober-goroutine-local rise/fall accounting.
	consecUp, consecDown int

	state    *obs.Gauge
	latency  *obs.Histogram
	requests *obs.Counter
	failures *obs.Counter
}

// updateState re-derives the state gauge from probe + breaker state.
func (b *backend) updateState() {
	switch {
	case !b.probeHealthy.Load():
		b.state.Set(stateProbeDown)
	case b.br.snapshotState() == breakerOpen:
		b.state.Set(stateOpen)
	case b.br.snapshotState() == breakerHalfOpen:
		b.state.Set(stateHalfOpen)
	default:
		b.state.Set(stateHealthy)
	}
}

// available reports whether the routing walk may consider this backend
// (probe-healthy and circuit not hard-open; half-open admits a trial).
func (b *backend) available() bool {
	return b.probeHealthy.Load() && b.br.snapshotState() != breakerOpen
}

// proxyMetrics holds the proxy-level metric handles:
//
//	proxy.encode.requests / proxy.decode.requests           counters
//	proxy.kv.requests                                       counter
//	proxy.encode.latency_ns / proxy.decode.latency_ns       histograms
//	proxy.kv.latency_ns                                     histogram
//	proxy.upstream.decode.latency_ns                        histogram (hedge p99 source)
//	proxy.retries / proxy.hedges / proxy.hedge_wins         counters
//	proxy.shed / proxy.errors.upstream                      counters
//	proxy.ejections.active / proxy.ejections.passive        counters
//	proxy.recoveries                                        counter
//	proxy.backend.<host:port>.{state,latency_ns,requests,failures}
type proxyMetrics struct {
	encReq, decReq         *obs.Counter
	kvReq                  *obs.Counter
	encLatency, decLatency *obs.Histogram
	kvLatency              *obs.Histogram
	decUpstream            *obs.Histogram
	retries, hedges        *obs.Counter
	hedgeWins, shed        *obs.Counter
	upstreamErrors         *obs.Counter
	ejActive, ejPassive    *obs.Counter
	recoveries             *obs.Counter
}

func newProxyMetrics(reg *obs.Registry) proxyMetrics {
	return proxyMetrics{
		encReq:         reg.Counter("proxy.encode.requests"),
		decReq:         reg.Counter("proxy.decode.requests"),
		kvReq:          reg.Counter("proxy.kv.requests"),
		encLatency:     reg.Histogram("proxy.encode.latency_ns"),
		decLatency:     reg.Histogram("proxy.decode.latency_ns"),
		kvLatency:      reg.Histogram("proxy.kv.latency_ns"),
		decUpstream:    reg.Histogram("proxy.upstream.decode.latency_ns"),
		retries:        reg.Counter("proxy.retries"),
		hedges:         reg.Counter("proxy.hedges"),
		hedgeWins:      reg.Counter("proxy.hedge_wins"),
		shed:           reg.Counter("proxy.shed"),
		upstreamErrors: reg.Counter("proxy.errors.upstream"),
		ejActive:       reg.Counter("proxy.ejections.active"),
		ejPassive:      reg.Counter("proxy.ejections.passive"),
		recoveries:     reg.Counter("proxy.recoveries"),
	}
}

// Proxy is the sharding reverse proxy. Create with New, start the health
// probers with Start, mount Handler, stop with Close.
type Proxy struct {
	cfg      Config
	reg      *obs.Registry
	m        proxyMetrics
	ring     *ring
	backends []*backend
	mux      *http.ServeMux

	stopCh   chan struct{}
	stopOnce sync.Once
	probeWG  sync.WaitGroup
	started  atomic.Bool
}

// New validates cfg and builds the proxy (probers not yet running) with a
// registry of its own, which /metricsz serves.
func New(cfg Config) (*Proxy, error) {
	cfg = cfg.withDefaults()
	if len(cfg.Backends) == 0 {
		return nil, fmt.Errorf("proxy: no backends configured")
	}
	reg := obs.NewRegistry()
	p := &Proxy{
		cfg:    cfg,
		reg:    reg,
		m:      newProxyMetrics(reg),
		mux:    http.NewServeMux(),
		stopCh: make(chan struct{}),
	}
	names := make([]string, len(cfg.Backends))
	for i, raw := range cfg.Backends {
		u, err := url.Parse(raw)
		if err != nil || u.Scheme == "" || u.Host == "" {
			return nil, fmt.Errorf("proxy: backend %q is not an absolute URL", raw)
		}
		b := &backend{
			idx:      i,
			name:     u.Host,
			base:     u.Scheme + "://" + u.Host,
			br:       newBreaker(breakerThreshold, cfg.OpenTimeout),
			state:    reg.Gauge("proxy.backend." + u.Host + ".state"),
			latency:  reg.Histogram("proxy.backend." + u.Host + ".latency_ns"),
			requests: reg.Counter("proxy.backend." + u.Host + ".requests"),
			failures: reg.Counter("proxy.backend." + u.Host + ".failures"),
		}
		b.probeHealthy.Store(true) // optimistic until the prober says otherwise
		b.updateState()
		names[i] = u.Host
		p.backends = append(p.backends, b)
	}
	p.ring = newRing(names, virtualNodes)
	p.mux.HandleFunc("/v1/encode", p.handleCodec)
	p.mux.HandleFunc("/v1/decode", p.handleCodec)
	p.mux.HandleFunc("/v1/kv/", p.handleKV)
	p.mux.HandleFunc("/healthz", p.handleHealthz)
	p.mux.HandleFunc("/metricsz", p.handleMetricsz)
	return p, nil
}

// Handler returns the proxy's http.Handler.
func (p *Proxy) Handler() http.Handler { return p.mux }

// Start launches the active health probers. Idempotent.
func (p *Proxy) Start() {
	if !p.started.CompareAndSwap(false, true) {
		return
	}
	for _, b := range p.backends {
		p.probeWG.Add(1)
		go p.probeLoop(b)
	}
}

// Close stops the probers and waits for them. Idempotent.
func (p *Proxy) Close() {
	p.stopOnce.Do(func() { close(p.stopCh) })
	p.probeWG.Wait()
}

// ---------------------------------------------------------------- probing

// probeLoop drives one backend's active health checks until Close.
func (p *Proxy) probeLoop(b *backend) {
	defer p.probeWG.Done()
	ticker := time.NewTicker(p.cfg.ProbeInterval)
	defer ticker.Stop()
	for {
		p.probeOnce(b)
		select {
		case <-p.stopCh:
			return
		case <-ticker.C:
		}
	}
}

// probeOnce runs one /healthz probe and applies the rise/fall thresholds.
// Any non-200 — including serve's 503 draining:true — counts as down, so a
// draining backend is ejected while its listener still answers.
func (p *Proxy) probeOnce(b *backend) {
	ctx, cancel := context.WithTimeout(context.Background(), probeTimeout)
	defer cancel()
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, b.base+"/healthz", nil)
	up := false
	if err == nil {
		resp, rerr := p.cfg.Transport.RoundTrip(req)
		if rerr == nil {
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			up = resp.StatusCode == http.StatusOK
		}
	}
	if up {
		b.consecUp++
		b.consecDown = 0
		if !b.probeHealthy.Load() && b.consecUp >= rise {
			b.probeHealthy.Store(true)
			p.m.recoveries.Inc()
		}
	} else {
		b.consecDown++
		b.consecUp = 0
		if b.probeHealthy.Load() && b.consecDown >= fall {
			b.probeHealthy.Store(false)
			p.m.ejActive.Inc()
		}
	}
	b.updateState()
}

// ---------------------------------------------------------------- routing

// pick walks key's ring sequence and returns the first backend that is
// probe-healthy, not in tried, and admitted by its breaker (a half-open
// circuit admits exactly one trial). nil means every replica is out — the
// shed case.
func (p *Proxy) pick(seq []int, tried map[int]bool) *backend {
	for _, idx := range seq {
		if tried[idx] {
			continue
		}
		b := p.backends[idx]
		if !b.probeHealthy.Load() {
			continue
		}
		if !b.br.allow() {
			continue
		}
		b.updateState()
		return b
	}
	return nil
}

// upshot is one upstream attempt's outcome, response fully buffered.
type upshot struct {
	b       *backend
	status  int
	header  http.Header
	body    []byte
	err     error // transport/read error; status et al. invalid then
	elapsed time.Duration
	hedged  bool // this was the hedge attempt
}

// retryable reports whether the outcome may be re-dispatched: transport
// errors (connect refused, resets, truncation — the response never reached
// the client, so replay is safe), 5xx backend failures and 429/503
// admission bounces. Everything else — 2xx, 206, the 4xx taxonomy, 504 —
// is the backend's answer and is forwarded.
func (o *upshot) retryable() bool {
	if o.err != nil {
		return true
	}
	switch o.status {
	case http.StatusInternalServerError, http.StatusBadGateway,
		http.StatusServiceUnavailable, http.StatusTooManyRequests:
		return true
	}
	return false
}

// backendFault reports whether the outcome counts against the circuit
// breaker: transport errors and 5xx are faults; 429 means the backend is
// alive but full — an admission signal, not a fault.
func (o *upshot) backendFault() bool {
	if o.err != nil {
		return true
	}
	return o.status >= 500 && o.status != http.StatusGatewayTimeout
}

// forwardOnce replays the buffered request against one backend and buffers
// the whole response. No byte reaches the client before the read completes,
// which is what makes retry-after-failure unconditionally safe.
func (p *Proxy) forwardOnce(ctx context.Context, b *backend, r *http.Request, body []byte, isDecode, hedged bool) *upshot {
	u := b.base + r.URL.Path
	if r.URL.RawQuery != "" {
		u += "?" + r.URL.RawQuery
	}
	req, err := http.NewRequestWithContext(ctx, r.Method, u, bytes.NewReader(body))
	if err != nil {
		return &upshot{b: b, err: err, hedged: hedged}
	}
	req.Header.Set("Content-Type", r.Header.Get("Content-Type"))
	req.ContentLength = int64(len(body))

	b.requests.Inc()
	start := time.Now()
	resp, err := p.cfg.Transport.RoundTrip(req)
	if err != nil {
		return &upshot{b: b, err: err, hedged: hedged, elapsed: time.Since(start)}
	}
	respBody, err := serve.ReadBody(resp.Body, resp.ContentLength, maxBodyBytes)
	resp.Body.Close()
	elapsed := time.Since(start)
	if err != nil {
		// Mid-body truncation: the prefix is discarded, the attempt failed.
		return &upshot{b: b, err: err, hedged: hedged, elapsed: elapsed}
	}
	b.latency.Observe(elapsed.Nanoseconds())
	if isDecode {
		p.m.decUpstream.Observe(elapsed.Nanoseconds())
	}
	return &upshot{
		b: b, status: resp.StatusCode, header: resp.Header,
		body: respBody, elapsed: elapsed, hedged: hedged,
	}
}

// settle applies an attempt outcome to the backend's breaker and counters.
// A canceled attempt — a hedge loser withdrawn by its winning sibling, or a
// client that hung up — is neutral: the half-open probe slot is released
// without judging the backend, because the backend never got to answer.
// (Deadline expiry is NOT neutral: that is the stalled-backend shape and
// counts as a fault.)
func (p *Proxy) settle(o *upshot) {
	if o.err != nil && isCanceled(o.err) {
		o.b.br.abort()
		o.b.updateState()
		return
	}
	if o.backendFault() {
		o.b.failures.Inc()
		if o.b.br.failure() {
			p.m.ejPassive.Inc()
		}
	} else if o.err == nil {
		if o.b.br.success() {
			p.m.recoveries.Inc() // half-open probe succeeded: backend rejoined
		}
	}
	o.b.updateState()
}

// The bounds of a derived hedge delay.
const (
	hedgeMin = 5 * time.Millisecond
	hedgeMax = 500 * time.Millisecond
)

// hedgeDelay picks the decode hedging delay: the configured override, or
// the observed upstream decode p99 clamped to [hedgeMin, hedgeMax]. With
// too little signal (cold start) it hedges conservatively at hedgeMax.
func (p *Proxy) hedgeDelay() time.Duration {
	if p.cfg.HedgeDelay > 0 {
		return p.cfg.HedgeDelay
	}
	st := p.m.decUpstream.Stats()
	if st.Count < 16 {
		return hedgeMax
	}
	return min(max(time.Duration(st.P99), hedgeMin), hedgeMax)
}

// attemptRound runs one logical attempt: the primary upstream call and, for
// decode requests, a hedged second call at the hedge delay. It returns the
// winning forwardable outcome, or nil with the failures that occurred.
func (p *Proxy) attemptRound(r *http.Request, body []byte, primary *backend, seq []int, tried map[int]bool, isDecode bool) (*upshot, []*upshot) {
	reqCtx := r.Context()
	hedge := isDecode && !p.cfg.DisableHedge && len(p.backends) > 1

	type slot struct {
		cancel context.CancelFunc
	}
	results := make(chan *upshot, 2)
	var cancels []slot
	launch := func(b *backend, hedged bool) {
		actx, cancel := context.WithCancel(reqCtx)
		cancels = append(cancels, slot{cancel})
		go func() {
			results <- p.forwardOnce(actx, b, r, body, isDecode, hedged)
		}()
	}
	defer func() {
		for _, s := range cancels {
			s.cancel()
		}
	}()

	launch(primary, false)
	outstanding := 1
	var timerC <-chan time.Time
	var timer *time.Timer
	if hedge {
		timer = time.NewTimer(p.hedgeDelay())
		defer timer.Stop()
		timerC = timer.C
	}

	var failures []*upshot
	for outstanding > 0 {
		select {
		case o := <-results:
			outstanding--
			p.settle(o)
			if o.err == nil && !o.retryable() {
				if o.hedged {
					p.m.hedgeWins.Inc()
				}
				// Cancel the loser; drain its outcome off-path so a
				// half-open probe slot can never be stranded.
				if outstanding > 0 {
					for _, s := range cancels {
						s.cancel()
					}
					go func(n int) {
						for i := 0; i < n; i++ {
							p.settle(<-results)
						}
					}(outstanding)
				}
				return o, failures
			}
			failures = append(failures, o)
		case <-timerC:
			timerC = nil
			// Fire the hedge at a different backend than the primary (and
			// anything already tried); if none is available, no hedge.
			hTried := map[int]bool{primary.idx: true}
			for k := range tried {
				hTried[k] = true
			}
			if hb := p.pick(seq, hTried); hb != nil {
				p.m.hedges.Inc()
				launch(hb, true)
				outstanding++
			}
		case <-reqCtx.Done():
			// The client is gone or its deadline blew: cancel everything and
			// drain the outcomes (settle treats them as canceled-neutral or
			// real faults as appropriate).
			for _, s := range cancels {
				s.cancel()
			}
			go func(n int) {
				for i := 0; i < n; i++ {
					p.settle(<-results)
				}
			}(outstanding)
			return nil, append(failures, &upshot{b: primary, err: reqCtx.Err()})
		}
	}
	return nil, failures
}

// requestKey derives the consistent-hash routing key: an explicit ?key=
// wins (stable tenant/session/model routing); otherwise the content hash of
// the body, so identical payloads land on the same backend and its caches.
func requestKey(r *http.Request, body []byte) string {
	if k := r.URL.Query().Get("key"); k != "" {
		return k
	}
	sum := sha256.Sum256(body)
	return hex.EncodeToString(sum[:8])
}

// backoff computes the capped-exponential full-jitter wait before retry
// attempt n (1-based): uniform in [0, min(RetryCap, RetryBase·2^(n-1))].
func (p *Proxy) backoff(n int) time.Duration {
	ceil := p.cfg.RetryBase << uint(n-1)
	if ceil > p.cfg.RetryCap || ceil <= 0 {
		ceil = p.cfg.RetryCap
	}
	return time.Duration(rand.Int63n(int64(ceil) + 1))
}

// handleCodec routes one /v1/encode or /v1/decode request.
func (p *Proxy) handleCodec(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		p.writeJSONError(w, http.StatusMethodNotAllowed, "proxy: POST only", "bad_request")
		return
	}
	isDecode := r.URL.Path == "/v1/decode"
	if isDecode {
		p.m.decReq.Inc()
	} else {
		p.m.encReq.Inc()
	}
	start := time.Now()
	defer func() {
		h := p.m.encLatency
		if isDecode {
			h = p.m.decLatency
		}
		h.Observe(time.Since(start).Nanoseconds())
	}()

	body, ok := p.readBody(w, r)
	if !ok {
		return
	}
	p.dispatch(w, r, body, requestKey(r, body), isDecode)
}

// handleKV routes one /v1/kv/{session} request. The routing key is the
// session path segment, so every request for a session lands on the same
// ring replica — the only backend holding that session's incremental
// encoder state. KV requests are never hedged: a hedge raced against a
// replica that does not hold the session answers 404, a legitimate
// terminal status that would beat the owner's slower 200/206 and turn a
// resident session into a phantom miss. Retries still fail over on
// transport errors and 5xx; the replacement replica answers 404 (or 409
// for positioned appends), which clients treat as a cache miss and
// rebuild — the standard cache-tier contract.
func (p *Proxy) handleKV(w http.ResponseWriter, r *http.Request) {
	switch r.Method {
	case http.MethodPut, http.MethodGet, http.MethodDelete:
	default:
		p.writeJSONError(w, http.StatusMethodNotAllowed, "proxy: PUT, GET or DELETE only", "bad_request")
		return
	}
	session := strings.TrimPrefix(r.URL.Path, "/v1/kv/")
	if session == "" || strings.Contains(session, "/") {
		p.writeJSONError(w, http.StatusNotFound, "proxy: kv path is /v1/kv/{session}", "not_found")
		return
	}
	p.m.kvReq.Inc()
	start := time.Now()
	defer func() { p.m.kvLatency.Observe(time.Since(start).Nanoseconds()) }()

	body, ok := p.readBody(w, r)
	if !ok {
		return
	}
	p.dispatch(w, r, body, "kv/"+session, false)
}

// readBody buffers the whole request body under maxBodyBytes, writing the
// error response itself when the read fails.
func (p *Proxy) readBody(w http.ResponseWriter, r *http.Request) ([]byte, bool) {
	body, err := serve.ReadBody(http.MaxBytesReader(w, r.Body, maxBodyBytes), r.ContentLength, maxBodyBytes)
	if err != nil {
		status, class := http.StatusBadRequest, "bad_request"
		if _, ok := err.(*http.MaxBytesError); ok {
			status, class = http.StatusRequestEntityTooLarge, "too_large"
		}
		p.writeJSONError(w, status, "proxy: reading body: "+err.Error(), class)
		return nil, false
	}
	return body, true
}

// dispatch runs the shared routing loop for one buffered request: walk the
// key's ring sequence preferring untried backends, run attempt rounds
// (hedged only for decode), honor Retry-After hints between retries, and
// answer a typed 502 when every attempt is spent.
func (p *Proxy) dispatch(w http.ResponseWriter, r *http.Request, body []byte, key string, isDecode bool) {
	seq := p.ring.sequence(key)
	tried := make(map[int]bool, len(seq))
	var lastHint time.Duration
	var haveHint bool
	var lastFailure *upshot

	for attempt := 0; attempt <= p.cfg.MaxRetries; attempt++ {
		if attempt > 0 {
			p.m.retries.Inc()
			wait := p.backoff(attempt)
			if haveHint {
				wait = min(lastHint, p.cfg.RetryCap)
				haveHint = false
			}
			if !sleepCtx(r.Context(), wait) {
				p.writeAbandoned(w, r.Context().Err(), "between retries")
				return
			}
		}

		primary := p.pick(seq, tried)
		if primary == nil && len(tried) > 0 {
			// Every backend has been tried once; prefer-untried is exhausted
			// but a retry may still go back to an available backend (the
			// single-backend topology depends on this).
			primary = p.pick(seq, nil)
		}
		if primary == nil {
			// Every replica for this key is out of rotation: shed now with a
			// hint, rather than queue on a fleet that cannot answer.
			p.m.shed.Inc()
			w.Header().Set("Retry-After", shedRetryAfter(p.cfg.OpenTimeout))
			p.writeJSONError(w, http.StatusServiceUnavailable,
				"proxy: no backend available for key (all replicas ejected or open-circuit)", "rejected")
			return
		}

		win, failures := p.attemptRound(r, body, primary, seq, tried, isDecode)
		if win != nil {
			p.relay(w, win, attempt)
			return
		}
		for _, f := range failures {
			if f.err == nil || !isCanceled(f.err) {
				lastFailure = f
			}
			if f.b != nil && (f.err == nil || !isCanceled(f.err)) {
				tried[f.b.idx] = true
			}
			if f.err == nil && f.header != nil {
				if d, ok := serve.ParseRetryAfter(f.header.Get("Retry-After"), time.Now()); ok {
					lastHint, haveHint = d, true
				}
			}
		}
		if r.Context().Err() != nil {
			p.writeAbandoned(w, r.Context().Err(), "mid-attempt")
			return
		}
	}

	// Retries exhausted: a typed upstream failure, never a half-written 200.
	p.m.upstreamErrors.Inc()
	detail := "exhausted retries"
	if lastFailure != nil {
		if lastFailure.err != nil {
			detail = lastFailure.err.Error()
		} else {
			detail = fmt.Sprintf("backend %s answered %d", lastFailure.b.name, lastFailure.status)
		}
	}
	p.writeJSONError(w, http.StatusBadGateway,
		"proxy: upstream failed after "+strconv.Itoa(p.cfg.MaxRetries+1)+" attempts: "+detail, "upstream")
}

// relay copies a buffered upstream response to the client — the only place
// bytes are committed, strictly after the upstream read completed. The body is
// held whole, so its length is declared: the upstream's own Content-Length is
// hop-by-hop framing and is dropped with the rest, and without one net/http
// chunks every reply past its 2 KB buffer.
func (p *Proxy) relay(w http.ResponseWriter, o *upshot, attempts int) {
	for k, vs := range o.header {
		switch k {
		case "Connection", "Transfer-Encoding", "Content-Length", "Keep-Alive":
			continue
		}
		for _, v := range vs {
			w.Header().Add(k, v)
		}
	}
	w.Header().Set("X-Llm265-Backend", o.b.name)
	w.Header().Set("X-Llm265-Attempts", strconv.Itoa(attempts+1))
	w.Header().Set("Content-Length", strconv.Itoa(len(o.body)))
	w.WriteHeader(o.status)
	w.Write(o.body)
}

// handleHealthz reports fleet health: 200 while at least one backend is in
// rotation, 503 + Retry-After otherwise, with per-backend detail.
func (p *Proxy) handleHealthz(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		p.writeJSONError(w, http.StatusMethodNotAllowed, "proxy: GET only", "bad_request")
		return
	}
	type backendHealth struct {
		Name         string `json:"name"`
		ProbeHealthy bool   `json:"probe_healthy"`
		Circuit      string `json:"circuit"`
		State        int64  `json:"state"`
	}
	var detail []backendHealth
	avail := 0
	for _, b := range p.backends {
		if b.available() {
			avail++
		}
		detail = append(detail, backendHealth{
			Name:         b.name,
			ProbeHealthy: b.probeHealthy.Load(),
			Circuit:      b.br.snapshotState().String(),
			State:        b.state.Value(),
		})
	}
	status := http.StatusOK
	state := "ok"
	if avail == 0 {
		status = http.StatusServiceUnavailable
		state = "no_backends"
		w.Header().Set("Retry-After", shedRetryAfter(p.cfg.OpenTimeout))
	}
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	json.NewEncoder(w).Encode(map[string]any{
		"status":    state,
		"available": avail,
		"backends":  detail,
	})
}

// handleMetricsz serves the registry snapshot.
func (p *Proxy) handleMetricsz(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		p.writeJSONError(w, http.StatusMethodNotAllowed, "proxy: GET only", "bad_request")
		return
	}
	w.Header().Set("Content-Type", "application/json")
	p.reg.WriteJSON(w)
}

// writeJSONError writes serve's error envelope, so proxy-originated errors
// and relayed backend errors look the same to clients.
func (p *Proxy) writeJSONError(w http.ResponseWriter, status int, msg, class string) {
	serve.WriteError(w, status, msg, class)
}

// writeAbandoned answers a request whose own context ended (err is its
// ctx.Err()) with the status and class serve's error table gives it.
func (p *Proxy) writeAbandoned(w http.ResponseWriter, err error, when string) {
	status, class := serve.Classify(err)
	p.writeJSONError(w, status, "proxy: request abandoned "+when+": "+err.Error(), class)
}

// ------------------------------------------------------------------ small helpers

// sleepCtx sleeps d or until ctx dies; false means ctx died first.
func sleepCtx(ctx context.Context, d time.Duration) bool {
	if d <= 0 {
		return ctx.Err() == nil
	}
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-t.C:
		return true
	case <-ctx.Done():
		return false
	}
}

// isCanceled reports a cancellation-shaped attempt error. Deliberately not
// DeadlineExceeded: a request deadline that expires mid-attempt means the
// backend stalled and must count as a fault, while Canceled means the proxy
// itself withdrew the attempt — a hedge loser — or the client hung up.
func isCanceled(err error) bool {
	return errors.Is(err, context.Canceled)
}

// shedRetryAfter renders the Retry-After hint for shed responses: the
// breaker cool-down rounded up to whole seconds, at least 1.
func shedRetryAfter(openTimeout time.Duration) string {
	secs := int(openTimeout / time.Second)
	if openTimeout%time.Second != 0 || secs < 1 {
		secs++
	}
	if secs < 1 {
		secs = 1
	}
	return strconv.Itoa(secs)
}
