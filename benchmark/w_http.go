package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// spanHeader carries the serve-middleware span id back to the client. It is a
// response header because the proxy relays upstream response headers but
// forwards only Content-Type on the request.
const spanHeader = "X-Bench-Span"

const (
	replicaCount = 2
	kvBudget     = 64 << 20 // far above the working set: no eviction
	kvFlushRows  = 32
)

// topology is nproc keep-alive clients → proxy (default config, hedging on)
// → two in-process serve replicas, all on loopback httptest servers.
type topology struct {
	replicas []*serveServer
	backends []*httptest.Server
	px       *proxyProxy
	front    *httptest.Server
	conns    []*http.Client // one keep-alive client per closed-loop client

	tr     atomic.Pointer[tracer] // the pass's tracer, read by the middleware
	active atomic.Int64           // requests inside a traced middleware
	spanID atomic.Int64
}

func newTopology(nproc int) (*topology, error) {
	t := &topology{}
	var urls []string
	for i := 0; i < replicaCount; i++ {
		srv := serveNew(serveConfig{
			Workers: 1, MaxInflight: nproc,
			KVQP: kvQP, KVFlushRows: kvFlushRows, KVBudgetBytes: kvBudget,
		})
		ts := httptest.NewServer(t.middleware(srv.Handler()))
		t.replicas = append(t.replicas, srv)
		t.backends = append(t.backends, ts)
		urls = append(urls, ts.URL)
	}
	px, err := proxyNew(proxyConfig{Backends: urls})
	if err != nil {
		t.close()
		return nil, err
	}
	px.Start()
	t.px = px
	t.front = httptest.NewServer(px.Handler())
	for c := 0; c < nproc; c++ {
		t.conns = append(t.conns, &http.Client{Transport: &http.Transport{MaxIdleConnsPerHost: 2}})
	}
	return t, nil
}

func (t *topology) close() {
	for _, c := range t.conns {
		c.CloseIdleConnections()
	}
	if t.front != nil {
		t.front.Close()
	}
	if t.px != nil {
		t.px.Close()
	}
	for _, ts := range t.backends {
		ts.Close()
	}
}

// middleware is the timing wrapper around Server.Handler(): in a traced pass
// it records one span per /v1 request and names it in the response header.
func (t *topology) middleware(next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		tr := t.tr.Load()
		if tr == nil || !strings.HasPrefix(r.URL.Path, "/v1/") {
			next.ServeHTTP(w, r)
			return
		}
		t.active.Add(1)
		defer t.active.Add(-1)
		id := int64(1)<<56 + t.spanID.Add(1)
		w.Header().Set(spanHeader, strconv.FormatInt(id, 10))
		s := tr.begin(id, 0, 0, "serve."+requestKind(r))
		next.ServeHTTP(w, r)
		s.end()
	})
}

func requestKind(r *http.Request) string {
	switch {
	case r.URL.Path == "/v1/encode":
		return "encode"
	case r.URL.Path == "/v1/decode":
		return "decode"
	case r.Method == http.MethodPut:
		return "kv_put"
	case r.Method == http.MethodGet:
		return "kv_get"
	}
	return "kv_delete"
}

// attach and quiesce make topology the HTTP half of the workload interface.
func (t *topology) attach(tr *tracer) { t.tr.Store(tr) }

// quiesce waits for handlers still unwinding after their response was read
// (a response reaches the client before the handler returns) and for hedge
// losers, so every serve span is recorded before the pass is read.
func (t *topology) quiesce() {
	for deadline := time.Now().Add(time.Second); t.active.Load() > 0 && time.Now().Before(deadline); {
		time.Sleep(time.Millisecond)
	}
}

// request sends one request through the proxy as client c inside span name,
// and links the serve span the response names under that span.
func (t *topology) request(ctx context.Context, c int, o liveOp, name, method, path string, body []byte) (int, []byte, error) {
	s := o.span(name)
	defer s.end()
	req, err := http.NewRequestWithContext(ctx, method, t.front.URL+path, bytes.NewReader(body))
	if err != nil {
		return 0, nil, err
	}
	req.Header.Set("Content-Type", "application/octet-stream")
	resp, err := t.conns[c].Do(req)
	if err != nil {
		return 0, nil, err
	}
	defer resp.Body.Close()
	out, err := io.ReadAll(resp.Body)
	if err != nil {
		return 0, nil, err
	}
	if id, perr := strconv.ParseInt(resp.Header.Get(spanHeader), 10, 64); perr == nil {
		o.r.links = append(o.r.links, link{id: id, op: o.id, parent: s.id})
	}
	return resp.StatusCode, out, nil
}

// metricsz reads one /metricsz snapshot. Names that are missing stay missing:
// the caller copies a figure only when it is present.
type metricsz struct {
	Counters   map[string]int64 `json:"counters"`
	Histograms map[string]struct {
		P50 int64 `json:"p50"`
	} `json:"histograms"`
}

func getMetricsz(base string) (metricsz, error) {
	var m metricsz
	resp, err := http.Get(base + "/metricsz")
	if err != nil {
		return m, err
	}
	defer resp.Body.Close()
	return m, json.NewDecoder(resp.Body).Decode(&m)
}

// ------------------------------------------------------------- serve_codec

const (
	serveRows, serveCols = 128, 256
	serveBodies          = 32 // bodies, and their containers: the pool both kinds of request draw from
	serveEncodeShare     = 5  // every fifth request of a client is an encode
)

var serveMB = float64(serveRows*serveCols*4) / 1e6

// serveCodec is a client of `llm265 proxy` → `serve`: it pays per-request
// latency for encode and decode bodies small enough that the fixed cost per
// request — routing hash, buffering, admission, marshal — is a visible share.
type serveCodec struct {
	*topology
	nproc      int
	bodies     [][]byte // raw float32 LE tensors
	containers [][]byte // their reference .l265 encodes
	decoded    [][]byte // what serve answers for each container
	rngs       []*rand.Rand
	sent       []int // requests sent so far, per client

	bits, relMSE float64
}

func newServeCodec() workload { return &serveCodec{} }

func (w *serveCodec) clients() int { return w.nproc }

func (w *serveCodec) close() {
	if w.topology != nil {
		w.topology.close()
		w.topology = nil
	}
}

// serveOptions is what serve builds from "?qp=12&checksum=1" on a replica
// configured with Workers: 1.
func serveOptions() coreOptions {
	o := coreDefaultOptions()
	o.Checksum = true
	o.Workers = 1
	return o
}

func (w *serveCodec) setup(e env) error {
	*w = serveCodec{nproc: e.nproc}
	tensors := make([][]float32, serveBodies)
	for i := range tensors {
		rng := rngFor(seedFor(e.seed, i, serveBodies), fmt.Sprintf("serve_codec/%d", i))
		if i%2 == 0 {
			tensors[i] = genWeights(rng, serveRows, serveCols)
		} else {
			tensors[i] = genActivations(rng, serveRows, serveCols)
		}
	}
	w.bodies = make([][]byte, serveBodies)
	w.containers = make([][]byte, serveBodies)
	w.decoded = make([][]byte, serveBodies)
	bits := make([]float64, serveBodies)
	dists := make([]distortion, serveBodies)
	errs := make([]error, serveBodies)
	opts := serveOptions()
	var wg sync.WaitGroup
	next := atomic.Int64{}
	for g := 0; g < e.nproc; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := int(next.Add(1)) - 1; i < serveBodies; i = int(next.Add(1)) - 1 {
				t := coreFromSlice(serveRows, serveCols, tensors[i])
				enc, err := opts.EncodeStackCtx(context.Background(), []*coreTensor{t}, serveQP)
				if err != nil {
					errs[i] = err
					continue
				}
				dec, err := opts.DecodeStackCtx(context.Background(), enc)
				if err != nil {
					errs[i] = err
					continue
				}
				w.bodies[i], w.containers[i], w.decoded[i] = f32Bytes(tensors[i]), enc.Marshal(), f32Bytes(dec[0].Data)
				bits[i] = enc.BitsPerValue()
				dists[i].add(tensors[i], dec[0].Data)
			}
		}()
	}
	wg.Wait()
	var dist distortion
	for i := 0; i < serveBodies; i++ {
		if errs[i] != nil {
			return errs[i]
		}
		if i < serveBodies/2 { // the anchor half: eight weights bodies, eight activations bodies
			w.bits += bits[i] / (serveBodies / 2)
			dist.merge(dists[i])
		}
	}
	w.relMSE = dist.rel()
	for c := 0; c < e.nproc; c++ {
		w.rngs = append(w.rngs, rngFor(e.seed, fmt.Sprintf("serve_codec/client%d", c)))
	}
	w.sent = make([]int, e.nproc)
	var err error
	w.topology, err = newTopology(e.nproc)
	return err
}

var serveEncodePath = fmt.Sprintf("/v1/encode?rows=%d&cols=%d&qp=%d&checksum=1", serveRows, serveCols, serveQP)

func (w *serveCodec) op(ctx context.Context, c int, r *recorder) {
	// Which body is seeded; which requests are encodes is not — a drawn mix
	// would move the request rate by the luck of the encode share alone.
	kind, path := "decode", "/v1/decode"
	if w.sent[c]%serveEncodeShare == 0 {
		kind, path = "encode", serveEncodePath
	}
	w.sent[c]++
	i := w.rngs[c].Intn(serveBodies)
	send, want := w.containers[i], w.decoded[i]
	if kind == "encode" {
		send, want = w.bodies[i], w.containers[i]
	}
	o := r.begin(kind, i)
	t0 := time.Now()
	status, got, err := w.request(ctx, c, o, "proxy."+kind, http.MethodPost, path, send)
	dt := time.Since(t0)
	if err != nil || status != http.StatusOK {
		o.done(0, 0, opFailed, fmt.Sprintf("status %d err %v", status, err))
		return
	}
	s := o.span("client.verify")
	same := bytes.Equal(got, want)
	s.end()
	if !same {
		o.done(dt, 0, opMismatch, fmt.Sprintf("%s body %d differs from the reference", kind, i))
		return
	}
	o.done(dt, serveMB, opOK, "")
}

func (w *serveCodec) native(p *pass) map[string]float64 {
	return map[string]float64{
		"raw_mbps":       p.mbps("encode"),
		"op_p50_ms":      p.p50("decode"),
		"bits_per_value": w.bits,
		"rel_mse":        w.relMSE,
	}
}

func (w *serveCodec) layers(p *pass) map[string]float64 {
	out := map[string]float64{}
	// serve's self time is its handler span minus the core span on the same
	// body with serve's options — what the handler span would cost with no
	// handler around it — per body, averaged over the bodies the pass sent.
	opts := serveOptions()
	coreMs := map[string]func(i int) (float64, error){
		"encode": func(i int) (float64, error) {
			t := coreFromSlice(serveRows, serveCols, bytesF32(w.bodies[i]))
			t0 := time.Now()
			enc, err := opts.EncodeStackCtx(context.Background(), []*coreTensor{t}, serveQP)
			if err != nil {
				return 0, err
			}
			enc.Marshal()
			return float64(time.Since(t0)) / 1e6, nil
		},
		"decode": func(i int) (float64, error) {
			var reps []float64
			for rep := 0; rep < 3; rep++ {
				t0 := time.Now()
				enc, err := coreUnmarshalEncoded(w.containers[i])
				if err == nil {
					_, err = opts.DecodeStackCtx(context.Background(), enc)
				}
				if err != nil {
					return 0, err
				}
				reps = append(reps, float64(time.Since(t0))/1e6)
			}
			return median(reps), nil
		},
	}
	for kind, core := range coreMs {
		spans, self := p.spanMsByClass("serve."+kind), map[int][]float64{}
		for i, xs := range spans {
			if c, err := core(i); err == nil {
				self[i] = []float64{median(xs) - c}
			}
		}
		out["serve."+kind+"_ms_p50"] = meanOfMedians(spans)
		out["serve."+kind+"_self_ms_p50"] = meanOfMedians(self)
		out["proxy."+kind+"_self_ms_p50"] = median(selfMs(p.spans, "proxy."+kind))
		_, v := tail(p.ms(kind))
		out["client."+kind+"_tail_ms"] = v
	}

	var rejected, resp5xx, queueP50 float64
	have := true
	for _, b := range w.backends {
		m, err := getMetricsz(b.URL)
		r, ok1 := m.Counters["serve.rejected.queue_full"]
		x, ok2 := m.Counters["serve.responses.5xx"]
		q, ok3 := m.Histograms["serve.queue_wait_ns"]
		if err != nil || !ok1 || !ok2 || !ok3 {
			have = false
			break
		}
		rejected += float64(r)
		resp5xx += float64(x)
		queueP50 = max(queueP50, float64(q.P50)/1e6)
	}
	if have {
		out["serve.rejected_429"], out["serve.resp_5xx"], out["serve.queue_wait_ms_p50"] = rejected, resp5xx, queueP50
	}
	if m, err := getMetricsz(w.front.URL); err == nil {
		for metric, name := range map[string]string{
			"proxy.retries": "proxy.retries", "proxy.hedges": "proxy.hedges", "proxy.hedge_wins": "proxy.hedge_wins",
			"proxy.shed": "proxy.shed", "proxy.upstream_errors": "proxy.errors.upstream",
		} {
			if v, ok := m.Counters[name]; ok {
				out[metric] = float64(v)
			}
		}
	}
	return out
}

// --------------------------------------------------------------- kv_stream

const (
	kvDim         = 128
	kvSessions    = 16  // per client
	kvPutRows     = 32  // rows per PUT: one flush group, so every PUT commits one chunk
	kvWindow      = 32  // rows per GET
	kvPromptRows  = 64  // common to every session: the aliasing path
	kvSessionRows = 512 // a session this long is deleted and renamed
	// kvRelBound is the quantiser bound on a committed window: squared error
	// over the window's variance. Honest reads sit near 0.02 at kvQP; rows
	// from the wrong place sit near 2.
	kvRelBound = 0.25
)

// kvBackend is where a kvClient's operations land: the HTTP topology in the
// kv_stream workload, a kv.Table called directly in the kv layer probe.
type kvBackend interface {
	put(ctx context.Context, o liveOp, session string, at int, rows []float32) (total, committed int, err error)
	get(ctx context.Context, o liveOp, session string, t0, t1 int) ([]float32, error)
	del(ctx context.Context, o liveOp, session string) error
}

type kvSession struct {
	name             string
	idx, gen         int
	data             []float32 // kvSessionRows×kvDim: the client-side mirror
	total, committed int
}

// kvClient owns its sessions outright, so its mirror is always exact.
type kvClient struct {
	id       int
	rng      *rand.Rand
	sessions []*kvSession
}

func newKVClient(seed int64, id int, prompt []float32) *kvClient {
	k := &kvClient{id: id, rng: rngFor(seed, fmt.Sprintf("kv_stream/client%d", id))}
	for s := 0; s < kvSessions; s++ {
		data := genActivations(rngFor(seedFor(seed, s, kvSessions), fmt.Sprintf("kv_stream/client%d/session%d", id, s)), kvSessionRows, kvDim)
		copy(data, prompt)
		k.sessions = append(k.sessions, &kvSession{name: kvSessionName(id, s, 0), idx: s, data: data})
	}
	return k
}

// kvPrompt is the rows every session starts with, whatever the seed.
func kvPrompt() []float32 {
	return genActivations(rngFor(anchorSeed, "kv_stream/prompt"), kvPromptRows, kvDim)
}

func kvSessionName(client, idx, gen int) string { return fmt.Sprintf("c%d-s%d-g%d", client, idx, gen) }

// step runs the client's next operation: a coin picks GET or PUT on a random
// session; a session with no committed window yet takes a PUT instead.
func (k *kvClient) step(ctx context.Context, be kvBackend, r *recorder) {
	s := k.sessions[k.rng.Intn(kvSessions)]
	wantGet, where := k.rng.Intn(2) == 1, k.rng.Float64()
	// class: the session. What its rows cost depends on their outlier channels
	// (a read is 0.3 to 1.3 ms over the sessions of one seed).
	class := k.id*kvSessions + s.idx
	if wantGet && s.committed >= kvWindow {
		t0 := int(where * float64(s.committed-kvWindow+1))
		o := r.begin("get", class)
		start := time.Now()
		got, err := be.get(ctx, o, s.name, t0, t0+kvWindow)
		dt := time.Since(start)
		if err != nil {
			o.done(0, 0, opFailed, err.Error())
			return
		}
		v := o.span("client.verify")
		ok := kvWindowOK(s.data[t0*kvDim:(t0+kvWindow)*kvDim], got)
		v.end()
		if !ok {
			o.done(dt, 0, opMismatch, fmt.Sprintf("session %s rows %d-%d outside the quantiser bound", s.name, t0, t0+kvWindow))
			return
		}
		o.done(dt, float64(kvWindow*kvDim*4)/1e6, opOK, "")
		return
	}
	o := r.begin("put", class)
	start := time.Now()
	total, committed, err := be.put(ctx, o, s.name, s.total, s.data[s.total*kvDim:(s.total+kvPutRows)*kvDim])
	dt := time.Since(start)
	switch {
	case err != nil:
		o.done(0, 0, opFailed, err.Error())
		return
	case total != s.total+kvPutRows || committed != total/kvFlushRows*kvFlushRows:
		o.done(dt, 0, opMismatch, fmt.Sprintf("session %s: total %d committed %d after a PUT at %d", s.name, total, committed, s.total))
		return
	}
	s.total, s.committed = total, committed
	o.done(dt, float64(kvPutRows*kvDim*4)/1e6, opOK, "")
	if s.total < kvSessionRows {
		return
	}
	o = r.begin("delete", 0)
	start = time.Now()
	if err := be.del(ctx, o, s.name); err != nil {
		o.done(0, 0, opFailed, err.Error())
		return
	}
	o.done(time.Since(start), 0, opOK, "")
	s.gen++
	s.name = kvSessionName(k.id, s.idx, s.gen)
	s.total, s.committed = 0, 0
}

func kvWindowOK(want, got []float32) bool {
	if len(got) != len(want) {
		return false
	}
	var d distortion
	d.add(want, got)
	return d.rel() <= kvRelBound
}

// kvStream is an inference engine streaming KV rows: it pays PUT and GET
// latency on the same tier at once.
type kvStream struct {
	*topology
	nproc int
	users []*kvClient

	bits, relMSE float64
}

func newKVStream() workload { return &kvStream{} }

func (w *kvStream) clients() int { return w.nproc }

func (w *kvStream) close() {
	if w.topology != nil {
		w.topology.close()
		w.topology = nil
	}
}

func (w *kvStream) setup(e env) error {
	*w = kvStream{nproc: e.nproc}
	prompt := kvPrompt()
	for c := 0; c < e.nproc; c++ {
		w.users = append(w.users, newKVClient(e.seed, c, prompt))
	}
	var err error
	if w.topology, err = newTopology(e.nproc); err != nil {
		return err
	}
	return w.codingPoint()
}

// codingPoint streams the anchor session through the topology, reads it back
// and deletes it: resident bytes × 8 ÷ values held and the read-back
// distortion are the workload's coding point.
func (w *kvStream) codingPoint() error {
	ctx := context.Background()
	data := genActivations(rngFor(anchorSeed, "kv_stream/anchor"), kvSessionRows, kvDim)
	r := &recorder{}
	be := httpKV{w.topology, 0}
	const name = "anchor"
	for at := 0; at < kvSessionRows; at += kvPutRows {
		if _, _, err := be.put(ctx, r.begin("put", 0), name, at, data[at*kvDim:(at+kvPutRows)*kvDim]); err != nil {
			return err
		}
	}
	var resident int64
	for _, srv := range w.replicas {
		resident += srv.KV().Resident()
	}
	got, err := be.get(ctx, r.begin("get", 0), name, 0, kvSessionRows)
	if err != nil {
		return err
	}
	if len(got) != len(data) {
		return fmt.Errorf("calibration read returned %d values, want %d", len(got), len(data))
	}
	var d distortion
	d.add(data, got)
	w.bits, w.relMSE = float64(resident*8)/float64(len(data)), d.rel()
	return be.del(ctx, r.begin("delete", 0), name)
}

func (w *kvStream) op(ctx context.Context, c int, r *recorder) {
	w.users[c].step(ctx, httpKV{w.topology, c}, r)
}

// httpKV is the kv_stream backend: PUT/GET/DELETE /v1/kv/{session} as client c.
type httpKV struct {
	t *topology
	c int
}

func (h httpKV) put(ctx context.Context, o liveOp, session string, at int, rows []float32) (int, int, error) {
	path := fmt.Sprintf("/v1/kv/%s?dim=%d&at=%d", session, kvDim, at)
	status, body, err := h.t.request(ctx, h.c, o, "proxy.kv_put", http.MethodPut, path, f32Bytes(rows))
	if err != nil || status != http.StatusOK {
		return 0, 0, fmt.Errorf("PUT %s: status %d err %v", path, status, err)
	}
	var res struct{ Total, Committed int }
	if err := json.Unmarshal(body, &res); err != nil {
		return 0, 0, err
	}
	return res.Total, res.Committed, nil
}

func (h httpKV) get(ctx context.Context, o liveOp, session string, t0, t1 int) ([]float32, error) {
	path := fmt.Sprintf("/v1/kv/%s?range=%d-%d", session, t0, t1)
	status, body, err := h.t.request(ctx, h.c, o, "proxy.kv_get", http.MethodGet, path, nil)
	if err != nil || status != http.StatusOK {
		return nil, fmt.Errorf("GET %s: status %d err %v", path, status, err)
	}
	return bytesF32(body), nil
}

func (h httpKV) del(ctx context.Context, o liveOp, session string) error {
	status, _, err := h.t.request(ctx, h.c, o, "proxy.kv_delete", http.MethodDelete, "/v1/kv/"+session, nil)
	if err != nil || status != http.StatusNoContent {
		return fmt.Errorf("DELETE %s: status %d err %v", session, status, err)
	}
	return nil
}

func (w *kvStream) native(p *pass) map[string]float64 {
	return map[string]float64{
		"raw_mbps":       p.mbps("put"),
		"op_p50_ms":      p.p50("get"),
		"bits_per_value": w.bits,
		"rel_mse":        w.relMSE,
	}
}

func (w *kvStream) layers(p *pass) map[string]float64 {
	_, putTail := tail(p.ms("put"))
	_, getTail := tail(p.ms("get"))
	return map[string]float64{
		"serve.kv_put_ms_p50":  median(spanMs(p.spans, "serve.kv_put")),
		"serve.kv_get_ms_p50":  median(spanMs(p.spans, "serve.kv_get")),
		"proxy.kv_self_ms_p50": median(append(selfMs(p.spans, "proxy.kv_put"), selfMs(p.spans, "proxy.kv_get")...)),
		"client.put_tail_ms":   putTail,
		"client.get_tail_ms":   getTail,
	}
}
