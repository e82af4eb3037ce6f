package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"strconv"
	"sync"
	"testing"

	"repro/internal/dct"
	"repro/internal/kv"
	"repro/internal/obs"
)

// kvRows generates deterministic token rows keyed by absolute row index
// (mirrors the kv package's generator so content is schedule-independent).
func kvRows(seed int64, start, n, dim int) []float32 {
	out := make([]float32, n*dim)
	for r := 0; r < n; r++ {
		rng := rand.New(rand.NewSource(seed*1_000_003 + int64(start+r)))
		base := rng.Float32() * 8
		for c := 0; c < dim; c++ {
			out[r*dim+c] = base + rng.Float32()
		}
	}
	return out
}

func doKV(h http.Handler, method, target string, body []byte) *httptest.ResponseRecorder {
	req := httptest.NewRequest(method, target, bytes.NewReader(body))
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, req)
	return rec
}

func kvHeader(t *testing.T, rec *httptest.ResponseRecorder, name string) int {
	t.Helper()
	v, err := strconv.Atoi(rec.Header().Get("X-Llm265-Kv-" + name))
	if err != nil {
		t.Fatalf("header X-Llm265-Kv-%s = %q: %v", name, rec.Header().Get("X-Llm265-Kv-"+name), err)
	}
	return v
}

// TestKVHTTPRoundtrip drives the session lifecycle end to end over HTTP:
// streamed PUTs with at= preconditions, full and ranged GETs byte-identical
// to the table's own reads, window headers, and DELETE.
func TestKVHTTPRoundtrip(t *testing.T) {
	s := New(Config{Workers: 1, KVFlushRows: 8, KVQP: 12})
	h := s.Handler()
	const dim = 16
	vals := kvRows(1, 0, 20, dim)

	rec := doKV(h, "PUT", "/v1/kv/sess?dim=16&at=0", float32sToBytes(vals[:10*dim]))
	if rec.Code != http.StatusOK {
		t.Fatalf("PUT 1: %d %s", rec.Code, rec.Body.String())
	}
	var res kv.AppendResult
	if err := json.Unmarshal(rec.Body.Bytes(), &res); err != nil {
		t.Fatal(err)
	}
	if res.Total != 10 || res.Committed != 8 || res.NewChunks != 1 {
		t.Fatalf("PUT 1 result %+v", res)
	}
	rec = doKV(h, "PUT", "/v1/kv/sess?at=10", float32sToBytes(vals[10*dim:]))
	if rec.Code != http.StatusOK {
		t.Fatalf("PUT 2: %d %s", rec.Code, rec.Body.String())
	}

	want, err := s.KV().Read(context.Background(), "sess", 0, -1)
	if err != nil {
		t.Fatal(err)
	}
	rec = doKV(h, "GET", "/v1/kv/sess", nil)
	if rec.Code != http.StatusOK {
		t.Fatalf("GET: %d %s", rec.Code, rec.Body.String())
	}
	if !bytes.Equal(rec.Body.Bytes(), float32sToBytes(want.Vals)) {
		t.Fatal("GET body differs from the table's own read")
	}
	if kvHeader(t, rec, "From") != 0 || kvHeader(t, rec, "To") != 20 ||
		kvHeader(t, rec, "Total") != 20 || kvHeader(t, rec, "Committed") != 16 ||
		kvHeader(t, rec, "Dim") != dim {
		t.Fatalf("GET headers: %v", rec.Header())
	}

	rec = doKV(h, "GET", "/v1/kv/sess?range=5-13", nil)
	if rec.Code != http.StatusOK {
		t.Fatalf("ranged GET: %d %s", rec.Code, rec.Body.String())
	}
	if !bytes.Equal(rec.Body.Bytes(), float32sToBytes(want.Vals[5*dim:13*dim])) {
		t.Fatal("ranged GET body mismatch")
	}

	// An end past the session clamps and reports partial content.
	rec = doKV(h, "GET", "/v1/kv/sess?range=15-25", nil)
	if rec.Code != http.StatusPartialContent {
		t.Fatalf("clamped GET: %d", rec.Code)
	}
	if kvHeader(t, rec, "To") != 20 {
		t.Fatalf("clamped GET To = %d", kvHeader(t, rec, "To"))
	}
	if !bytes.Equal(rec.Body.Bytes(), float32sToBytes(want.Vals[15*dim:])) {
		t.Fatal("clamped GET body mismatch")
	}

	if rec = doKV(h, "DELETE", "/v1/kv/sess", nil); rec.Code != http.StatusNoContent {
		t.Fatalf("DELETE: %d", rec.Code)
	}
	if rec = doKV(h, "GET", "/v1/kv/sess", nil); rec.Code != http.StatusNotFound {
		t.Fatalf("GET after DELETE: %d", rec.Code)
	}
}

// TestKVHTTPTaxonomy pins the kv endpoints' status taxonomy.
func TestKVHTTPTaxonomy(t *testing.T) {
	s := New(Config{Workers: 1, KVFlushRows: 4, KVQP: 12})
	h := s.Handler()
	body := float32sToBytes(kvRows(1, 0, 6, 8))
	if rec := doKV(h, "PUT", "/v1/kv/s?dim=8&at=0", body); rec.Code != http.StatusOK {
		t.Fatalf("setup PUT: %d %s", rec.Code, rec.Body.String())
	}

	cases := []struct {
		name, method, target string
		body                 []byte
		want                 int
		class                string
	}{
		{"offset conflict", "PUT", "/v1/kv/s?at=3", body, http.StatusConflict, "conflict"},
		{"dim conflict", "PUT", "/v1/kv/s?dim=16&at=6", body, http.StatusConflict, "conflict"},
		{"ragged body", "PUT", "/v1/kv/s?at=6", []byte{1, 2, 3}, http.StatusBadRequest, "bad_request"},
		{"negative dim", "PUT", "/v1/kv/x?dim=-4", nil, http.StatusBadRequest, "bad_request"},
		{"missing dim on create", "PUT", "/v1/kv/x", body, http.StatusBadRequest, "bad_request"},
		{"offset conflict on create", "PUT", "/v1/kv/x?dim=16&at=5", body, http.StatusConflict, "conflict"},
		{"refused creates leave nothing", "GET", "/v1/kv/x", nil, http.StatusNotFound, "not_found"},
		{"unknown session", "GET", "/v1/kv/nope", nil, http.StatusNotFound, "not_found"},
		{"unknown delete", "DELETE", "/v1/kv/nope", nil, http.StatusNotFound, "not_found"},
		{"bad range", "GET", "/v1/kv/s?range=zz", nil, http.StatusBadRequest, "bad_request"},
		{"inverted range", "GET", "/v1/kv/s?range=9-3", nil, http.StatusBadRequest, "bad_request"},
		{"range past the end", "GET", "/v1/kv/s?range=10-20", nil, http.StatusRequestedRangeNotSatisfiable, "range_unavailable"},
		{"bare subtree", "GET", "/v1/kv/", nil, http.StatusNotFound, "not_found"},
		{"nested path", "GET", "/v1/kv/a/b", nil, http.StatusNotFound, "not_found"},
		{"bad method", "POST", "/v1/kv/s", body, http.StatusMethodNotAllowed, "bad_request"},
	}
	for _, tc := range cases {
		rec := doKV(h, tc.method, tc.target, tc.body)
		if rec.Code != tc.want || envelopeClass(rec) != tc.class {
			t.Errorf("%s: %s %s -> %d %q, want %d %q (%s)", tc.name, tc.method, tc.target,
				rec.Code, envelopeClass(rec), tc.want, tc.class, rec.Body.String())
		}
	}

	// 416 carries the availability window.
	rec := doKV(h, "GET", "/v1/kv/s?range=10-20", nil)
	if kvHeader(t, rec, "Total") != 6 || kvHeader(t, rec, "Evicted") != 0 {
		t.Fatalf("416 window headers: %v", rec.Header())
	}

	// 507: an append that can never fit the budget.
	tiny := New(Config{Workers: 1, KVBudgetBytes: 512, KVFlushRows: 4})
	rec = doKV(tiny.Handler(), "PUT", "/v1/kv/big?dim=64", float32sToBytes(kvRows(2, 0, 64, 64)))
	if rec.Code != http.StatusInsufficientStorage || envelopeClass(rec) != "budget" {
		t.Fatalf("over-budget PUT: %d %s", rec.Code, rec.Body.String())
	}
}

// envelopeClass is the class of a JSON error envelope ("" for any other body).
func envelopeClass(rec *httptest.ResponseRecorder) string {
	var e errorBody
	_ = json.Unmarshal(rec.Body.Bytes(), &e)
	return e.Class
}

// httpEvictLog mirrors the kv OnEvict hook for HTTP-level cross-checks.
type httpEvictLog struct {
	mu      sync.Mutex
	evicted map[string]int
	full    map[string]bool
}

func (l *httpEvictLog) hook(session string, from, to int, full bool) {
	l.mu.Lock()
	defer l.mu.Unlock()
	if full {
		l.full[session] = true
		return
	}
	if to > l.evicted[session] {
		l.evicted[session] = to
	}
}

// TestKVHTTP206MatchesEvictionLog: partially evicted sessions answer 206
// whose From header is exactly where the eviction log says the prefix was
// cut — the soak harness's core cross-check, pinned here deterministically.
func TestKVHTTP206MatchesEvictionLog(t *testing.T) {
	log := &httpEvictLog{evicted: make(map[string]int), full: make(map[string]bool)}
	reg := obs.NewRegistry()
	tab := kv.New(kv.Config{
		FlushRows: 8, QP: 12, BudgetBytes: 4 << 10,
		Metrics: reg, OnEvict: log.hook,
	})
	s := New(Config{Workers: 1, KV: tab})
	h := s.Handler()
	const dim = 16

	for i := 0; i < 6; i++ {
		name := fmt.Sprintf("s%d", i)
		for at := 0; at < 32; at += 8 {
			rec := doKV(h, "PUT", fmt.Sprintf("/v1/kv/%s?dim=%d&at=%d", name, dim, at),
				float32sToBytes(kvRows(int64(i), at, 8, dim)))
			if rec.Code != http.StatusOK {
				t.Fatalf("%s at=%d: %d %s", name, at, rec.Code, rec.Body.String())
			}
			if r, b := tab.Resident(), tab.Budget(); r > b {
				t.Fatalf("resident %d exceeds budget %d", r, b)
			}
		}
	}

	// Every session's rows come from its own seed, so nothing aliased.
	if c := reg.Snapshot().Counters["kv.append.chunks_aliased"]; c != 0 {
		t.Fatalf("chunks_aliased = %d, want 0", c)
	}

	saw206 := false
	for i := 0; i < 6; i++ {
		name := fmt.Sprintf("s%d", i)
		rec := doKV(h, "GET", "/v1/kv/"+name, nil)
		log.mu.Lock()
		evictedTo, full := log.evicted[name], log.full[name]
		log.mu.Unlock()
		switch rec.Code {
		case http.StatusOK:
			if evictedTo != 0 {
				t.Fatalf("%s: 200 but eviction log says prefix cut at %d", name, evictedTo)
			}
		case http.StatusPartialContent:
			saw206 = true
			if from := kvHeader(t, rec, "From"); from != evictedTo {
				t.Fatalf("%s: 206 From=%d, eviction log says %d", name, from, evictedTo)
			}
			if got, want := len(rec.Body.Bytes())/4/dim, 32-evictedTo; got != want {
				t.Fatalf("%s: 206 served %d rows, want %d", name, got, want)
			}
		case http.StatusNotFound:
			if !full {
				t.Fatalf("%s: 404 but eviction log has no full eviction", name)
			}
		case http.StatusRequestedRangeNotSatisfiable:
			// Fully drained but not yet removed: nothing available.
		default:
			t.Fatalf("%s: unexpected %d %s", name, rec.Code, rec.Body.String())
		}
	}
	if !saw206 {
		t.Fatal("no partially-evicted session answered 206; eviction parameters too coarse")
	}
}

// dyingBody simulates a client that hangs up mid-body: the first Read kills
// the request context (as the HTTP server does when the connection drops)
// and returns the transport error the handler's io.ReadAll would see.
type dyingBody struct{ cancel context.CancelFunc }

func (d *dyingBody) Read([]byte) (int, error) {
	d.cancel()
	return 0, errors.New("read tcp 127.0.0.1: connection reset by peer")
}

// TestBodyReadDisconnectIs499 is the regression test for the taxonomy fix:
// a body read that fails because the client hung up mid-PUT must classify as
// 499/canceled (or 504 on deadline), never as the client's 400 bad_request.
// Before the fix readBody mapped every non-oversize read failure to 400.
func TestBodyReadDisconnectIs499(t *testing.T) {
	s := New(Config{Workers: 1, KVFlushRows: 4})
	h := s.Handler()
	for _, target := range []string{"/v1/kv/sess?dim=8", "/v1/encode?rows=4&cols=4"} {
		method := "PUT"
		if target[4] == 'e' {
			method = "POST"
		}
		req := httptest.NewRequest(method, target, nil)
		ctx, cancel := context.WithCancel(req.Context())
		req = req.WithContext(ctx)
		req.Body = io.NopCloser(&dyingBody{cancel: cancel})
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, req)
		if rec.Code != StatusClientClosedRequest {
			t.Fatalf("%s %s with mid-body disconnect: %d %s, want 499", method, target, rec.Code, rec.Body.String())
		}
		var body errorBody
		if err := json.Unmarshal(rec.Body.Bytes(), &body); err != nil || body.Class != "canceled" {
			t.Fatalf("%s: class %q (%v), want canceled", target, body.Class, err)
		}
	}

	// Control: a read error with a live context is still the client's fault.
	req := httptest.NewRequest("PUT", "/v1/kv/sess?dim=8", nil)
	req.Body = io.NopCloser(io.MultiReader(bytes.NewReader([]byte{1, 2}), &errReader{}))
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, req)
	if rec.Code != http.StatusBadRequest {
		t.Fatalf("plain body-read failure: %d, want 400", rec.Code)
	}
}

type errReader struct{}

func (errReader) Read([]byte) (int, error) { return 0, errors.New("chunked body is malformed") }

// TestKVQPValidatedAtConstruction: a kv QP no encode can run at never reaches
// a request, where every PUT that completed a flush group would be answered
// 400 {"error":"codec: qp 99 out of range","class":"bad_request"} — the
// client's fault, by class — with the rows it refused left staged.
func TestKVQPValidatedAtConstruction(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("New accepted KVQP above dct.MaxQP")
		}
	}()
	New(Config{Workers: 1, KVQP: dct.MaxQP + 1})
}
