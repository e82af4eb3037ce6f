package proxy

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/faultinject"
	"repro/internal/obs"
	"repro/internal/serve"
)

// testBackend is one in-process serve instance behind real HTTP, with a
// switchable /healthz so prober tests can take it "down" without port
// juggling.
type testBackend struct {
	srv         *serve.Server
	ts          *httptest.Server
	host        string // host:port — what the proxy uses as the backend name
	healthzDown atomic.Bool
}

func newTestBackends(t testing.TB, n int) []*testBackend {
	return newTestBackendsCfg(t, n, func(int) serve.Config { return serve.Config{MaxInflight: 4} })
}

// newTestBackendsCfg is newTestBackends with a per-backend serve config —
// kv tests use it to give each instance its own session table.
func newTestBackendsCfg(t testing.TB, n int, cfgFor func(i int) serve.Config) []*testBackend {
	t.Helper()
	out := make([]*testBackend, n)
	for i := range out {
		b := &testBackend{srv: serve.New(cfgFor(i))}
		inner := b.srv.Handler()
		b.ts = httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			if r.URL.Path == "/healthz" && b.healthzDown.Load() {
				http.Error(w, `{"status":"forced-down"}`, http.StatusServiceUnavailable)
				return
			}
			inner.ServeHTTP(w, r)
		}))
		t.Cleanup(b.ts.Close)
		b.host = strings.TrimPrefix(b.ts.URL, "http://")
		out[i] = b
	}
	return out
}

// newTestProxy mounts a proxy over the backends with fast test timings; mod
// may tweak the config before New. Probers are NOT started — tests that
// exercise active probing call p.Start() themselves.
func newTestProxy(t testing.TB, backends []*testBackend, ft *faultinject.FlakyTransport, mod func(*Config)) (*Proxy, string) {
	t.Helper()
	urls := make([]string, len(backends))
	for i, b := range backends {
		urls[i] = b.ts.URL
	}
	cfg := Config{
		Backends:   urls,
		MaxRetries: 2,
		RetryBase:  time.Millisecond,
		RetryCap:   5 * time.Millisecond,
	}
	if ft != nil {
		cfg.Transport = ft
	}
	if mod != nil {
		mod(&cfg)
	}
	p, err := New(cfg)
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	t.Cleanup(p.Close)
	ts := httptest.NewServer(p.Handler())
	t.Cleanup(ts.Close)
	return p, ts.URL
}

func post(t testing.TB, url string, body []byte) (int, []byte, http.Header) {
	t.Helper()
	resp, err := http.Post(url, "application/octet-stream", bytes.NewReader(body))
	if err != nil {
		t.Fatalf("POST %s: %v", url, err)
	}
	defer resp.Body.Close()
	out, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatalf("reading response from %s: %v", url, err)
	}
	return resp.StatusCode, out, resp.Header
}

// counters fetches /metricsz and returns counters and gauges merged —
// the map the sweep assertions diff.
func counters(t testing.TB, base string) map[string]int64 {
	t.Helper()
	resp, err := http.Get(base + "/metricsz")
	if err != nil {
		t.Fatalf("GET /metricsz: %v", err)
	}
	defer resp.Body.Close()
	var snap obs.Snapshot
	if err := json.NewDecoder(resp.Body).Decode(&snap); err != nil {
		t.Fatalf("decoding /metricsz: %v", err)
	}
	out := make(map[string]int64, len(snap.Counters)+len(snap.Gauges))
	for k, v := range snap.Counters {
		out[k] = v
	}
	for k, v := range snap.Gauges {
		out[k] = v
	}
	return out
}

// corpusVector reads one vector of the golden conformance corpus
// (internal/conformance): a stream and the GPLN planes it decodes to, the
// known-good decode bodies the fault and soak tests replay.
func corpusVector(t testing.TB, name string) (stream, planes []byte) {
	t.Helper()
	dir := filepath.Join("..", "conformance", "testdata")
	stream, err := os.ReadFile(filepath.Join(dir, name+".l265"))
	if err != nil {
		t.Fatal(err)
	}
	if planes, err = os.ReadFile(filepath.Join(dir, name+".planes")); err != nil {
		t.Fatal(err)
	}
	return stream, planes
}

// faultVector is the corpus vector the fault tests decode.
const faultVector = "v1-hevc-gradient-96x96-qp28"

// encodeBody builds a deterministic float32 LE payload of layers×rows×cols.
func encodeBody(seed int64, layers, rows, cols int) []byte {
	rng := rand.New(rand.NewSource(seed))
	buf := make([]byte, 0, layers*rows*cols*4)
	for i := 0; i < layers*rows*cols; i++ {
		u := math.Float32bits(rng.Float32()*2 - 1)
		buf = append(buf, byte(u), byte(u>>8), byte(u>>16), byte(u>>24))
	}
	return buf
}

// TestProxyConsistentRouting: the same explicit key lands on the same
// backend every time, and different keys spread across the fleet.
func TestProxyConsistentRouting(t *testing.T) {
	backends := newTestBackends(t, 3)
	_, base := newTestProxy(t, backends, nil, nil)
	stream, _ := corpusVector(t, faultVector)

	hosts := map[string]bool{}
	var pinned string
	for i := 0; i < 6; i++ {
		_, _, hdr := post(t, base+"/v1/decode?key=tenant-42", stream)
		h := hdr.Get("X-Llm265-Backend")
		if pinned == "" {
			pinned = h
		} else if h != pinned {
			t.Fatalf("key=tenant-42 moved %s → %s with a stable fleet", pinned, h)
		}
	}
	for i := 0; i < 32; i++ {
		_, _, hdr := post(t, base+fmt.Sprintf("/v1/decode?key=spread-%d", i), stream)
		hosts[hdr.Get("X-Llm265-Backend")] = true
	}
	if len(hosts) < 2 {
		t.Fatalf("32 distinct keys all landed on one backend: %v", hosts)
	}
}
