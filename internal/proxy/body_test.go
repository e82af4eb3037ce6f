package proxy

import (
	"bytes"
	"context"
	"io"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"runtime"
	"testing"

	"repro/internal/core"
	"repro/internal/kv"
	"repro/internal/serve"
)

// handlerTransport answers upstream round trips from an in-process handler,
// so that a test counts the proxy's and the backend's allocations and none of
// a socket's.
type handlerTransport struct{ h http.Handler }

func (t handlerTransport) RoundTrip(req *http.Request) (*http.Response, error) {
	rec := httptest.NewRecorder()
	t.h.ServeHTTP(rec, req)
	return rec.Result(), nil
}

func newInProcessProxy(t *testing.T) *Proxy {
	t.Helper()
	backend := serve.New(serve.Config{MaxInflight: 2, Workers: 1,
		KV: kv.New(kv.Config{FlushRows: 8, QP: 12, Workers: 1, BudgetBytes: 64 << 10})})
	p, err := New(Config{Backends: []string{"http://in-process"}, Transport: handlerTransport{backend.Handler()}})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(p.Close)
	return p
}

// proxiedDecodeAllocCeiling sits between what a proxied 128×256 decode
// allocates with every hop reading into a buffer sized from the declared
// length (the request at the proxy and at the backend, the 131 KB reply back
// at the proxy: 88) and what it allocated when each grew by doubling (130).
const proxiedDecodeAllocCeiling = 105

func TestProxiedDecodeAllocations(t *testing.T) {
	p := newInProcessProxy(t)
	rng := rand.New(rand.NewSource(3))
	tensor := core.NewTensor(128, 256)
	for i := range tensor.Data {
		tensor.Data[i] = rng.Float32()*2 - 1
	}
	enc, err := core.DefaultOptions().EncodeStackCtx(context.Background(), []*core.Tensor{tensor}, 4)
	if err != nil {
		t.Fatal(err)
	}
	container := enc.Marshal()
	// The least of several single requests, on one P: a request that had to
	// rebuild the backend's pooled codec scratch (a GC, or the race detector's
	// lossy sync.Pool) does not count.
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	h := p.Handler()
	least := ^uint64(0)
	var before, after runtime.MemStats
	for i := 0; i < 12; i++ {
		rec, req := httptest.NewRecorder(), httptest.NewRequest(http.MethodPost, "/v1/decode", bytes.NewReader(container))
		runtime.ReadMemStats(&before)
		h.ServeHTTP(rec, req)
		runtime.ReadMemStats(&after)
		if rec.Code != http.StatusOK || rec.Body.Len() != 4*len(tensor.Data) {
			t.Fatalf("status %d, %d-byte body", rec.Code, rec.Body.Len())
		}
		least = min(least, after.Mallocs-before.Mallocs)
	}
	allocs := float64(least)
	t.Logf("allocations per proxied decode: %.0f", allocs)
	if allocs > proxiedDecodeAllocCeiling {
		t.Fatalf("a proxied decode took %.0f allocations, ceiling %d", allocs, proxiedDecodeAllocCeiling)
	}
}

// TestRelayDeclaresLength: the proxy holds every upstream reply whole, so its
// client — a real one, over a socket — is told the length and never sees a
// chunked body, on a proxied decode and a proxied KV GET (both far past
// net/http's 2 KB buffer) and on the 4xx and 5xx envelopes the proxy forwards
// as the backend's answer, which arrive intact.
func TestRelayDeclaresLength(t *testing.T) {
	srv := httptest.NewServer(newInProcessProxy(t).Handler())
	defer srv.Close()
	enc, err := core.DefaultOptions().EncodeStackCtx(context.Background(), []*core.Tensor{core.NewTensor(64, 64)}, 20)
	if err != nil {
		t.Fatal(err)
	}
	const dim, rows = 128, 16
	for _, tc := range []struct {
		name, method, path string
		body               []byte
		status, bodyLen    int
		class              string
	}{
		{"decode", "POST", "/v1/decode", enc.Marshal(), http.StatusOK, 4 * 64 * 64, ""},
		{"kv put", "PUT", "/v1/kv/s?dim=128&at=0", encodeBody(5, 1, rows, dim), http.StatusOK, -1, ""},
		{"kv get", "GET", "/v1/kv/s", nil, http.StatusOK, 4 * rows * dim, ""},
		{"4xx envelope", "POST", "/v1/decode", []byte("0123456789"), http.StatusUnprocessableEntity, -1, "corrupt"},
		{"5xx envelope", "PUT", "/v1/kv/big?dim=128&at=0", encodeBody(6, 1, 1024, dim), http.StatusInsufficientStorage, -1, "budget"},
	} {
		req, err := http.NewRequest(tc.method, srv.URL+tc.path, bytes.NewReader(tc.body))
		if err != nil {
			t.Fatal(err)
		}
		resp, err := srv.Client().Do(req)
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		body, err := io.ReadAll(resp.Body)
		resp.Body.Close()
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		if resp.StatusCode != tc.status || tc.bodyLen >= 0 && len(body) != tc.bodyLen {
			t.Fatalf("%s: status %d with a %d-byte body, want %d with %d", tc.name, resp.StatusCode, len(body), tc.status, tc.bodyLen)
		}
		if resp.ContentLength != int64(len(body)) || len(resp.TransferEncoding) != 0 {
			t.Errorf("%s: client saw ContentLength %d, Transfer-Encoding %v for a %d-byte body",
				tc.name, resp.ContentLength, resp.TransferEncoding, len(body))
		}
		if tc.class != "" && !bytes.Contains(body, []byte(`"class":"`+tc.class+`"`)) {
			t.Errorf("%s: envelope %s, want class %q", tc.name, body, tc.class)
		}
	}
}

// TestLyingContentLength: a terabyte declared over a ten-byte body reserves no
// more than the pre-size cap at the proxy, and the backend's verdict on the
// ten bytes comes back as it always did.
func TestLyingContentLength(t *testing.T) {
	h := newInProcessProxy(t).Handler()
	req := httptest.NewRequest(http.MethodPost, "/v1/decode", bytes.NewReader([]byte("0123456789")))
	req.ContentLength = 1 << 40
	rec := httptest.NewRecorder()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	h.ServeHTTP(rec, req)
	runtime.ReadMemStats(&after)
	if got := after.TotalAlloc - before.TotalAlloc; got >= 2<<20 {
		t.Errorf("a lying Content-Length made the proxy allocate %d bytes", got)
	}
	if rec.Code != http.StatusUnprocessableEntity || !bytes.Contains(rec.Body.Bytes(), []byte(`"class":"corrupt"`)) {
		t.Errorf("answered %d %s, want the backend's 422 corrupt", rec.Code, rec.Body.Bytes())
	}
}
