package serve

import (
	"bytes"
	"context"
	"errors"
	"io"
	"net/http"
	"net/http/httptest"
	"runtime"
	"testing"
	"testing/iotest"

	"repro/internal/core"
)

// TestReadBody: the bytes are io.ReadAll's whatever the declaration says —
// exact, short, long, absurd or absent — a reader's error comes back as it
// is with the prefix read so far, and an honest declaration costs one buffer.
func TestReadBody(t *testing.T) {
	body := bytes.Repeat([]byte("0123456789abcdef"), 128*256*4/16)
	for _, declared := range []int64{int64(len(body)), 0, 1, int64(len(body)) - 1, int64(len(body)) + 1, 1 << 40, -1} {
		for _, limit := range []int64{1 << 30, 1000} {
			got, err := ReadBody(bytes.NewReader(body), declared, limit)
			if err != nil || !bytes.Equal(got, body) {
				t.Fatalf("declared %d limit %d: %d bytes, err %v; want the %d-byte body", declared, limit, len(got), err, len(body))
			}
		}
	}
	boom := errors.New("boom")
	got, err := ReadBody(io.MultiReader(bytes.NewReader(body[:700]), iotest.ErrReader(boom)), 1<<20, 1<<30)
	if err != boom || !bytes.Equal(got, body[:700]) {
		t.Fatalf("failing reader: %d bytes, err %v; want the 700-byte prefix and the reader's own error", len(got), err)
	}
	allocs := testing.AllocsPerRun(20, func() {
		ReadBody(bytes.NewReader(body), int64(len(body)), 1<<30)
	})
	if allocs > 3 { // the buffer, the bytes.Buffer, the reader
		t.Fatalf("an honestly declared %d-byte body took %.0f allocations", len(body), allocs)
	}
}

const (
	encodeAllocCeiling = 62
	decodeAllocCeiling = 47
)

// handlerAllocs serves the request built by mk through the whole handler
// stack, in process, and returns the allocations of one request: the least of
// several, so that a request which had to rebuild the pooled codec scratch —
// after a GC emptied the pool, or because the race detector makes sync.Pool
// drop a quarter of its Puts — does not count. Mallocs is process-wide, so the
// requests run on one P and the test must not be made t.Parallel.
func handlerAllocs(t *testing.T, s *Server, mk func() *http.Request) float64 {
	t.Helper()
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	h := s.Handler()
	least := ^uint64(0)
	var before, after runtime.MemStats
	for i := 0; i < 12; i++ {
		rec, req := httptest.NewRecorder(), mk()
		runtime.ReadMemStats(&before)
		h.ServeHTTP(rec, req)
		runtime.ReadMemStats(&after)
		if rec.Code != http.StatusOK {
			t.Fatalf("status %d: %s", rec.Code, rec.Body.Bytes())
		}
		least = min(least, after.Mallocs-before.Mallocs)
	}
	return float64(least)
}

// TestHandlerAllocations pins the request path's allocation count on the
// benchmark's body size (128×256 float32, 131 KB): reading a declared body is
// one buffer, and the encode handler hands the parsed values to the codec
// without a second copy. Growing the body by doubling costs nine allocations
// more on either handler, a copy per layer one more on encode: 71 and 53 where
// this reads 54 and 42, and the ceilings sit between.
func TestHandlerAllocations(t *testing.T) {
	s := New(Config{MaxInflight: 2, Workers: 1})
	stack := testStack(3, 1, 128, 256)
	raw := stackBody(stack)
	enc, err := core.DefaultOptions().EncodeStackCtx(context.Background(), stack, 4)
	if err != nil {
		t.Fatal(err)
	}
	container := enc.Marshal()
	post := func(target string, body []byte) func() *http.Request {
		return func() *http.Request {
			return httptest.NewRequest(http.MethodPost, target, bytes.NewReader(body))
		}
	}
	encode := handlerAllocs(t, s, post("/v1/encode?rows=128&cols=256&qp=4", raw))
	decode := handlerAllocs(t, s, post("/v1/decode", container))
	t.Logf("allocations per request: encode %.0f, decode %.0f", encode, decode)
	if encode > encodeAllocCeiling || decode > decodeAllocCeiling {
		t.Fatalf("allocations per request: encode %.0f (ceiling %d), decode %.0f (ceiling %d)",
			encode, encodeAllocCeiling, decode, decodeAllocCeiling)
	}
}

// TestLyingContentLength: a request that declares a terabyte and sends ten
// bytes reserves no more than the pre-size cap, and is answered like any
// other ten-byte body.
func TestLyingContentLength(t *testing.T) {
	s := New(Config{MaxInflight: 2})
	h := s.Handler()
	for _, tc := range []struct {
		target string
		status int
		class  string
	}{
		{"/v1/encode?rows=128&cols=256", http.StatusBadRequest, "bad_request"},
		{"/v1/decode", http.StatusUnprocessableEntity, "corrupt"},
	} {
		req := httptest.NewRequest(http.MethodPost, tc.target, bytes.NewReader([]byte("0123456789")))
		req.ContentLength = 1 << 40
		rec := httptest.NewRecorder()
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		h.ServeHTTP(rec, req)
		runtime.ReadMemStats(&after)
		if got := after.TotalAlloc - before.TotalAlloc; got >= 2<<20 {
			t.Errorf("%s: a lying Content-Length made the handler allocate %d bytes", tc.target, got)
		}
		if rec.Code != tc.status || !bytes.Contains(rec.Body.Bytes(), []byte(`"class":"`+tc.class+`"`)) {
			t.Errorf("%s: answered %d %s, want %d class %s", tc.target, rec.Code, rec.Body.Bytes(), tc.status, tc.class)
		}
	}
}
