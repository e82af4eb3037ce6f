package serve

import (
	"bytes"
	"context"
	"net/http"
	"net/http/httptest"
	"net/url"
	"testing"

	"repro/internal/core"
)

// knownStatuses is the closed set of statuses the service is allowed to
// emit. The fuzz target fails on anything else: an unmapped error leaked
// through the taxonomy (http.Error default 500s are exactly the bug class
// this hunts).
var knownStatuses = map[int]bool{
	http.StatusOK:               true,
	http.StatusNoContent:        true, // kv DELETE
	http.StatusPartialContent:   true,
	http.StatusMovedPermanently: true, // ServeMux path canonicalization

	http.StatusBadRequest:                   true,
	http.StatusNotFound:                     true, // unknown path (mux), kv session
	http.StatusMethodNotAllowed:             true,
	http.StatusConflict:                     true,
	http.StatusRequestEntityTooLarge:        true,
	http.StatusRequestedRangeNotSatisfiable: true, // kv range past the window
	http.StatusUnprocessableEntity:          true,
	http.StatusTooManyRequests:              true,
	StatusClientClosedRequest:               true,
	http.StatusServiceUnavailable:           true,
	http.StatusGatewayTimeout:               true,
	http.StatusInsufficientStorage:          true, // kv budget exhausted
}

// FuzzServeRequest throws arbitrary method/path/query/body combinations at
// the handler stack in-process (no network): the service must never panic
// (the harness fails the run on panic — a panicking handler would take the
// whole goroutine down, there is no net/http recovery between us and the
// mux) and must answer every request with a status from the documented set.
//
// Seeds cover both container kinds, a valid encode, damaged streams and
// hostile query strings, so the fuzzer starts inside every handler branch.
func FuzzServeRequest(f *testing.F) {
	// Build valid bodies for the seeds.
	stack := testStack(201, 1, 32, 32)
	opts := core.DefaultOptions()
	opts.Checksum = true
	enc, err := opts.EncodeStackCtx(context.Background(), stack, 30)
	if err != nil {
		f.Fatal(err)
	}
	container := enc.Marshal()
	flipped := append([]byte(nil), container...)
	flipped[len(flipped)-1] ^= 0xFF

	f.Add("POST", "v1/encode", "rows=32&cols=32&qp=30", stackBody(stack))
	f.Add("POST", "v1/encode", "rows=32&cols=32&qp=30&checksum=1", stackBody(stack))
	f.Add("POST", "v1/encode", "rows=32&cols=32&qp=30&backend=rans", stackBody(stack))
	f.Add("POST", "v1/encode", "rows=32&cols=32&qp=30&backend=backend(7)", stackBody(stack))
	f.Add("POST", "v1/decode", "", container)
	f.Add("POST", "v1/decode", "partial=1", flipped)
	f.Add("POST", "v1/decode", "", enc.Stream)
	f.Add("POST", "v1/decode", "", container[:len(container)/2])
	f.Add("GET", "healthz", "", []byte(nil))
	f.Add("GET", "metricsz", "", []byte(nil))
	f.Add("PUT", "v1/encode", "rows=-1&cols=99999999&qp=banana", []byte("x"))
	f.Add("POST", "v1/encode", "rows=1&cols=1&deadline_ms=0", []byte{0, 0, 0, 0})
	f.Add("POST", "v1/encode", "layers=4611686018427387905&rows=4&cols=1&qp=20", make([]byte, 16))
	f.Add("POST", "nope", "", []byte("L265"))

	// One server for the whole run: a tight body cap and geometry caps keep
	// each invented input cheap, and a server deadline bounds any encode the
	// fuzzer manages to make expensive.
	s := New(Config{MaxInflight: 2, MaxBodyBytes: 1 << 16, Workers: 1})
	h := s.Handler()

	f.Fuzz(func(t *testing.T, method, path, query string, body []byte) {
		if len(method) == 0 || len(method) > 8 {
			method = "POST"
		}
		for _, c := range method {
			if c < 'A' || c > 'Z' {
				method = "POST"
				break
			}
		}
		target := sanitizeTarget("/" + path)
		if query != "" {
			target += "?" + sanitizeTarget(query)
		}
		if _, err := url.ParseRequestURI(target); err != nil {
			// A real listener rejects unparseable request lines with 400
			// before routing; the handler never sees them, so neither
			// should the fuzz harness (NewRequest would panic).
			t.Skip()
		}
		req := httptest.NewRequest(method, "http://fuzz.local"+target, bytes.NewReader(body))
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, req)
		if !knownStatuses[rec.Code] {
			t.Fatalf("%s %s -> unmapped status %d (%.200s)", method, target, rec.Code, rec.Body.String())
		}
	})
}

// sanitizeTarget keeps the fuzzer's invented path/query a parseable request
// target: httptest.NewRequest panics on control characters or spaces, which
// would fail the run for reasons that are not service bugs.
func sanitizeTarget(target string) string {
	out := make([]byte, 0, len(target))
	for i := 0; i < len(target); i++ {
		c := target[i]
		if c <= ' ' || c >= 0x7f || c == '#' {
			out = append(out, '_')
			continue
		}
		out = append(out, c)
	}
	return string(out)
}
