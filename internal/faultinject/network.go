// Network-layer fault injection: the bytes-on-disk sweeps in this package
// prove the decoder survives arbitrary corruption; FlakyTransport extends the
// same deterministic philosophy to backends-on-the-network. It wraps an
// http.RoundTripper with a scripted sequence of faults — injected latency,
// connection resets, mid-body truncation, spurious statuses, stalls — so the
// proxy's retry/backoff/hedging/ejection machinery can be driven through
// every failure shape it claims to handle, with exact, replayable timing of
// which request saw which fault (DESIGN.md §14).
//
// Determinism contract: faults are consumed from the script one per matching
// request, in request order, under a mutex. Tests that issue requests
// sequentially therefore see a fully deterministic fault assignment; a
// failure reproduces from the script alone, like the byte-sweep Fault
// records.
package faultinject

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"sync"
	"syscall"
	"time"
)

// NetFaultKind names one network failure shape.
type NetFaultKind int

const (
	// NetPass forwards the request untouched (a scripted "healthy" slot).
	NetPass NetFaultKind = iota
	// NetLatency delays the request by Delay, then forwards it.
	NetLatency
	// NetReset fails the request with a connection-reset error without
	// contacting the backend — the TCP RST / crashed-process shape.
	NetReset
	// NetTruncate forwards the request but delivers only Bytes bytes of the
	// response body before failing the read with a reset — the mid-body
	// link-cut shape. The proxy must never relay the prefix as a success.
	NetTruncate
	// NetStatus synthesizes an HTTP response with Code (and, when RetryAfter
	// is non-empty, a Retry-After header) without contacting the backend —
	// the spurious-500 / 503-drain shape.
	NetStatus
	// NetStall blocks until Delay elapses or the request context dies, then
	// fails with a reset — the hung-backend shape that only deadlines or
	// hedging can route around.
	NetStall
)

// String names the kind for test failure messages.
func (k NetFaultKind) String() string {
	switch k {
	case NetPass:
		return "pass"
	case NetLatency:
		return "latency"
	case NetReset:
		return "reset"
	case NetTruncate:
		return "truncate"
	case NetStatus:
		return "status"
	case NetStall:
		return "stall"
	default:
		return fmt.Sprintf("netfault(%d)", int(k))
	}
}

// NetFault is one scripted network fault.
type NetFault struct {
	Kind       NetFaultKind
	Delay      time.Duration // NetLatency: added latency; NetStall: hang time
	Bytes      int           // NetTruncate: body bytes delivered before the cut
	Code       int           // NetStatus: the synthesized HTTP status
	RetryAfter string        // NetStatus: Retry-After header value, if any
}

// errInjectedReset is what a scripted reset surfaces as: a *net.OpError
// wrapping ECONNRESET, the same shape a real RST produces, so code under
// test cannot tell injected faults from genuine ones.
func errInjectedReset() error {
	return &net.OpError{Op: "read", Net: "tcp", Err: syscall.ECONNRESET}
}

// FlakyTransport is a deterministic flaky-network wrapper around an inner
// http.RoundTripper. Requests matching Match (all requests when nil) consume
// the next scripted fault; when the script is exhausted they pass through
// untouched. Safe for concurrent use; the script cursor advances atomically
// per matching request.
type FlakyTransport struct {
	// Inner performs real round trips. nil means http.DefaultTransport.
	Inner http.RoundTripper
	// Match selects which requests consume script faults — typically a
	// host/path filter so health probes or a specific backend are targeted.
	// nil matches every request.
	Match func(*http.Request) bool

	mu      sync.Mutex
	script  []NetFault
	cursor  int
	matched int
	applied map[NetFaultKind]int
}

// Enqueue appends faults to the script.
func (t *FlakyTransport) Enqueue(faults ...NetFault) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.script = append(t.script, faults...)
}

// Reset clears the script, its cursor and the counters.
func (t *FlakyTransport) Reset() {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.script, t.cursor, t.matched, t.applied = nil, 0, 0, nil
}

// Matched reports how many requests matched (and therefore consumed or
// passed beyond the script).
func (t *FlakyTransport) Matched() int {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.matched
}

// Applied reports how many faults of each kind were actually injected
// (NetPass slots and exhausted-script pass-throughs are not counted).
func (t *FlakyTransport) Applied() map[NetFaultKind]int {
	t.mu.Lock()
	defer t.mu.Unlock()
	out := make(map[NetFaultKind]int, len(t.applied))
	for k, v := range t.applied {
		out[k] = v
	}
	return out
}

// next pops the fault for one matching request.
func (t *FlakyTransport) next() NetFault {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.matched++
	if t.cursor >= len(t.script) {
		return NetFault{Kind: NetPass}
	}
	f := t.script[t.cursor]
	t.cursor++
	if f.Kind != NetPass {
		if t.applied == nil {
			t.applied = map[NetFaultKind]int{}
		}
		t.applied[f.Kind]++
	}
	return f
}

func (t *FlakyTransport) inner() http.RoundTripper {
	if t.Inner != nil {
		return t.Inner
	}
	return http.DefaultTransport
}

// RoundTrip implements http.RoundTripper with the scripted fault applied.
func (t *FlakyTransport) RoundTrip(req *http.Request) (*http.Response, error) {
	if t.Match != nil && !t.Match(req) {
		return t.inner().RoundTrip(req)
	}
	f := t.next()
	switch f.Kind {
	case NetLatency:
		select {
		case <-time.After(f.Delay):
		case <-req.Context().Done():
			return nil, req.Context().Err()
		}
		return t.inner().RoundTrip(req)
	case NetReset:
		// The connection dies before the request is delivered; drain nothing.
		if req.Body != nil {
			req.Body.Close()
		}
		return nil, errInjectedReset()
	case NetStall:
		if req.Body != nil {
			req.Body.Close()
		}
		select {
		case <-time.After(f.Delay):
			return nil, errInjectedReset()
		case <-req.Context().Done():
			return nil, req.Context().Err()
		}
	case NetStatus:
		if req.Body != nil {
			io.Copy(io.Discard, req.Body)
			req.Body.Close()
		}
		body := fmt.Sprintf(`{"error":"faultinject: injected %d","class":"injected"}`, f.Code)
		resp := &http.Response{
			StatusCode:    f.Code,
			Status:        fmt.Sprintf("%d %s", f.Code, http.StatusText(f.Code)),
			Proto:         "HTTP/1.1",
			ProtoMajor:    1,
			ProtoMinor:    1,
			Header:        http.Header{"Content-Type": []string{"application/json"}},
			Body:          io.NopCloser(bytes.NewReader([]byte(body))),
			ContentLength: int64(len(body)),
			Request:       req,
		}
		if f.RetryAfter != "" {
			resp.Header.Set("Retry-After", f.RetryAfter)
		}
		return resp, nil
	case NetTruncate:
		resp, err := t.inner().RoundTrip(req)
		if err != nil {
			return nil, err
		}
		resp.Body = &truncatedBody{inner: resp.Body, remaining: f.Bytes}
		// The advertised length no longer matches what will be delivered —
		// exactly the lie a cut connection tells.
		return resp, nil
	default:
		return t.inner().RoundTrip(req)
	}
}

// truncatedBody delivers at most remaining bytes of the inner body, then
// fails the read with a connection reset (not io.EOF — a truncation must
// never look like a clean end of stream).
type truncatedBody struct {
	inner     io.ReadCloser
	remaining int
}

func (b *truncatedBody) Read(p []byte) (int, error) {
	if b.remaining <= 0 {
		return 0, errInjectedReset()
	}
	if len(p) > b.remaining {
		p = p[:b.remaining]
	}
	n, err := b.inner.Read(p)
	b.remaining -= n
	if err == io.EOF {
		// The real body ended inside the allowance; the cut never happened.
		return n, io.EOF
	}
	if err == nil && b.remaining <= 0 {
		err = errInjectedReset()
	}
	return n, err
}

func (b *truncatedBody) Close() error { return b.inner.Close() }

// ScriptStatus is shorthand for a synthesized status fault.
func ScriptStatus(code int, retryAfter string) NetFault {
	return NetFault{Kind: NetStatus, Code: code, RetryAfter: retryAfter}
}

// ScriptLatency is shorthand for an added-latency fault.
func ScriptLatency(d time.Duration) NetFault { return NetFault{Kind: NetLatency, Delay: d} }

// ScriptReset is shorthand for a connection-reset fault.
func ScriptReset() NetFault { return NetFault{Kind: NetReset} }

// ScriptTruncate is shorthand for a mid-body truncation after n bytes.
func ScriptTruncate(n int) NetFault { return NetFault{Kind: NetTruncate, Bytes: n} }

// ScriptStall is shorthand for a hang of duration d ending in a reset.
func ScriptStall(d time.Duration) NetFault { return NetFault{Kind: NetStall, Delay: d} }

// MatchHost returns a Match predicate selecting one backend by host:port.
func MatchHost(host string) func(*http.Request) bool {
	return func(r *http.Request) bool { return r.URL.Host == host }
}

// MatchHostPathPrefix selects one backend's traffic under a path prefix —
// the usual shape: target /v1/ traffic while health probes pass untouched.
func MatchHostPathPrefix(host, prefix string) func(*http.Request) bool {
	return func(r *http.Request) bool {
		return r.URL.Host == host && len(r.URL.Path) >= len(prefix) && r.URL.Path[:len(prefix)] == prefix
	}
}

// IsInjectedReset reports whether err is (or wraps) the connection-reset
// error this package injects — which, by construction, also matches real
// ECONNRESETs.
func IsInjectedReset(err error) bool {
	return errors.Is(err, syscall.ECONNRESET)
}
