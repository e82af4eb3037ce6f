package proxy

import (
	"bytes"
	"context"
	"errors"
	"io"
	"net/http"
	"testing"
	"time"

	"repro/internal/kv"
	"repro/internal/serve"
)

// newKVBackends builds n serve instances, each with its own session table —
// the stateful topology the proxy's session affinity exists for.
func newKVBackends(t testing.TB, n int) []*testBackend {
	t.Helper()
	return newTestBackendsCfg(t, n, func(int) serve.Config {
		return serve.Config{
			MaxInflight: 4,
			KV:          kv.New(kv.Config{FlushRows: 8, QP: 12, Workers: 1}),
		}
	})
}

func kvDo(t testing.TB, method, url string, body []byte) (int, []byte, http.Header) {
	t.Helper()
	req, err := http.NewRequest(method, url, bytes.NewReader(body))
	if err != nil {
		t.Fatalf("%s %s: %v", method, url, err)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatalf("%s %s: %v", method, url, err)
	}
	defer resp.Body.Close()
	out, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatalf("reading %s %s response: %v", method, url, err)
	}
	return resp.StatusCode, out, resp.Header
}

// TestProxyKVSessionAffinity: every request for a session routes to one
// stable backend (the session path segment is the consistent-hash key), the
// session is resident on exactly that backend, reads through the proxy are
// byte-identical to reads against the owner directly, DELETE drops it, and
// no kv request is ever hedged — even with a hedge delay of one nanosecond.
func TestProxyKVSessionAffinity(t *testing.T) {
	backends := newKVBackends(t, 3)
	_, base := newTestProxy(t, backends, nil, func(c *Config) {
		c.HedgeDelay = time.Nanosecond // would fire instantly if kv hedged
	})

	const dim, rows = 8, 20
	sessions := []string{"alpha", "beta", "gamma", "delta", "epsilon", "zeta"}
	owner := make(map[string]*testBackend, len(sessions))
	for i, s := range sessions {
		body := encodeBody(int64(100+i), 1, rows, dim)
		status, resp, hdr := kvDo(t, "PUT", base+"/v1/kv/"+s+"?dim=8&at=0", body)
		if status != http.StatusOK {
			t.Fatalf("PUT %s -> %d (%.200s)", s, status, resp)
		}
		host := hdr.Get("X-Llm265-Backend")
		for _, b := range backends {
			if b.host == host {
				owner[s] = b
			}
		}
		if owner[s] == nil {
			t.Fatalf("PUT %s answered by unknown backend %q", s, host)
		}
	}

	for _, s := range sessions {
		// The session lives on exactly the backend that answered the PUT.
		resident := 0
		for _, b := range backends {
			// An empty range reads nothing: ErrRangeUnavailable where the
			// session lives, ErrNotFound elsewhere.
			if _, err := b.srv.KV().Read(context.Background(), s, 0, 0); errors.Is(err, kv.ErrRangeUnavailable) {
				resident++
				if b != owner[s] {
					t.Fatalf("session %s resident on %s, but proxy routed to %s",
						s, b.host, owner[s].host)
				}
			} else if !errors.Is(err, kv.ErrNotFound) {
				t.Fatalf("Read(%s) on %s: %v", s, b.host, err)
			}
		}
		if resident != 1 {
			t.Fatalf("session %s resident on %d backends, want exactly 1", s, resident)
		}

		// Repeated reads stay on the owner and match a direct read bit for bit.
		_, direct, _ := kvDo(t, "GET", owner[s].ts.URL+"/v1/kv/"+s, nil)
		for i := 0; i < 3; i++ {
			status, got, hdr := kvDo(t, "GET", base+"/v1/kv/"+s, nil)
			if status != http.StatusOK {
				t.Fatalf("GET %s -> %d (%.200s)", s, status, got)
			}
			if h := hdr.Get("X-Llm265-Backend"); h != owner[s].host {
				t.Fatalf("GET %s routed to %s, owner is %s", s, h, owner[s].host)
			}
			if want := rows * dim * 4; len(got) != want {
				t.Fatalf("GET %s: %d bytes, want %d", s, len(got), want)
			}
			if !bytes.Equal(got, direct) {
				t.Fatalf("GET %s through proxy differs from direct read", s)
			}
		}
	}

	// DELETE through the proxy reaches the owner and the session is gone.
	victim := sessions[0]
	if status, resp, _ := kvDo(t, "DELETE", base+"/v1/kv/"+victim, nil); status != http.StatusNoContent {
		t.Fatalf("DELETE %s -> %d (%.200s)", victim, status, resp)
	}
	if status, _, _ := kvDo(t, "GET", base+"/v1/kv/"+victim, nil); status != http.StatusNotFound {
		t.Fatalf("GET after DELETE -> %d, want 404", status)
	}

	if c := counters(t, base); c["proxy.hedges"] != 0 {
		t.Fatalf("kv traffic hedged %d times; kv must never hedge", c["proxy.hedges"])
	}
}

// TestProxyKVRangeHeaders: ranged partial reads relay the kv window headers
// untouched — the proxy must be invisible to the 206 resume protocol.
func TestProxyKVRangeHeaders(t *testing.T) {
	backends := newKVBackends(t, 2)
	_, base := newTestProxy(t, backends, nil, nil)

	const dim, rows = 8, 20
	body := encodeBody(7, 1, rows, dim)
	if status, resp, _ := kvDo(t, "PUT", base+"/v1/kv/win?dim=8&at=0", body); status != http.StatusOK {
		t.Fatalf("PUT -> %d (%.200s)", status, resp)
	}
	status, got, hdr := kvDo(t, "GET", base+"/v1/kv/win?range=4-12", nil)
	if status != http.StatusOK {
		t.Fatalf("ranged GET -> %d (%.200s)", status, got)
	}
	if hdr.Get("X-Llm265-Kv-From") != "4" || hdr.Get("X-Llm265-Kv-To") != "12" {
		t.Fatalf("window headers From=%q To=%q, want 4/12",
			hdr.Get("X-Llm265-Kv-From"), hdr.Get("X-Llm265-Kv-To"))
	}
	if len(got) != 8*dim*4 {
		t.Fatalf("ranged GET: %d bytes, want %d", len(got), 8*dim*4)
	}
	if status, _, _ := kvDo(t, "GET", base+"/v1/kv/win?range=banana", nil); status != http.StatusBadRequest {
		t.Fatalf("malformed range -> %d, want 400", status)
	}
}

// TestProxyKVFailoverIsCacheMiss: when the session owner dies, retries fail
// over to the next ring replica, which does not hold the session — the
// client sees an honest 404 cache miss, never a hang or a 502, and rebuilds.
func TestProxyKVFailoverIsCacheMiss(t *testing.T) {
	backends := newKVBackends(t, 2)
	_, base := newTestProxy(t, backends, nil, nil)

	const dim, rows = 8, 8
	body := encodeBody(9, 1, rows, dim)
	status, resp, hdr := kvDo(t, "PUT", base+"/v1/kv/doomed?dim=8&at=0", body)
	if status != http.StatusOK {
		t.Fatalf("PUT -> %d (%.200s)", status, resp)
	}
	ownerHost := hdr.Get("X-Llm265-Backend")
	var survivor *testBackend
	for _, b := range backends {
		if b.host == ownerHost {
			b.ts.Close() // connection refused from here on
		} else {
			survivor = b
		}
	}

	status, got, hdr := kvDo(t, "GET", base+"/v1/kv/doomed", nil)
	if status != http.StatusNotFound {
		t.Fatalf("GET after owner death -> %d (%.200s), want 404", status, got)
	}
	if h := hdr.Get("X-Llm265-Backend"); h != survivor.host {
		t.Fatalf("failover answered by %q, want survivor %s", h, survivor.host)
	}
}

// TestProxyKVValidation: the proxy rejects what serve would reject, before
// spending an upstream attempt.
func TestProxyKVValidation(t *testing.T) {
	backends := newKVBackends(t, 1)
	_, base := newTestProxy(t, backends, nil, nil)

	for _, tc := range []struct {
		method, path string
		want         int
	}{
		{"POST", "/v1/kv/x", http.StatusMethodNotAllowed},
		{"PATCH", "/v1/kv/x", http.StatusMethodNotAllowed},
		{"PUT", "/v1/kv/", http.StatusNotFound},
		{"GET", "/v1/kv/a/b", http.StatusNotFound},
	} {
		if status, resp, _ := kvDo(t, tc.method, base+tc.path, nil); status != tc.want {
			t.Fatalf("%s %s -> %d (%.200s), want %d", tc.method, tc.path, status, resp, tc.want)
		}
	}
}
