package serve

import (
	"bytes"
	"context"
	"errors"
	"net/http"
	"net/http/httptest"
	"net/url"
	"strings"
	"sync/atomic"
	"testing"

	"repro/internal/kv"
)

// FuzzKVRequest throws arbitrary method/session/query/body combinations at
// the kv endpoints. Three invariants:
//
//  1. The handler stack never panics.
//  2. Every answer uses a status from the closed knownStatuses set.
//  3. A fuzzed request can never corrupt a previously committed prefix: a
//     reference session ("golden") holds committed rows whose bytes are
//     captured once, and after every fuzzed request the same range must
//     read back byte-identical — unless the fuzzed request legitimately
//     removed it (DELETE on the session, or budget eviction), in which
//     case the reference is rebuilt and, being deterministic, re-captures
//     the same bytes.
func FuzzKVRequest(f *testing.F) {
	const dim, rows = 8, 8
	// The eviction hook makes invariant 3 airtight: a vanished or narrowed
	// golden session is legal only when the table itself logged an eviction
	// of it (budget pressure from fuzzed appends) or the fuzzer deleted it.
	var goldenEvicted atomic.Bool
	tab := kv.New(kv.Config{
		FlushRows: 4, QP: 12, BudgetBytes: 8 << 20, Workers: 1,
		OnEvict: func(session string, _, _ int, _ bool) {
			if session == "golden" {
				goldenEvicted.Store(true)
			}
		},
	})
	s := New(Config{MaxInflight: 2, MaxBodyBytes: 1 << 14, Workers: 1, KV: tab})
	h := s.Handler()
	goldenRows := kvRows(77, 0, rows, dim)
	var want []byte // captured bytes of golden rows [0, rows)

	ensureGolden := func(t *testing.T) bool {
		if _, err := s.KV().Read(context.Background(), "golden", 0, 0); errors.Is(err, kv.ErrNotFound) {
			want = nil
			if _, err := s.KV().Append(context.Background(), "golden", dim, 0, goldenRows); err != nil {
				return false
			}
		}
		if want == nil {
			res, err := s.KV().Read(context.Background(), "golden", 0, rows)
			if err != nil {
				// Partially evicted: drop and rebuild next iteration.
				_ = s.KV().Delete("golden")
				return false
			}
			want = float32sToBytes(res.Vals)
		}
		return true
	}

	valid := float32sToBytes(kvRows(5, 0, 8, dim))
	f.Add("PUT", "sess", "dim=8&at=0", valid)
	f.Add("PUT", "sess", "dim=8", valid[:4])
	f.Add("PUT", "golden", "at=0", valid)
	f.Add("PUT", "golden", "dim=16", valid)
	f.Add("PUT", "x", "dim=100000&at=-3", valid)
	f.Add("GET", "sess", "range=0-8", []byte(nil))
	f.Add("GET", "golden", "range=2-6", []byte(nil))
	f.Add("GET", "golden", "range=99-", []byte(nil))
	f.Add("GET", "nope", "range=banana", []byte(nil))
	f.Add("DELETE", "sess", "", []byte(nil))
	f.Add("DELETE", "golden", "", []byte(nil))
	f.Add("POST", "sess", "", valid)
	f.Add("PUT", "sess", "dim=8&at=0&deadline_ms=0", valid)
	f.Add("PUT", "", "", []byte(nil))

	f.Fuzz(func(t *testing.T, method, session, query string, body []byte) {
		if len(method) == 0 || len(method) > 8 {
			method = "PUT"
		}
		for _, c := range method {
			if c < 'A' || c > 'Z' {
				method = "PUT"
				break
			}
		}
		target := "/v1/kv/" + sanitizeTarget(session)
		if query != "" {
			target += "?" + sanitizeTarget(query)
		}
		if _, err := url.ParseRequestURI(target); err != nil {
			t.Skip()
		}
		if !ensureGolden(t) {
			t.Skip()
		}

		req := httptest.NewRequest(method, "http://fuzz.local"+target, bytes.NewReader(body))
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, req)
		if !knownStatuses[rec.Code] {
			t.Fatalf("%s %s -> unmapped status %d (%.200s)", method, target, rec.Code, rec.Body.String())
		}

		// The committed-prefix invariant.
		check := httptest.NewRequest("GET", "http://fuzz.local/v1/kv/golden?range=0-8", nil)
		checkRec := httptest.NewRecorder()
		h.ServeHTTP(checkRec, check)
		switch checkRec.Code {
		case http.StatusOK:
			if !bytes.Equal(checkRec.Body.Bytes(), want) {
				t.Fatalf("%s %s corrupted the committed prefix of an unrelated session", method, target)
			}
		case http.StatusNotFound:
			// Legal only if the fuzzed request deleted the session or the
			// table logged a budget eviction of it.
			if !(method == "DELETE" && strings.Contains(target, "golden")) && !goldenEvicted.Load() {
				t.Fatalf("%s %s made session golden vanish", method, target)
			}
			want = nil
		case http.StatusPartialContent, http.StatusRequestedRangeNotSatisfiable:
			// Legal only under logged budget eviction; rebuild next iteration.
			if !goldenEvicted.Load() {
				t.Fatalf("%s %s narrowed a committed prefix without eviction", method, target)
			}
			_ = s.KV().Delete("golden")
			want = nil
		default:
			t.Fatalf("golden re-read -> %d (%.200s)", checkRec.Code, checkRec.Body.String())
		}
	})
}
