package serve

import (
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"strconv"
	"strings"
	"time"

	"repro/internal/kv"
)

// The kv session endpoints (DESIGN.md §16):
//
//	PUT    /v1/kv/{session}?dim=D[&at=T]   append token rows (raw float32 LE body)
//	GET    /v1/kv/{session}[?range=t0-t1]  read token rows back (float32 LE body)
//	DELETE /v1/kv/{session}                drop the session
//
// Status taxonomy, rows of the shared error table (status.go):
//
//	404  session not found (or expired)
//	409  dim / at= precondition conflicts with the session
//	416  requested range has no overlap with the available window
//	507  append cannot fit under the byte budget even after eviction
//	206  range served, but narrowed by prefix eviction or end clamping
//
// Every GET answer (2xx or 416) carries the session window headers:
// X-Llm265-Kv-From/To/Total/Committed/Evicted/Dim — a 206's From is exactly
// where eviction cut the prefix, which the soak harness cross-checks against
// the table's eviction log.

// parseKVRange parses ?range=t0-t1; "t0-" means to the end, absent means the
// whole session.
func parseKVRange(raw string) (int, int, error) {
	if raw == "" {
		return 0, -1, nil
	}
	lo, hi, ok := strings.Cut(raw, "-")
	if !ok {
		return 0, 0, fmt.Errorf("serve: range %q is not t0-t1", raw)
	}
	t0, err := strconv.Atoi(lo)
	if err != nil || t0 < 0 {
		return 0, 0, fmt.Errorf("serve: bad range start %q", lo)
	}
	t1 := -1
	if hi != "" {
		if t1, err = strconv.Atoi(hi); err != nil || t1 < t0 {
			return 0, 0, fmt.Errorf("serve: bad range end %q", hi)
		}
	}
	return t0, t1, nil
}

// setKVWindow stamps the session window headers on every kv GET answer.
func setKVWindow(w http.ResponseWriter, res kv.ReadResult) {
	h := w.Header()
	h.Set("X-Llm265-Kv-From", strconv.Itoa(res.From))
	h.Set("X-Llm265-Kv-To", strconv.Itoa(res.To))
	h.Set("X-Llm265-Kv-Total", strconv.Itoa(res.Total))
	h.Set("X-Llm265-Kv-Committed", strconv.Itoa(res.Committed))
	h.Set("X-Llm265-Kv-Evicted", strconv.Itoa(res.Evicted))
	h.Set("X-Llm265-Kv-Dim", strconv.Itoa(res.Dim))
}

// handleKV routes /v1/kv/{session} by method.
func (s *Server) handleKV(w http.ResponseWriter, r *http.Request) {
	session := strings.TrimPrefix(r.URL.Path, "/v1/kv/")
	if session == "" || strings.Contains(session, "/") {
		s.writeJSONError(w, http.StatusNotFound, "serve: kv path is /v1/kv/{session}", "not_found")
		return
	}
	start := time.Now()
	defer func() { s.m.kvLatency.Observe(time.Since(start).Nanoseconds()) }()
	switch r.Method {
	case http.MethodPut:
		s.handleKVPut(w, r, session)
	case http.MethodGet:
		s.handleKVGet(w, r, session)
	case http.MethodDelete:
		s.handleKVDelete(w, session)
	default:
		s.writeJSONError(w, http.StatusMethodNotAllowed, "serve: PUT, GET or DELETE only", "bad_request")
	}
}

// handleKVPut appends token rows: a raw float32 LE body of whole rows, with
// ?dim=D (required on first use) and optional ?at=T asserting the session's
// current length — the streaming idempotency precondition. Completed flush
// groups are encoded incrementally; the response reports what committed.
func (s *Server) handleKVPut(w http.ResponseWriter, r *http.Request, session string) {
	s.m.kvPutReq.Inc()
	q := r.URL.Query()
	ctx, cancel, err := requestCtx(r)
	if err != nil {
		s.writeJSONError(w, http.StatusBadRequest, err.Error(), "bad_request")
		return
	}
	defer cancel()
	dim, err := queryInt(q, "dim", 0)
	if err == nil && dim < 0 {
		err = fmt.Errorf("serve: dim=%d must be positive", dim)
	}
	var at int
	if err == nil {
		at, err = queryInt(q, "at", -1)
	}
	if err != nil {
		s.writeJSONError(w, http.StatusBadRequest, err.Error(), "bad_request")
		return
	}
	body, ok := s.readBody(w, r)
	if !ok {
		return
	}
	if len(body)%4 != 0 {
		s.writeJSONError(w, http.StatusBadRequest,
			fmt.Sprintf("serve: %d-byte body is not whole float32s", len(body)), "bad_request")
		return
	}

	release, ok := s.admitOrReject(w, ctx)
	if !ok {
		return
	}
	defer release()

	res, err := s.kv.Append(ctx, session, dim, at, bytesToFloat32s(body))
	if err != nil {
		s.writeError(w, err)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(http.StatusOK)
	json.NewEncoder(w).Encode(res)
	s.m.countStatus(http.StatusOK)
}

// handleKVGet serves tokens [t0, t1) back as a raw float32 LE body. A window
// narrowed by prefix eviction (or an explicit end past the session) answers
// 206; a request with no overlap at all answers 416. Both carry the window
// headers, so a client can see exactly which tokens it got and which are
// gone.
func (s *Server) handleKVGet(w http.ResponseWriter, r *http.Request, session string) {
	s.m.kvGetReq.Inc()
	q := r.URL.Query()
	ctx, cancel, err := requestCtx(r)
	if err != nil {
		s.writeJSONError(w, http.StatusBadRequest, err.Error(), "bad_request")
		return
	}
	defer cancel()
	t0, t1, err := parseKVRange(q.Get("range"))
	if err != nil {
		s.writeJSONError(w, http.StatusBadRequest, err.Error(), "bad_request")
		return
	}

	release, ok := s.admitOrReject(w, ctx)
	if !ok {
		return
	}
	defer release()

	res, err := s.kv.Read(ctx, session, t0, t1)
	if err != nil {
		if errors.Is(err, kv.ErrRangeUnavailable) {
			setKVWindow(w, res)
		}
		s.writeError(w, err)
		return
	}
	setKVWindow(w, res)
	status := http.StatusOK
	if res.From > t0 || (t1 >= 0 && res.To < t1) {
		status = http.StatusPartialContent
	}
	w.Header().Set("Content-Type", "application/octet-stream")
	declareLength(w, 4*len(res.Vals))
	w.WriteHeader(status)
	w.Write(float32sToBytes(res.Vals))
	s.m.countStatus(status)
}

// handleKVDelete drops the session. Deletion is cheap bookkeeping, so it
// skips admission — a drain must not wedge session cleanup.
func (s *Server) handleKVDelete(w http.ResponseWriter, session string) {
	if err := s.kv.Delete(session); err != nil {
		s.writeError(w, err)
		return
	}
	w.WriteHeader(http.StatusNoContent)
	s.m.countStatus(http.StatusNoContent)
}
