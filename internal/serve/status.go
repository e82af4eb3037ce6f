package serve

import (
	"context"
	"encoding/json"
	"errors"
	"net/http"

	"repro/internal/codec"
	"repro/internal/kv"
	"repro/internal/obs"
)

// StatusClientClosedRequest is nginx's de-facto standard 499 for "the
// client hung up before we answered" — distinct from 504 so dashboards can
// tell impatient clients from blown compute budgets.
const StatusClientClosedRequest = 499

// errorClass is one row of the HTTP error table: the status a failure maps
// to, the class name its JSON envelope carries, the counter it rolls (nil:
// none) and the Retry-After it sends ("": none).
type errorClass struct {
	status     int
	name       string
	counter    func(*serveMetrics) *obs.Counter
	retryAfter string
}

func canceledCounter(m *serveMetrics) *obs.Counter { return m.errCanceled }

// The admission scheduler's own rejections: a full wait queue and a draining
// server.
var (
	errQueueFull = errors.New("serve: admission queue full")
	errDraining  = errors.New("serve: server is draining")
)

// errorTable maps the admission rejections, the codec/core error taxonomy
// (plus cancellation) and the kv session errors onto stable HTTP statuses —
// the contract pinned by TestErrorTaxonomyStatuses, TestKVHTTPTaxonomy and
// the admission tests:
//
//	errQueueFull               → 429 Too Many Requests  (Retry-After: 1; back off)
//	errDraining                → 503 Unavailable        (go to another replica)
//	context.DeadlineExceeded   → 504 Gateway Timeout    (compute budget blown)
//	context.Canceled           → 499 (client closed request)
//	codec.ErrChecksum          → 409 Conflict           (v3 CRC mismatch: bytes rotted)
//	codec.ErrTruncated         → 400 Bad Request        (stream ends early: refetch)
//	codec.ErrCorrupt           → 422 Unprocessable      (structurally wrong bitstream)
//	kv.ErrNotFound             → 404 Not Found          (no such session, or expired)
//	kv.ErrDimMismatch,
//	kv.ErrOffsetMismatch       → 409 Conflict           (dim / at= contradicts the session)
//	kv.ErrBudget               → 507 Insufficient Storage (cannot fit even after eviction)
//	kv.ErrRangeUnavailable     → 416 Range Not Satisfiable (no overlap with the window)
//	anything else              → 400 Bad Request        (malformed request inputs)
//
// Order matters: cancellation is checked before the payload classes because
// a canceled call returns bare ctx.Err() that must never be mistaken for a
// payload error, and ErrTruncated/ErrChecksum are checked before ErrCorrupt in
// case a future error value wraps several classes.
var errorTable = []struct {
	target error
	errorClass
}{
	{errQueueFull, errorClass{http.StatusTooManyRequests, "rejected", func(m *serveMetrics) *obs.Counter { return m.rejQueue }, "1"}},
	{errDraining, errorClass{http.StatusServiceUnavailable, "rejected", func(m *serveMetrics) *obs.Counter { return m.rejDraining }, ""}},
	{context.DeadlineExceeded, errorClass{http.StatusGatewayTimeout, "deadline_exceeded", canceledCounter, ""}},
	{context.Canceled, errorClass{StatusClientClosedRequest, "canceled", canceledCounter, ""}},
	{codec.ErrChecksum, errorClass{http.StatusConflict, "checksum", func(m *serveMetrics) *obs.Counter { return m.errChecksum }, ""}},
	{codec.ErrTruncated, errorClass{http.StatusBadRequest, "truncated", func(m *serveMetrics) *obs.Counter { return m.errTruncated }, ""}},
	{codec.ErrCorrupt, errorClass{http.StatusUnprocessableEntity, "corrupt", func(m *serveMetrics) *obs.Counter { return m.errCorrupt }, ""}},
	{kv.ErrNotFound, errorClass{http.StatusNotFound, "not_found", nil, ""}},
	{kv.ErrDimMismatch, errorClass{http.StatusConflict, "conflict", nil, ""}},
	{kv.ErrOffsetMismatch, errorClass{http.StatusConflict, "conflict", nil, ""}},
	{kv.ErrBudget, errorClass{http.StatusInsufficientStorage, "budget", nil, ""}},
	{kv.ErrRangeUnavailable, errorClass{http.StatusRequestedRangeNotSatisfiable, "range_unavailable", nil, ""}},
}

// classify finds err's row of the error table.
func classify(err error) errorClass {
	for _, row := range errorTable {
		if errors.Is(err, row.target) {
			return row.errorClass
		}
	}
	return errorClass{status: http.StatusBadRequest, name: "bad_request"}
}

// Classify is the error table's lookup for the proxy, which answers the
// requests it abandons itself with the same rows.
func Classify(err error) (status int, class string) {
	c := classify(err)
	return c.status, c.name
}

// errorBody is the JSON error envelope every non-2xx response carries.
type errorBody struct {
	Error string `json:"error"`
	Class string `json:"class"`
}

// WriteError writes the JSON error envelope — the one shape every non-2xx
// response of the service and of the proxy in front of it carries.
func WriteError(w http.ResponseWriter, status int, msg, class string) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	_ = json.NewEncoder(w).Encode(errorBody{Error: msg, Class: class})
}

// writeError classifies err, rolls its taxonomy counter and emits the
// envelope with the mapped status.
func (s *Server) writeError(w http.ResponseWriter, err error) {
	c := classify(err)
	if c.counter != nil {
		c.counter(&s.m).Inc()
	}
	if c.retryAfter != "" {
		w.Header().Set("Retry-After", c.retryAfter)
	}
	s.writeJSONError(w, c.status, err.Error(), c.name)
}

// writeJSONError writes an explicit status + message + class, for rejects
// that do not originate from a Go error value (413, 405, bad parameters).
func (s *Server) writeJSONError(w http.ResponseWriter, status int, msg, class string) {
	WriteError(w, status, msg, class)
	s.m.countStatus(status)
}
