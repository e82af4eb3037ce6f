package serve

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"net/http"
	"net/url"
	"strconv"
	"time"

	"repro/internal/codec"
	"repro/internal/core"
	"repro/internal/dct"
)

// requestCtx derives the compute context for one request: the connection
// context (dies when the client hangs up), tightened by the request's
// ?deadline_ms=N when present. The returned cancel must always be called.
func requestCtx(r *http.Request) (context.Context, context.CancelFunc, error) {
	raw := r.URL.Query().Get("deadline_ms")
	if raw == "" {
		ctx, cancel := context.WithCancel(r.Context())
		return ctx, cancel, nil
	}
	// The bound keeps ms×time.Millisecond from wrapping to a negative timeout.
	ms, err := strconv.ParseInt(raw, 10, 64)
	if err != nil || ms <= 0 || ms > math.MaxInt64/int64(time.Millisecond) {
		return nil, nil, fmt.Errorf("serve: bad deadline_ms %q", raw)
	}
	ctx, cancel := context.WithTimeout(r.Context(), time.Duration(ms)*time.Millisecond)
	return ctx, cancel, nil
}

// queryBool parses a boolean query parameter; absent means false, a bare
// "?checksum" (empty value) means true.
func queryBool(q url.Values, key string) (bool, error) {
	if !q.Has(key) {
		return false, nil
	}
	raw := q.Get(key)
	if raw == "" {
		return true, nil
	}
	v, err := strconv.ParseBool(raw)
	if err != nil {
		return false, fmt.Errorf("serve: bad boolean %s=%q", key, raw)
	}
	return v, nil
}

// queryInt parses an integer query parameter with a default.
func queryInt(q url.Values, key string, def int) (int, error) {
	raw := q.Get(key)
	if raw == "" {
		return def, nil
	}
	v, err := strconv.Atoi(raw)
	if err != nil {
		return 0, fmt.Errorf("serve: bad integer %s=%q", key, raw)
	}
	return v, nil
}

// optionsFromQuery maps query parameters onto core.Options — the same knobs
// the CLI exposes: profile (h264|h265|av1), backend (cabac|rans), checksum,
// per-row, max-frame-w/h. Workers always comes from the server config so one
// client cannot oversubscribe the pool.
func (s *Server) optionsFromQuery(q url.Values) (core.Options, error) {
	o := core.DefaultOptions()
	o.Workers = s.cfg.Workers
	o.Metrics = s.reg
	var err error
	if o.Profile, err = codec.ParseProfile(q.Get("profile")); err != nil {
		return o, fmt.Errorf("serve: %w", err)
	}
	if o.Backend, err = codec.ParseBackend(q.Get("backend")); err != nil {
		return o, fmt.Errorf("serve: %w", err)
	}
	if o.Checksum, err = queryBool(q, "checksum"); err != nil {
		return o, err
	}
	if q.Has("index") {
		// A removed knob that used to imply checksum: refuse it rather than
		// silently drop the CRCs the client asked for.
		return o, errors.New("serve: index= is no longer supported; use checksum=1 for the CRC-protected container")
	}
	if o.PerRowQuant, err = queryBool(q, "per-row"); err != nil {
		return o, err
	}
	if o.MaxFrameW, err = queryInt(q, "max-frame-w", o.MaxFrameW); err != nil {
		return o, err
	}
	if o.MaxFrameH, err = queryInt(q, "max-frame-h", o.MaxFrameH); err != nil {
		return o, err
	}
	if o.MaxFrameW <= 0 || o.MaxFrameH <= 0 {
		return o, fmt.Errorf("serve: frame bounds %dx%d must be positive", o.MaxFrameW, o.MaxFrameH)
	}
	return o, nil
}

// readBody slurps the request body under the configured cap, mapping an
// overflow to 413. A read that fails because the request context died is the
// client hanging up (or the deadline blowing) mid-body — that classifies as
// 499/504 through the shared taxonomy, never as the client's 400: a
// streaming PUT abandoned halfway is not a malformed request.
func (s *Server) readBody(w http.ResponseWriter, r *http.Request) ([]byte, bool) {
	body, err := ReadBody(http.MaxBytesReader(w, r.Body, s.cfg.MaxBodyBytes), r.ContentLength, s.cfg.MaxBodyBytes)
	if err != nil {
		var tooLarge *http.MaxBytesError
		if errors.As(err, &tooLarge) {
			s.m.rejTooLarge.Inc()
			s.writeJSONError(w, http.StatusRequestEntityTooLarge,
				fmt.Sprintf("serve: body exceeds %d bytes", s.cfg.MaxBodyBytes), "too_large")
			return nil, false
		}
		if cerr := r.Context().Err(); cerr != nil {
			s.m.errCanceled.Inc()
			c := classify(cerr)
			s.writeJSONError(w, c.status, "serve: reading body: "+err.Error(), c.name)
			return nil, false
		}
		s.writeJSONError(w, http.StatusBadRequest, "serve: reading body: "+err.Error(), "bad_request")
		return nil, false
	}
	return body, true
}

// declareLength sets Content-Length on a reply whose body is about to be
// written whole. Without it net/http chunks any body past its 2 KB buffer, and
// the reader — the proxy's forwardOnce — learns the size only by growing into
// it.
func declareLength(w http.ResponseWriter, n int) {
	w.Header().Set("Content-Length", strconv.Itoa(n))
}

// admitOrReject runs the admission scheduler for one request, recording the
// queue wait. ok=false means the rejection response has been written.
func (s *Server) admitOrReject(w http.ResponseWriter, ctx context.Context) (release func(), ok bool) {
	waitStart := time.Now()
	release, err := s.adm.admit(ctx)
	s.m.queueWait.Observe(time.Since(waitStart).Nanoseconds())
	if err != nil {
		s.writeError(w, err)
		return nil, false
	}
	return release, true
}

// handleEncode is POST /v1/encode: a raw float32 LE tensor body plus
// geometry query params in, a .l265 container out.
func (s *Server) handleEncode(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		s.writeJSONError(w, http.StatusMethodNotAllowed, "serve: POST only", "bad_request")
		return
	}
	s.m.encReq.Inc()
	start := time.Now()
	defer func() { s.m.encLatency.Observe(time.Since(start).Nanoseconds()) }()

	q := r.URL.Query()
	ctx, cancel, err := requestCtx(r)
	if err != nil {
		s.writeJSONError(w, http.StatusBadRequest, err.Error(), "bad_request")
		return
	}
	defer cancel()
	opts, err := s.optionsFromQuery(q)
	if err != nil {
		s.writeJSONError(w, http.StatusBadRequest, err.Error(), "bad_request")
		return
	}
	layers, err := queryInt(q, "layers", 1)
	if err == nil && layers <= 0 {
		err = fmt.Errorf("serve: layers=%d must be positive", layers)
	}
	var rows, cols, qp int
	if err == nil {
		rows, err = queryInt(q, "rows", 0)
	}
	if err == nil {
		cols, err = queryInt(q, "cols", 0)
	}
	if err == nil && (rows <= 0 || cols <= 0) {
		err = fmt.Errorf("serve: rows=%d cols=%d are required and must be positive", rows, cols)
	}
	if err == nil {
		qp, err = queryInt(q, "qp", 30)
	}
	if err == nil && (qp < 0 || qp > dct.MaxQP) {
		err = fmt.Errorf("serve: qp=%d out of range [0,%d]", qp, dct.MaxQP)
	}
	// Divided, not multiplied: layers×rows×cols can overflow int64.
	if limit := s.cfg.MaxBodyBytes / 4; err == nil && (int64(cols) > limit/int64(rows) || int64(layers) > limit/int64(rows)/int64(cols)) {
		err = fmt.Errorf("serve: %d×%d×%d tensor exceeds the body cap", layers, rows, cols)
	}
	if err != nil {
		s.writeJSONError(w, http.StatusBadRequest, err.Error(), "bad_request")
		return
	}

	body, ok := s.readBody(w, r)
	if !ok {
		return
	}
	want := 4 * layers * rows * cols
	if len(body) != want {
		s.writeJSONError(w, http.StatusBadRequest,
			fmt.Sprintf("serve: body is %d bytes, %d×%d×%d float32 tensor needs %d", len(body), layers, rows, cols, want),
			"bad_request")
		return
	}

	release, ok := s.admitOrReject(w, ctx)
	if !ok {
		return
	}
	defer release()

	vals := bytesToFloat32s(body)
	stack := make([]*core.Tensor, layers)
	per := rows * cols
	for l := 0; l < layers; l++ {
		stack[l] = core.FromSlice(rows, cols, vals[l*per:(l+1)*per])
	}
	enc, err := opts.EncodeStackCtx(ctx, stack, qp)
	if err != nil {
		s.writeError(w, err)
		return
	}
	out := enc.Marshal()
	w.Header().Set("Content-Type", "application/octet-stream")
	w.Header().Set("X-Llm265-Bits-Per-Value", strconv.FormatFloat(enc.BitsPerValue(), 'f', 4, 64))
	w.Header().Set("X-Llm265-Chunks", strconv.Itoa(enc.Stats.Chunks))
	declareLength(w, len(out))
	w.WriteHeader(http.StatusOK)
	w.Write(out)
	s.m.countStatus(http.StatusOK)
}

// handleDecode is POST /v1/decode. The container kind is auto-detected from
// the bytes: a core ".l265" container ("L265T\x01") decodes to a float32 LE
// tensor body; a codec-level container ("L265" + version 1|2|3) decodes to
// a GPLN plane body, byte-comparable against the golden corpus. With
// ?partial=1 a damaged stream answers 206 with whatever verified, instead
// of an error.
func (s *Server) handleDecode(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		s.writeJSONError(w, http.StatusMethodNotAllowed, "serve: POST only", "bad_request")
		return
	}
	s.m.decReq.Inc()
	start := time.Now()
	defer func() { s.m.decLatency.Observe(time.Since(start).Nanoseconds()) }()

	q := r.URL.Query()
	ctx, cancel, err := requestCtx(r)
	if err != nil {
		s.writeJSONError(w, http.StatusBadRequest, err.Error(), "bad_request")
		return
	}
	defer cancel()
	partial, err := queryBool(q, "partial")
	if err != nil {
		s.writeJSONError(w, http.StatusBadRequest, err.Error(), "bad_request")
		return
	}
	body, ok := s.readBody(w, r)
	if !ok {
		return
	}

	release, ok := s.admitOrReject(w, ctx)
	if !ok {
		return
	}
	defer release()

	// The sniff window is magic + kind byte. A body too short to hold it is
	// truncation (every valid container is longer), not corruption — the
	// client should refetch, so it must see 400, never 422 or a misroute.
	switch {
	case len(body) < 5:
		s.writeError(w, fmt.Errorf("serve: %d-byte body ends inside the container magic: %w",
			len(body), codec.ErrTruncated))
	case string(body[:4]) != "L265":
		s.writeError(w, fmt.Errorf("serve: unrecognized container: %w", codec.ErrCorrupt))
	case body[4] == 'T':
		s.decodeCore(w, ctx, body, partial)
	case body[4] >= 1 && body[4] <= 3:
		s.decodeCodec(w, ctx, body, partial)
	default:
		s.writeError(w, fmt.Errorf("serve: unsupported container version %d: %w",
			body[4], codec.ErrCorrupt))
	}
}

// decodeCore serves a core .l265 container back as a float32 LE tensor
// body with the geometry in X-Llm265-* headers.
func (s *Server) decodeCore(w http.ResponseWriter, ctx context.Context, body []byte, partial bool) {
	enc, err := core.UnmarshalEncoded(body)
	if err != nil {
		s.writeError(w, err)
		return
	}
	opts := core.DefaultOptions()
	opts.Workers = s.cfg.Workers
	opts.Metrics = s.reg

	status := http.StatusOK
	var stack []*core.Tensor
	if partial {
		var report *core.DecodeReport
		stack, report, err = opts.DecodeStackPartialCtx(ctx, enc)
		if err == nil && !report.Complete() {
			status = http.StatusPartialContent
			w.Header().Set("X-Llm265-Failed-Chunks", strconv.Itoa(report.FailedChunks))
			w.Header().Set("X-Llm265-Recovered-Planes", strconv.Itoa(report.RecoveredPlanes))
			w.Header().Set("X-Llm265-Total-Planes", strconv.Itoa(report.TotalPlanes))
		}
	} else {
		stack, err = opts.DecodeStackCtx(ctx, enc)
	}
	if err != nil {
		s.writeError(w, err)
		return
	}
	w.Header().Set("Content-Type", "application/octet-stream")
	w.Header().Set("X-Llm265-Layers", strconv.Itoa(enc.Layers))
	w.Header().Set("X-Llm265-Rows", strconv.Itoa(enc.Rows))
	w.Header().Set("X-Llm265-Cols", strconv.Itoa(enc.Cols))
	total := 0
	for _, t := range stack {
		total += 4 * len(t.Data)
	}
	declareLength(w, total)
	w.WriteHeader(status)
	for _, t := range stack {
		w.Write(float32sToBytes(t.Data))
	}
	s.m.countStatus(status)
}

// decodeCodec serves a codec-level container back as a GPLN plane body —
// the golden conformance format, so corpus vectors round-trip through HTTP
// byte-identically.
func (s *Server) decodeCodec(w http.ResponseWriter, ctx context.Context, body []byte, partial bool) {
	res, err := codec.Decode(ctx, body, codec.DecodeConfig{Workers: s.cfg.Workers, Metrics: s.reg, Partial: partial})
	if err != nil {
		s.writeError(w, err)
		return
	}
	status := http.StatusOK
	planes := res.Planes
	if !res.OK() {
		status = http.StatusPartialContent
		w.Header().Set("X-Llm265-Failed-Chunks", strconv.Itoa(len(res.Errors)))
		w.Header().Set("X-Llm265-Recovered-Planes", strconv.Itoa(res.Recovered()))
		w.Header().Set("X-Llm265-Total-Planes", strconv.Itoa(len(res.Planes)))
	}
	w.Header().Set("Content-Type", "application/octet-stream")
	w.Header().Set("X-Llm265-Planes", strconv.Itoa(len(planes)))
	out := marshalPlanes(planes)
	declareLength(w, len(out))
	w.WriteHeader(status)
	w.Write(out)
	s.m.countStatus(status)
}

// handleHealthz is GET /healthz: 200 with the admission state while
// serving, 503 once draining so load balancers rotate the instance out.
func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		s.writeJSONError(w, http.StatusMethodNotAllowed, "serve: GET only", "bad_request")
		return
	}
	status := http.StatusOK
	state := "ok"
	draining := s.adm.isDraining()
	if draining {
		status = http.StatusServiceUnavailable
		state = "draining"
	}
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	// The explicit draining field is the machine-readable contract the
	// proxy's active prober keys on: a draining backend is ejected from
	// rotation while its listener is still up, so inflight work finishes
	// without new work arriving (DESIGN.md §14).
	json.NewEncoder(w).Encode(map[string]any{
		"status":       state,
		"draining":     draining,
		"inflight":     s.Inflight(),
		"queued":       s.Queued(),
		"max_inflight": s.cfg.MaxInflight,
		"max_queue":    s.cfg.MaxQueue,
	})
}

// handleMetricsz is GET /metricsz: the JSON snapshot of the shared obs
// registry (serve.*, codec.* and core.* metrics together).
func (s *Server) handleMetricsz(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		s.writeJSONError(w, http.StatusMethodNotAllowed, "serve: GET only", "bad_request")
		return
	}
	w.Header().Set("Content-Type", "application/json")
	s.reg.WriteJSON(w)
}
