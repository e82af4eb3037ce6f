package serve

import (
	"bytes"
	"context"
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"sync"
	"testing"
	"time"

	"repro/internal/codec"
	"repro/internal/core"
)

// newTestServer spins a Server over httptest. The returned base URL serves
// the real handler stack over real HTTP connections.
func newTestServer(t testing.TB, cfg Config) (*Server, string) {
	t.Helper()
	s := New(cfg)
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(ts.Close)
	return s, ts.URL
}

// testStack builds a deterministic stack of layers tensors with values in
// [-1, 1).
func testStack(seed int64, layers, rows, cols int) []*core.Tensor {
	rng := rand.New(rand.NewSource(seed))
	stack := make([]*core.Tensor, layers)
	for l := range stack {
		t := core.NewTensor(rows, cols)
		for i := range t.Data {
			t.Data[i] = rng.Float32()*2 - 1
		}
		stack[l] = t
	}
	return stack
}

// stackBody serializes a stack as the encode endpoint's float32 LE body.
func stackBody(stack []*core.Tensor) []byte {
	var buf bytes.Buffer
	for _, t := range stack {
		buf.Write(float32sToBytes(t.Data))
	}
	return buf.Bytes()
}

// post issues a POST and returns status, body and headers.
func post(t testing.TB, url string, body []byte) (int, []byte, http.Header) {
	t.Helper()
	resp, err := http.Post(url, "application/octet-stream", bytes.NewReader(body))
	if err != nil {
		t.Fatalf("POST %s: %v", url, err)
	}
	defer resp.Body.Close()
	out, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatalf("reading response: %v", err)
	}
	return resp.StatusCode, out, resp.Header
}

// TestEncodeRoundTripMatchesCore is the bit-identity gate: for every
// profile/option combination the HTTP encode must return exactly the bytes
// of a direct core.EncodeStackCtx(context.Background(), ...).Marshal(), and the HTTP decode must
// return exactly the float32s of a direct DecodeStack.
func TestEncodeRoundTripMatchesCore(t *testing.T) {
	_, url := newTestServer(t, Config{MaxInflight: 2})
	cases := []struct {
		name   string
		query  string
		mutate func(*core.Options)
		layers int
		rows   int
		cols   int
		qp     int
	}{
		{"h265-default", "", func(o *core.Options) {}, 1, 48, 64, 30},
		{"h264", "&profile=h264", func(o *core.Options) { o.Profile = codec.H264 }, 1, 48, 64, 30},
		{"av1", "&profile=av1", func(o *core.Options) { o.Profile = codec.AV1 }, 1, 48, 64, 30},
		{"checksum", "&checksum=1", func(o *core.Options) { o.Checksum = true }, 3, 48, 64, 28},
		// A retired parameter is an unknown one: ignored, the default bytes.
		{"fast-search", "&fast-search=1", func(o *core.Options) {}, 1, 64, 64, 30},
		{"per-row", "&per-row=1", func(o *core.Options) { o.PerRowQuant = true }, 2, 48, 64, 26},
		{"rans", "&backend=rans", func(o *core.Options) { o.Backend = codec.BackendRANS }, 2, 48, 64, 28},
		{"rans-h264", "&backend=rans&profile=h264", func(o *core.Options) {
			o.Backend = codec.BackendRANS
			o.Profile = codec.H264
		}, 1, 64, 64, 30},
		{"frame-split", "&max-frame-w=32&max-frame-h=32&checksum=true", func(o *core.Options) {
			o.MaxFrameW, o.MaxFrameH = 32, 32
			o.Checksum = true
		}, 2, 96, 96, 30},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			stack := testStack(int64(len(tc.name)), tc.layers, tc.rows, tc.cols)
			// Direct reference encode.
			opts := core.DefaultOptions()
			tc.mutate(&opts)
			want, err := opts.EncodeStackCtx(context.Background(), stack, tc.qp)
			if err != nil {
				t.Fatal(err)
			}
			wantBytes := want.Marshal()

			// HTTP encode.
			encURL := fmt.Sprintf("%s/v1/encode?layers=%d&rows=%d&cols=%d&qp=%d%s",
				url, tc.layers, tc.rows, tc.cols, tc.qp, tc.query)
			status, got, hdr := post(t, encURL, stackBody(stack))
			if status != http.StatusOK {
				t.Fatalf("encode status %d: %s", status, got)
			}
			if !bytes.Equal(got, wantBytes) {
				t.Fatalf("HTTP encode bytes differ from core.EncodeStackCtx(context.Background(), ).Marshal() (%d vs %d bytes)",
					len(got), len(wantBytes))
			}
			if hdr.Get("X-Llm265-Bits-Per-Value") == "" {
				t.Error("missing X-Llm265-Bits-Per-Value header")
			}

			// HTTP decode of the container must match the direct decode.
			wantDec, err := opts.DecodeStackCtx(context.Background(), want)
			if err != nil {
				t.Fatal(err)
			}
			status, decBody, hdr := post(t, url+"/v1/decode", got)
			if status != http.StatusOK {
				t.Fatalf("decode status %d: %s", status, decBody)
			}
			if hdr.Get("X-Llm265-Layers") != fmt.Sprint(tc.layers) {
				t.Errorf("X-Llm265-Layers = %q, want %d", hdr.Get("X-Llm265-Layers"), tc.layers)
			}
			wantFloats := stackBody(wantDec)
			if !bytes.Equal(decBody, wantFloats) {
				t.Fatalf("HTTP decode floats differ from direct DecodeStack")
			}
		})
	}
}

// TestErrorTaxonomyStatuses pins the error→status table: every damage class
// must land on its documented status with the class named in the JSON body.
func TestErrorTaxonomyStatuses(t *testing.T) {
	_, url := newTestServer(t, Config{MaxInflight: 2})

	// Build the damaged payloads from a healthy v3 codec container.
	planes := testStack(3, 2, 64, 64)
	opts := core.DefaultOptions()
	opts.Checksum = true
	enc, err := opts.EncodeStackCtx(context.Background(), planes, 30)
	if err != nil {
		t.Fatal(err)
	}
	v3 := enc.Stream

	flipped := append([]byte(nil), v3...)
	flipped[len(flipped)-1] ^= 0xFF // last chunk payload byte → CRC mismatch
	truncated := v3[:len(v3)-7]     // ends inside the last payload
	garbage := []byte("L265\x02 this is not a chunk table")

	// Self-check the damage classes against the direct decoder so the HTTP
	// assertions below test the mapping, not the damage construction.
	if _, derr := directPlanes(flipped); !errors.Is(derr, codec.ErrChecksum) {
		t.Fatalf("flipped container decodes to %v, want ErrChecksum", derr)
	}
	if _, derr := directPlanes(truncated); !errors.Is(derr, codec.ErrTruncated) {
		t.Fatalf("truncated container decodes to %v, want ErrTruncated", derr)
	}

	cases := []struct {
		name       string
		body       []byte
		wantStatus int
		wantClass  string
	}{
		{"checksum-409", flipped, http.StatusConflict, "checksum"},
		{"truncated-400", truncated, http.StatusBadRequest, "truncated"},
		{"corrupt-422", garbage, http.StatusUnprocessableEntity, "corrupt"},
		{"unrecognized-422", []byte("not a container at all"), http.StatusUnprocessableEntity, "corrupt"},
		{"empty-400", nil, http.StatusBadRequest, "truncated"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			status, body, _ := post(t, url+"/v1/decode", tc.body)
			if status != tc.wantStatus {
				t.Fatalf("status = %d, want %d (body %s)", status, tc.wantStatus, body)
			}
			var eb errorBody
			if err := json.Unmarshal(body, &eb); err != nil {
				t.Fatalf("error body is not JSON: %v (%s)", err, body)
			}
			if eb.Class != tc.wantClass {
				t.Errorf("class = %q, want %q", eb.Class, tc.wantClass)
			}
		})
	}

	// Method and query validation round out the table.
	resp, err := http.Get(url + "/v1/encode")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusMethodNotAllowed {
		t.Errorf("GET /v1/encode = %d, want 405", resp.StatusCode)
	}
	status, _, _ := post(t, url+"/v1/encode?rows=8&cols=8&qp=999", make([]byte, 256))
	if status != http.StatusBadRequest {
		t.Errorf("qp=999 status = %d, want 400", status)
	}
	status, body, _ := post(t, url+"/v1/encode?rows=8&cols=8&qp=30&backend=bogus", make([]byte, 256))
	if status != http.StatusBadRequest {
		t.Errorf("backend=bogus status = %d, want 400", status)
	}
	if !bytes.Contains(body, []byte("backend")) {
		t.Errorf("backend=bogus error body %q does not name the parameter", body)
	}
	// The removed index= knob implied checksum: refused, pointing at
	// checksum=1, never silently dropped with the CRCs it stood for.
	status, body, _ = post(t, url+"/v1/encode?rows=8&cols=8&qp=30&index=1", make([]byte, 256))
	if status != http.StatusBadRequest || !bytes.Contains(body, []byte("checksum=1")) {
		t.Errorf("index=1: status %d body %q, want 400 naming checksum=1", status, body)
	}
}

// TestDecodeSniffTaxonomy pins the /v1/decode container sniff: bodies shorter
// than the 5-byte sniff window are truncation (400), wrong magic or an
// impossible kind byte is corruption (422), and v3 containers ending in a
// trailer an earlier build wrote route to the codec decoder and succeed —
// never a misroute, never a panic.
func TestDecodeSniffTaxonomy(t *testing.T) {
	_, url := newTestServer(t, Config{MaxInflight: 2})

	opts := core.DefaultOptions()
	opts.Checksum = true
	enc, err := opts.EncodeStackCtx(context.Background(), testStack(9, 2, 64, 64), 30)
	if err != nil {
		t.Fatal(err)
	}
	// The decoder never reads a trailer's body, so an empty one stands in:
	// magic, bodyLen 0, CRC32C.
	trailer := []byte("L26X\x00\x00\x00\x00")
	trailer = binary.BigEndian.AppendUint32(trailer, crc32.Checksum(trailer, crc32.MakeTable(crc32.Castagnoli)))
	atRest := append(append([]byte(nil), enc.Stream...), trailer...)
	wantPlanes, err := directPlanes(atRest)
	if err != nil {
		t.Fatalf("trailer stream does not decode directly: %v", err)
	}
	lay, err := codec.Layout(atRest)
	if err != nil || lay.TrailerLen != len(trailer) {
		t.Fatalf("test stream layout %+v, %v", lay, err)
	}

	// Damage variants: cut inside the trailer (truncation) and flip a byte
	// the trailer CRC32C covers.
	cutTrailer := atRest[:lay.TrailerOff+lay.TrailerLen/2]
	flipTrailer := append([]byte(nil), atRest...)
	flipTrailer[lay.TrailerOff+9] ^= 0x01
	if _, derr := directPlanes(cutTrailer); !errors.Is(derr, codec.ErrTruncated) {
		t.Fatalf("cut trailer decodes to %v, want ErrTruncated", derr)
	}
	if _, derr := directPlanes(flipTrailer); !errors.Is(derr, codec.ErrChecksum) {
		t.Fatalf("flipped trailer decodes to %v, want ErrChecksum", derr)
	}

	cases := []struct {
		name       string
		query      string
		body       []byte
		wantStatus int
		wantClass  string
	}{
		{"empty", "", nil, http.StatusBadRequest, "truncated"},
		{"one-byte", "", []byte("L"), http.StatusBadRequest, "truncated"},
		{"magic-only", "", []byte("L265"), http.StatusBadRequest, "truncated"},
		{"core-magic-only", "", []byte("L265T"), http.StatusBadRequest, "truncated"},
		{"wrong-magic", "", []byte("X265\x03 payload"), http.StatusUnprocessableEntity, "corrupt"},
		{"bad-version", "", []byte("L265\x07 payload"), http.StatusUnprocessableEntity, "corrupt"},
		{"trailer-ok", "", atRest, http.StatusOK, ""},
		{"trailer-partial-ok", "?partial=1", atRest, http.StatusOK, ""},
		{"cut-trailer", "", cutTrailer, http.StatusBadRequest, "truncated"},
		{"flipped-trailer", "", flipTrailer, http.StatusConflict, "checksum"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			status, body, _ := post(t, url+"/v1/decode"+tc.query, tc.body)
			if status != tc.wantStatus {
				t.Fatalf("status = %d, want %d (body %.120s)", status, tc.wantStatus, body)
			}
			if tc.wantStatus == http.StatusOK {
				if !bytes.Equal(body, marshalPlanes(wantPlanes)) {
					t.Fatal("trailer stream decode body differs from direct DecodeWorkers")
				}
				return
			}
			var eb errorBody
			if err := json.Unmarshal(body, &eb); err != nil {
				t.Fatalf("error body is not JSON: %v (%s)", err, body)
			}
			if eb.Class != tc.wantClass {
				t.Errorf("class = %q, want %q", eb.Class, tc.wantClass)
			}
		})
	}

	// A damaged-payload trailer stream under ?partial=1 still recovers: a
	// trailer never makes partial decode worse.
	flipPayload := append([]byte(nil), atRest...)
	flipPayload[lay.TrailerOff-1] ^= 0xFF
	status, _, hdr := post(t, url+"/v1/decode?partial=1", flipPayload)
	if status != http.StatusPartialContent {
		t.Fatalf("damaged trailer stream partial = %d, want 206", status)
	}
	if hdr.Get("X-Llm265-Failed-Chunks") == "" {
		t.Error("missing loss accounting on trailer stream 206")
	}
}

// TestPartialDecodeOverHTTP: a damaged v3 stream with ?partial=1 answers
// 206 with the loss accounting headers and placeholder planes, both for
// codec-level and core containers.
func TestPartialDecodeOverHTTP(t *testing.T) {
	_, url := newTestServer(t, Config{MaxInflight: 2})
	stack := testStack(5, 3, 64, 64)
	opts := core.DefaultOptions()
	opts.Checksum = true
	enc, err := opts.EncodeStackCtx(context.Background(), stack, 30)
	if err != nil {
		t.Fatal(err)
	}
	damage := func(stream []byte) []byte {
		d := append([]byte(nil), stream...)
		d[len(d)-1] ^= 0xFF
		return d
	}

	// Codec-level container → GPLN with a placeholder for the lost plane.
	status, body, hdr := post(t, url+"/v1/decode?partial=1", damage(enc.Stream))
	if status != http.StatusPartialContent {
		t.Fatalf("codec partial status = %d, want 206 (%s)", status, body)
	}
	if hdr.Get("X-Llm265-Failed-Chunks") == "" || hdr.Get("X-Llm265-Recovered-Planes") == "" {
		t.Error("missing loss-accounting headers on 206")
	}
	if !bytes.HasPrefix(body, []byte("GPLN")) {
		t.Error("codec partial body is not GPLN")
	}

	// Core container → float32 body with zero-filled damage and 206.
	encDamaged := *enc
	encDamaged.Stream = damage(enc.Stream)
	status, body, hdr = post(t, url+"/v1/decode?partial=1", encDamaged.Marshal())
	if status != http.StatusPartialContent {
		t.Fatalf("core partial status = %d, want 206 (%s)", status, body)
	}
	if got, want := len(body), 4*3*64*64; got != want {
		t.Errorf("core partial body %d bytes, want %d", got, want)
	}
	if hdr.Get("X-Llm265-Failed-Chunks") == "" {
		t.Error("missing X-Llm265-Failed-Chunks on core 206")
	}

	// Same bytes without partial=1 must fail with the checksum status.
	status, _, _ = post(t, url+"/v1/decode", encDamaged.Marshal())
	if status != http.StatusConflict {
		t.Errorf("non-partial damaged decode = %d, want 409", status)
	}
}

// TestDeadlineExceededOverHTTP: a request whose ?deadline_ms budget cannot
// cover the encode must answer 504 promptly — the cooperative-cancellation
// path end to end.
func TestDeadlineExceededOverHTTP(t *testing.T) {
	_, url := newTestServer(t, Config{MaxInflight: 2})
	stack := testStack(7, 8, 256, 256) // big enough to blow a 1ms budget
	encURL := url + "/v1/encode?layers=8&rows=256&cols=256&qp=30&deadline_ms=1"
	start := time.Now()
	status, body, _ := post(t, encURL, stackBody(stack))
	elapsed := time.Since(start)
	if status != http.StatusGatewayTimeout {
		t.Fatalf("status = %d, want 504 (%s)", status, body)
	}
	var eb errorBody
	if err := json.Unmarshal(body, &eb); err != nil || eb.Class != "deadline_exceeded" {
		t.Errorf("error class = %q (err %v), want deadline_exceeded", eb.Class, err)
	}
	// The 1ms budget plus the 100ms promptness contract plus HTTP overhead:
	// anything beyond a second means cancellation is not propagating.
	if elapsed > time.Second {
		t.Errorf("deadline-exceeded request took %v", elapsed)
	}
}

// TestBackpressure429: with the single inflight slot held and the queue
// full, the next request bounces with 429 + Retry-After instead of queuing
// without bound.
func TestBackpressure429(t *testing.T) {
	s, url := newTestServer(t, Config{MaxInflight: 1, MaxQueue: 1})
	// Occupy the one inflight slot directly (white-box: this is exactly the
	// state an admitted long-running encode holds).
	s.adm.enter()
	s.adm.sem <- struct{}{}
	defer func() {
		<-s.adm.sem
		s.adm.exit()
	}()

	// Fill the one queue slot with a real queued request.
	queuedDone := make(chan int, 1)
	go func() {
		status, _, _ := post(t, url+"/v1/decode", []byte("L265\x02 whatever"))
		queuedDone <- status
	}()
	deadline := time.Now().Add(5 * time.Second)
	for s.Queued() != 1 {
		if time.Now().After(deadline) {
			t.Fatal("queued request never registered")
		}
		time.Sleep(time.Millisecond)
	}

	// The next request must bounce.
	status, body, hdr := post(t, url+"/v1/decode", []byte("L265\x02 whatever"))
	if status != http.StatusTooManyRequests {
		t.Fatalf("status = %d, want 429 (%s)", status, body)
	}
	if hdr.Get("Retry-After") == "" {
		t.Error("429 without Retry-After")
	}

	// Releasing the slot lets the queued request through (to its 4xx decode
	// error, which proves it executed).
	<-s.adm.sem
	s.adm.exit()
	select {
	case st := <-queuedDone:
		if st != http.StatusUnprocessableEntity {
			t.Errorf("queued request finished with %d, want 422", st)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("queued request never completed after slot release")
	}
	// Re-acquire for the deferred release (keep the defer balanced).
	s.adm.enter()
	s.adm.sem <- struct{}{}
}

// TestGracefulDrain: Drain lets the inflight encode finish, rejects new
// work with 503, flips /healthz to draining, and returns once idle.
func TestGracefulDrain(t *testing.T) {
	s, url := newTestServer(t, Config{MaxInflight: 2})
	stack := testStack(11, 6, 256, 256)

	// Launch a real encode and wait for it to be admitted.
	type result struct {
		status int
		body   []byte
	}
	inflight := make(chan result, 1)
	go func() {
		st, body, _ := post(t, fmt.Sprintf("%s/v1/encode?layers=6&rows=256&cols=256&qp=30", url), stackBody(stack))
		inflight <- result{st, body}
	}()
	deadline := time.Now().Add(10 * time.Second)
	for s.Inflight() == 0 {
		if time.Now().After(deadline) {
			t.Fatal("encode was never admitted")
		}
		time.Sleep(time.Millisecond)
	}

	var wg sync.WaitGroup
	wg.Add(1)
	drainErr := make(chan error, 1)
	go func() {
		defer wg.Done()
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		defer cancel()
		drainErr <- s.Drain(ctx)
	}()
	for !s.Draining() {
		time.Sleep(time.Millisecond)
	}

	// New work is rejected while draining.
	status, body, _ := post(t, url+"/v1/decode", []byte("L265\x02 x"))
	if status != http.StatusServiceUnavailable {
		t.Errorf("request during drain = %d, want 503 (%s)", status, body)
	}
	resp, err := http.Get(url + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	hb, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Errorf("healthz during drain = %d, want 503 (%s)", resp.StatusCode, hb)
	}

	// The inflight encode still completes successfully.
	res := <-inflight
	if res.status != http.StatusOK {
		t.Fatalf("inflight encode finished with %d during drain: %s", res.status, res.body)
	}
	wg.Wait()
	if err := <-drainErr; err != nil {
		t.Fatalf("Drain returned %v", err)
	}
}

// TestDrainAdmitRace: admission registration must be safely concurrent with
// Drain. The original implementation tracked inflight requests with a
// sync.WaitGroup whose counter could step 0→1 (admit) concurrently with a
// Wait (drain) — a pairing the WaitGroup contract forbids and the race
// detector flags under the right interleaving. This hammers exactly that
// interleaving directly on the admission scheduler; meaningful under -race.
func TestDrainAdmitRace(t *testing.T) {
	for round := 0; round < 25; round++ {
		a := newAdmission(4, 8)
		// Hold one slot so the drain is forced to block on a live request
		// rather than observing an idle scheduler and returning immediately.
		hold, rej := a.admit(context.Background())
		if rej != nil {
			t.Fatalf("round %d: initial admit rejected: %v", round, rej)
		}
		var churn sync.WaitGroup
		for g := 0; g < 3; g++ {
			churn.Add(1)
			go func() {
				defer churn.Done()
				for {
					release, rej := a.admit(context.Background())
					if rej != nil {
						return // draining
					}
					release()
				}
			}()
		}
		drained := make(chan error, 1)
		go func() {
			ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
			defer cancel()
			drained <- (&Server{adm: a}).Drain(ctx)
		}()
		for !a.isDraining() {
			time.Sleep(10 * time.Microsecond)
		}
		// Release the held slot while the churners are still registering:
		// the drain now completes concurrently with late registrations.
		hold()
		if err := <-drained; err != nil {
			t.Fatalf("round %d: drain: %v", round, err)
		}
		churn.Wait()
	}
}

// TestHealthzAndMetricsz: the operational endpoints report admission state
// and the serve.* metric taxonomy.
func TestHealthzAndMetricsz(t *testing.T) {
	_, url := newTestServer(t, Config{MaxInflight: 2})

	resp, err := http.Get(url + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	var health map[string]any
	if err := json.NewDecoder(resp.Body).Decode(&health); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK || health["status"] != "ok" {
		t.Fatalf("healthz = %d %v", resp.StatusCode, health)
	}

	// One encode, then the metrics snapshot must show it.
	stack := testStack(13, 1, 32, 32)
	status, _, _ := post(t, url+"/v1/encode?rows=32&cols=32&qp=30", stackBody(stack))
	if status != http.StatusOK {
		t.Fatalf("encode status %d", status)
	}
	resp, err = http.Get(url + "/metricsz")
	if err != nil {
		t.Fatal(err)
	}
	var snap struct {
		Counters   map[string]int64          `json:"counters"`
		Histograms map[string]map[string]any `json:"histograms"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&snap); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if snap.Counters["serve.encode.requests"] < 1 {
		t.Errorf("serve.encode.requests = %d, want >= 1", snap.Counters["serve.encode.requests"])
	}
	if snap.Counters["serve.responses.2xx"] < 1 {
		t.Errorf("serve.responses.2xx = %d, want >= 1", snap.Counters["serve.responses.2xx"])
	}
	if _, ok := snap.Histograms["serve.encode.latency_ns"]; !ok {
		t.Error("metricsz missing serve.encode.latency_ns histogram")
	}
	// The shared registry also carries the codec layer's metrics.
	if snap.Counters["codec.encode.calls"] < 1 {
		t.Errorf("codec.encode.calls = %d, want >= 1 (shared registry)", snap.Counters["codec.encode.calls"])
	}
}

// TestBodyTooLarge413: bodies beyond the configured cap bounce with 413.
func TestBodyTooLarge413(t *testing.T) {
	_, url := newTestServer(t, Config{MaxInflight: 1, MaxBodyBytes: 1024})
	status, body, _ := post(t, url+"/v1/decode", make([]byte, 4096))
	if status != http.StatusRequestEntityTooLarge {
		t.Fatalf("status = %d, want 413 (%s)", status, body)
	}
}
