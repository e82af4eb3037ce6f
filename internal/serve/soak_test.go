package serve

import (
	"bytes"
	"context"
	"crypto/sha256"
	"fmt"
	"net/http"
	"sync"
	"sync/atomic"
	"testing"

	"io"

	"repro/internal/codec"
	"repro/internal/core"
	"repro/internal/frame"
)

// The concurrency soak: 64 goroutine clients hammer one server with a mix
// of encodes, decodes (both container kinds), damaged payloads and
// undersized deadlines, checksumming every successful response against a
// precomputed reference. Run under -race this is the data-race gate for the
// admission scheduler, the shared worker pool and the shared obs registry.

// soakScenario is one precomputed request with its acceptance criteria.
type soakScenario struct {
	name string
	url  string // path + query, appended to the base URL
	body []byte
	// wantSHA is the sha256 of the only acceptable 200 body.
	wantSHA [32]byte
	// okStatuses are the acceptable response statuses. 429 is always
	// acceptable: the bounded queue is allowed to bounce under load.
	okStatuses map[int]bool
}

func buildSoakScenarios(t testing.TB) []soakScenario {
	t.Helper()
	mk := func(name, url string, body []byte, want []byte, statuses ...int) soakScenario {
		sc := soakScenario{name: name, url: url, body: body, okStatuses: map[int]bool{}}
		if want != nil {
			sc.wantSHA = sha256.Sum256(want)
			sc.okStatuses[http.StatusOK] = true
		}
		for _, s := range statuses {
			sc.okStatuses[s] = true
		}
		sc.okStatuses[http.StatusTooManyRequests] = true
		return sc
	}

	// Encode scenario: bytes must equal the direct core encode.
	stack := testStack(101, 2, 32, 32)
	opts := core.DefaultOptions()
	ref, err := opts.EncodeStackCtx(context.Background(), stack, 30)
	if err != nil {
		t.Fatal(err)
	}
	refBytes := ref.Marshal()

	// Checksummed encode scenario.
	optsV3 := core.DefaultOptions()
	optsV3.Checksum = true
	refV3, err := optsV3.EncodeStackCtx(context.Background(), stack, 30)
	if err != nil {
		t.Fatal(err)
	}

	// Decode scenarios: core container → floats; codec container → GPLN.
	dec, err := opts.DecodeStackCtx(context.Background(), ref)
	if err != nil {
		t.Fatal(err)
	}
	decBody := stackBody(dec)

	// Damaged payloads.
	flipped := append([]byte(nil), refV3.Stream...)
	flipped[len(flipped)-1] ^= 0xFF
	truncated := refBytes[:len(refBytes)/2]

	return []soakScenario{
		mk("encode", "/v1/encode?layers=2&rows=32&cols=32&qp=30", stackBody(stack), refBytes),
		mk("encode-v3", "/v1/encode?layers=2&rows=32&cols=32&qp=30&checksum=1", stackBody(stack), refV3.Marshal()),
		mk("decode-core", "/v1/decode", refBytes, decBody),
		mk("decode-codec-v3", "/v1/decode", refV3.Stream, marshalPlanes(mustPlanes(t, refV3.Stream))),
		mk("decode-checksum-damage", "/v1/decode", flipped, nil, http.StatusConflict),
		mk("decode-truncated", "/v1/decode", truncated, nil, http.StatusBadRequest, http.StatusUnprocessableEntity),
		mk("decode-garbage", "/v1/decode", []byte("L265\x03 garbage chunk table follows here"), nil,
			http.StatusUnprocessableEntity, http.StatusBadRequest, http.StatusConflict),
		// A 1ms deadline may or may not cover a 48×48 encode depending on
		// load: both outcomes are legal, wrong bytes are not.
		mk("encode-tight-deadline", "/v1/encode?layers=2&rows=32&cols=32&qp=30&deadline_ms=1",
			stackBody(stack), refBytes, http.StatusGatewayTimeout),
	}
}

// directPlanes decodes a codec container directly (strict, one worker), the
// reference every HTTP decode is compared against.
func directPlanes(stream []byte) ([]*frame.Plane, error) {
	dec, err := codec.Decode(context.Background(), stream, codec.DecodeConfig{Workers: 1})
	if err != nil {
		return nil, err
	}
	return dec.Planes, nil
}

// mustPlanes is directPlanes for streams that must decode.
func mustPlanes(t testing.TB, stream []byte) []*frame.Plane {
	t.Helper()
	planes, err := directPlanes(stream)
	if err != nil {
		t.Fatal(err)
	}
	return planes
}

// readAllAndClose drains and closes a response body.
func readAllAndClose(resp *http.Response) ([]byte, error) {
	defer resp.Body.Close()
	return io.ReadAll(resp.Body)
}

func TestSoak64Clients(t *testing.T) {
	if testing.Short() {
		t.Skip("soak skipped in -short")
	}
	scenarios := buildSoakScenarios(t)
	_, url := newTestServer(t, Config{MaxInflight: 8, MaxQueue: 64, Workers: 1})

	const clients = 64
	iters := 8
	var served, bounced atomic.Int64
	var wg sync.WaitGroup
	errCh := make(chan error, clients)
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for i := 0; i < iters; i++ {
				sc := scenarios[(c+i)%len(scenarios)]
				resp, err := http.Post(url+sc.url, "application/octet-stream", bytes.NewReader(sc.body))
				if err != nil {
					errCh <- fmt.Errorf("client %d %s: %v", c, sc.name, err)
					return
				}
				body, err := readAllAndClose(resp)
				if err != nil {
					errCh <- fmt.Errorf("client %d %s: reading body: %v", c, sc.name, err)
					return
				}
				if !sc.okStatuses[resp.StatusCode] {
					errCh <- fmt.Errorf("client %d %s: status %d (%.120s)", c, sc.name, resp.StatusCode, body)
					return
				}
				switch resp.StatusCode {
				case http.StatusOK:
					if got := sha256.Sum256(body); got != sc.wantSHA {
						errCh <- fmt.Errorf("client %d %s: 200 body checksum mismatch (%d bytes)", c, sc.name, len(body))
						return
					}
					served.Add(1)
				case http.StatusTooManyRequests:
					bounced.Add(1)
				}
			}
		}(c)
	}
	wg.Wait()
	close(errCh)
	for err := range errCh {
		t.Error(err)
	}
	t.Logf("soak: %d verified 200s, %d backpressure bounces across %d requests",
		served.Load(), bounced.Load(), clients*iters)
	if served.Load() == 0 {
		t.Error("soak never verified a single successful response")
	}
}
