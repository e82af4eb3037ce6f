package proxy

import (
	"bytes"
	"crypto/sha256"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// The fleet soak: three REAL `llm265 serve` subprocesses behind an
// in-process proxy, hammered by concurrent clients while one backend is
// SIGKILLed mid-traffic and restarted a couple of seconds later. The gate
// (run under -race by `make proxy-test`):
//
//   - zero corrupt responses — every 200 body sha256-matches its reference;
//   - every non-200 is a typed-taxonomy JSON error on an expected status;
//   - the killed backend rejoins on its own: active probes readmit it, the
//     circuit closes through half-open, and traffic for its keys returns,
//     with no operator action anywhere.

// buildLLM265 compiles the real binary once per test run.
func buildLLM265(t *testing.T) string {
	t.Helper()
	bin := filepath.Join(t.TempDir(), "llm265")
	cmd := exec.Command("go", "build", "-o", bin, "./cmd/llm265")
	cmd.Dir = filepath.Join("..", "..")
	if out, err := cmd.CombinedOutput(); err != nil {
		t.Fatalf("building llm265: %v\n%s", err, out)
	}
	return bin
}

// freePort reserves a loopback port and releases it for the subprocess.
// (Small race window; acceptable for a local test harness.)
func freePort(t *testing.T) int {
	t.Helper()
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	return l.Addr().(*net.TCPAddr).Port
}

// spawnServe starts one llm265 serve subprocess and waits for /healthz.
func spawnServe(t *testing.T, bin string, port int) *exec.Cmd {
	t.Helper()
	cmd := exec.Command(bin, "serve",
		"-addr", fmt.Sprintf("127.0.0.1:%d", port),
		"-max-inflight", "4")
	cmd.Stdout = io.Discard
	cmd.Stderr = os.Stderr
	if err := cmd.Start(); err != nil {
		t.Fatalf("starting serve on :%d: %v", port, err)
	}
	base := fmt.Sprintf("http://127.0.0.1:%d", port)
	deadline := time.Now().Add(15 * time.Second)
	for time.Now().Before(deadline) {
		resp, err := http.Get(base + "/healthz")
		if err == nil {
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return cmd
			}
		}
		time.Sleep(25 * time.Millisecond)
	}
	cmd.Process.Kill()
	cmd.Wait()
	t.Fatalf("serve on :%d never became healthy", port)
	return nil
}

func TestProxySoakKillRestart(t *testing.T) {
	if testing.Short() {
		t.Skip("subprocess soak skipped in -short")
	}
	bin := buildLLM265(t)

	ports := []int{freePort(t), freePort(t), freePort(t)}
	urls := make([]string, len(ports))
	procs := make([]*exec.Cmd, len(ports))
	for i, port := range ports {
		urls[i] = fmt.Sprintf("http://127.0.0.1:%d", port)
		procs[i] = spawnServe(t, bin, port)
	}
	defer func() {
		for _, c := range procs {
			if c != nil && c.Process != nil {
				c.Process.Kill()
				c.Wait()
			}
		}
	}()

	p, err := New(Config{
		Backends:      urls,
		ProbeInterval: 100 * time.Millisecond,
		OpenTimeout:   300 * time.Millisecond,
		MaxRetries:    2,
		RetryBase:     5 * time.Millisecond,
		RetryCap:      50 * time.Millisecond,
		HedgeDelay:    50 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	p.Start()
	defer p.Close()
	front := httptest.NewServer(p.Handler())
	defer front.Close()

	// Workload: golden decodes (reference = checked-in .planes) plus one
	// encode whose reference bytes come from a live backend pre-chaos.
	type job struct {
		name    string
		path    string
		body    []byte
		wantSHA [32]byte
	}
	var jobs []job
	vectors, err := filepath.Glob(filepath.Join("..", "conformance", "testdata", "*.l265"))
	if err != nil || len(vectors) == 0 {
		t.Fatalf("no corpus vectors (%v)", err)
	}
	for _, path := range vectors {
		name := strings.TrimSuffix(filepath.Base(path), ".l265")
		stream, planes := corpusVector(t, name)
		jobs = append(jobs, job{
			name: "decode-" + name, path: "/v1/decode",
			body: stream, wantSHA: sha256.Sum256(planes),
		})
	}
	encPayload := encodeBody(23, 1, 48, 48)
	const encQuery = "/v1/encode?layers=1&rows=48&cols=48&qp=30"
	st, refEnc, _ := post(t, urls[0]+encQuery, encPayload)
	if st != http.StatusOK {
		t.Fatalf("pre-chaos reference encode: status %d", st)
	}
	jobs = append(jobs, job{name: "encode", path: encQuery, body: encPayload, wantSHA: sha256.Sum256(refEnc)})

	// Statuses the typed taxonomy allows while a third of the fleet is
	// dying: admission bounces, sheds, exhausted retries, blown deadlines.
	okError := map[int]bool{
		http.StatusTooManyRequests:    true,
		http.StatusBadGateway:         true,
		http.StatusServiceUnavailable: true,
		http.StatusGatewayTimeout:     true,
	}

	var (
		stop     atomic.Bool
		corrupt  atomic.Int64
		oks      atomic.Int64
		errs     atomic.Int64
		mu       sync.Mutex
		statuses = map[int]int{}
		badBody  []string
	)
	const clients = 8
	var wg sync.WaitGroup
	client := &http.Client{Timeout: 10 * time.Second}
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for i := 0; !stop.Load(); i++ {
				j := jobs[(c+i)%len(jobs)]
				resp, err := client.Post(front.URL+j.path, "application/octet-stream", bytes.NewReader(j.body))
				if err != nil {
					// Client-side transport errors to the proxy itself would be
					// harness bugs; record loudly.
					mu.Lock()
					badBody = append(badBody, fmt.Sprintf("%s: client error %v", j.name, err))
					mu.Unlock()
					continue
				}
				body, rerr := io.ReadAll(resp.Body)
				resp.Body.Close()
				mu.Lock()
				statuses[resp.StatusCode]++
				mu.Unlock()
				switch {
				case rerr != nil:
					corrupt.Add(1)
				case resp.StatusCode == http.StatusOK:
					oks.Add(1)
					if sha256.Sum256(body) != j.wantSHA {
						corrupt.Add(1)
						mu.Lock()
						badBody = append(badBody, fmt.Sprintf("%s: 200 with wrong bytes (%d)", j.name, len(body)))
						mu.Unlock()
					}
				case okError[resp.StatusCode]:
					errs.Add(1)
					var eb struct {
						Class string `json:"class"`
					}
					if err := json.Unmarshal(body, &eb); err != nil || eb.Class == "" {
						corrupt.Add(1)
						mu.Lock()
						badBody = append(badBody, fmt.Sprintf("%s: untyped %d body %.120q", j.name, resp.StatusCode, body))
						mu.Unlock()
					}
				default:
					corrupt.Add(1)
					mu.Lock()
					badBody = append(badBody, fmt.Sprintf("%s: unexpected status %d %.120q", j.name, resp.StatusCode, body))
					mu.Unlock()
				}
			}
		}(c)
	}

	// Let traffic establish, then murder backend 1 mid-flight.
	time.Sleep(1 * time.Second)
	victim := 1
	t.Logf("soak: SIGKILL backend %s", urls[victim])
	procs[victim].Process.Kill()
	procs[victim].Wait()
	procs[victim] = nil

	// Fleet of two absorbs the traffic for a while, then the victim returns
	// on the same port.
	time.Sleep(2 * time.Second)
	t.Logf("soak: restarting backend %s", urls[victim])
	procs[victim] = spawnServe(t, bin, ports[victim])

	// Give probes + half-open recovery time to readmit it under load.
	time.Sleep(2 * time.Second)
	stop.Store(true)
	wg.Wait()

	if corrupt.Load() != 0 {
		mu.Lock()
		defer mu.Unlock()
		max := len(badBody)
		if max > 10 {
			max = 10
		}
		t.Fatalf("%d corrupt/unexpected responses; first %d:\n%s",
			corrupt.Load(), max, joinLines(badBody[:max]))
	}
	if oks.Load() == 0 {
		t.Fatal("soak produced zero successful responses")
	}
	t.Logf("soak: %d oks, %d typed errors, statuses %v", oks.Load(), errs.Load(), statuses)

	// Rejoin gate: within a few seconds the proxy must consider the whole
	// fleet available again, and a request keyed to the victim must be
	// served by the victim.
	victimHost := fmt.Sprintf("127.0.0.1:%d", ports[victim])
	deadline := time.Now().Add(10 * time.Second)
	rejoined := false
	for time.Now().Before(deadline) {
		if p.backends[victim].available() {
			rejoined = true
			break
		}
		time.Sleep(50 * time.Millisecond)
	}
	if !rejoined {
		t.Fatalf("backend %s never rejoined the rotation after restart", victimHost)
	}

	// Find a key the victim owns and prove it answers it end to end.
	var key string
	for i := 0; i < 10000; i++ {
		k := fmt.Sprintf("rejoin-%d", i)
		if p.ring.sequence(k)[0] == victim {
			key = k
			break
		}
	}
	if key == "" {
		t.Fatal("no key owned by the victim backend in 10000 tries")
	}
	deadline = time.Now().Add(5 * time.Second)
	served := false
	for time.Now().Before(deadline) {
		status, _, hdr := post(t, front.URL+"/v1/decode?key="+key, jobs[0].body)
		if status == http.StatusOK && hdr.Get("X-Llm265-Backend") == victimHost {
			served = true
			break
		}
		time.Sleep(100 * time.Millisecond)
	}
	if !served {
		t.Fatalf("restarted backend %s never served its keys again", victimHost)
	}

	c := counters(t, front.URL)
	if c["proxy.ejections.active"] < 1 && c["proxy.ejections.passive"] < 1 {
		t.Error("killing a backend registered no ejection (active or passive)")
	}
	if c["proxy.recoveries"] < 1 {
		t.Error("restart registered no recovery")
	}
}

func joinLines(lines []string) string {
	out := ""
	for _, l := range lines {
		out += l + "\n"
	}
	return out
}
