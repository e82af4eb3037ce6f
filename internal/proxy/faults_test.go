package proxy

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"testing"
	"time"

	"repro/internal/faultinject"
)

// ownerOf finds the backend index that owns key under the proxy's ring —
// sweep tests use it to aim scripted faults at exactly the backend the
// request will hit first.
func ownerOf(p *Proxy, key string) int { return p.ring.sequence(key)[0] }

// TestFaultSweep drives the full {latency, reset, truncation, 500,
// 503-drain} × {encode, decode} matrix through a 2-backend proxy with the
// scripted FlakyTransport aimed at the key's owner, asserting per-case:
// the client still gets the byte-exact 200, the retry counter moved (or
// didn't, for latency), the owner's failure counter moved, and failover
// landed on the other backend.
func TestFaultSweep(t *testing.T) {
	stream, wantPlanes := corpusVector(t, faultVector)
	encPayload := encodeBody(11, 1, 64, 64)
	const encQuery = "layers=1&rows=64&cols=64&qp=30"

	type sweepCase struct {
		name        string
		fault       faultinject.NetFault
		wantRetries int64 // delta of proxy.retries
		wantFails   int64 // delta of the owner's failure counter
		failover    bool  // response must come from the non-owner
	}
	cases := []sweepCase{
		{"latency", faultinject.ScriptLatency(20 * time.Millisecond), 0, 0, false},
		{"reset", faultinject.ScriptReset(), 1, 1, true},
		{"truncate", faultinject.ScriptTruncate(16), 1, 1, true},
		{"spurious-500", faultinject.ScriptStatus(500, ""), 1, 1, true},
		{"drain-503", faultinject.ScriptStatus(503, "0"), 1, 1, true},
	}

	for _, dir := range []string{"encode", "decode"} {
		for _, tc := range cases {
			t.Run(dir+"/"+tc.name, func(t *testing.T) {
				backends := newTestBackends(t, 2)
				ft := &faultinject.FlakyTransport{}
				p, base := newTestProxy(t, backends, ft, func(c *Config) {
					c.DisableHedge = true // hedging has its own test; keep counters exact
				})

				key := "sweep-" + dir + "-" + tc.name
				owner := ownerOf(p, key)
				other := backends[1-owner]
				ft.Match = faultinject.MatchHostPathPrefix(backends[owner].host, "/v1/")
				ft.Enqueue(tc.fault)

				path := fmt.Sprintf("/v1/decode?key=%s", key)
				payload, want := stream, wantPlanes
				if dir == "encode" {
					path = fmt.Sprintf("/v1/encode?key=%s&%s", key, encQuery)
					payload = encPayload
					// Reference bytes from the non-faulted backend directly.
					st, ref, _ := post(t, other.ts.URL+"/v1/encode?"+encQuery, encPayload)
					if st != http.StatusOK {
						t.Fatalf("reference encode status %d", st)
					}
					want = ref
				}

				before := counters(t, base)
				status, got, hdr := post(t, base+path, payload)
				after := counters(t, base)

				if status != http.StatusOK {
					t.Fatalf("status %d through fault %s: %s", status, tc.name, got)
				}
				if !bytes.Equal(got, want) {
					t.Fatalf("response bytes differ through fault %s (%d vs %d bytes)",
						tc.name, len(got), len(want))
				}
				if d := after["proxy.retries"] - before["proxy.retries"]; d != tc.wantRetries {
					t.Errorf("proxy.retries delta = %d, want %d", d, tc.wantRetries)
				}
				failKey := "proxy.backend." + backends[owner].host + ".failures"
				if d := after[failKey] - before[failKey]; d != tc.wantFails {
					t.Errorf("%s delta = %d, want %d", failKey, d, tc.wantFails)
				}
				from := hdr.Get("X-Llm265-Backend")
				if tc.failover && from != other.host {
					t.Errorf("response came from %s, want failover to %s", from, other.host)
				}
				if !tc.failover && from != backends[owner].host {
					t.Errorf("response came from %s, want the owner %s", from, backends[owner].host)
				}
				if applied := ft.Applied()[tc.fault.Kind]; applied != 1 {
					t.Errorf("fault %v applied %d times, want 1", tc.fault.Kind, applied)
				}
			})
		}
	}
}

// TestRetryAfterHonored: a 503's Retry-After hint delays the retry, capped
// by RetryCap — with the cap configured short, the retry must NOT wait the
// full hint.
func TestRetryAfterHonored(t *testing.T) {
	stream, _ := corpusVector(t, faultVector)
	backends := newTestBackends(t, 1)
	ft := &faultinject.FlakyTransport{Match: faultinject.MatchHostPathPrefix(backends[0].host, "/v1/")}
	_, base := newTestProxy(t, backends, ft, func(c *Config) {
		c.DisableHedge = true
		c.RetryCap = 250 * time.Millisecond
	})

	// Hint above the cap: the wait must be ≈cap, not ≈hint.
	ft.Enqueue(faultinject.ScriptStatus(503, "5"))
	start := time.Now()
	status, _, _ := post(t, base+"/v1/decode", stream)
	elapsed := time.Since(start)
	if status != http.StatusOK {
		t.Fatalf("status %d after 503+Retry-After", status)
	}
	if elapsed < 200*time.Millisecond {
		t.Errorf("retry after %v, want ≥ ~250ms (Retry-After honored)", elapsed)
	}
	if elapsed > 2*time.Second {
		t.Errorf("retry after %v, want the 250ms cap, not the 5s hint", elapsed)
	}
}

// TestHedgedDecode: the owner stalls, the hedge fires at the configured
// delay to the other backend, the client gets the bytes from the winner,
// and the canceled loser is NOT charged as a backend failure.
func TestHedgedDecode(t *testing.T) {
	stream, wantPlanes := corpusVector(t, faultVector)
	backends := newTestBackends(t, 2)
	ft := &faultinject.FlakyTransport{}
	p, base := newTestProxy(t, backends, ft, func(c *Config) {
		c.HedgeDelay = 20 * time.Millisecond
		c.MaxRetries = 0
	})

	key := "hedge-me"
	owner := ownerOf(p, key)
	other := backends[1-owner]
	ft.Match = faultinject.MatchHostPathPrefix(backends[owner].host, "/v1/")
	ft.Enqueue(faultinject.ScriptStall(10 * time.Second))

	before := counters(t, base)
	start := time.Now()
	status, got, hdr := post(t, base+"/v1/decode?key="+key, stream)
	elapsed := time.Since(start)
	after := counters(t, base)

	if status != http.StatusOK || !bytes.Equal(got, wantPlanes) {
		t.Fatalf("hedged decode: status %d, %d bytes", status, len(got))
	}
	if from := hdr.Get("X-Llm265-Backend"); from != other.host {
		t.Fatalf("winner = %s, want the hedge target %s", from, other.host)
	}
	if elapsed > 5*time.Second {
		t.Fatalf("hedged decode took %v — the stall was waited out, not hedged around", elapsed)
	}
	if d := after["proxy.hedges"] - before["proxy.hedges"]; d != 1 {
		t.Errorf("proxy.hedges delta = %d, want 1", d)
	}
	if d := after["proxy.hedge_wins"] - before["proxy.hedge_wins"]; d != 1 {
		t.Errorf("proxy.hedge_wins delta = %d, want 1", d)
	}
	failKey := "proxy.backend." + backends[owner].host + ".failures"
	if d := after[failKey] - before[failKey]; d != 0 {
		t.Errorf("canceled stalled loser charged %d failures to %s, want 0", d, backends[owner].host)
	}
}

// TestPassiveEjectionShedRecovery walks the full breaker lifecycle through
// the HTTP surface: consecutive failures open the circuit (passive
// ejection), requests then shed with 503 + Retry-After in the typed
// taxonomy, and after the cool-down a half-open probe closes the circuit
// again with the recovery counted — no operator action anywhere.
func TestPassiveEjectionShedRecovery(t *testing.T) {
	stream, wantPlanes := corpusVector(t, faultVector)
	backends := newTestBackends(t, 1)
	ft := &faultinject.FlakyTransport{Match: faultinject.MatchHostPathPrefix(backends[0].host, "/v1/")}
	_, base := newTestProxy(t, backends, ft, func(c *Config) {
		c.DisableHedge = true
		c.MaxRetries = -1 // single attempt per request: the breaker walk must be exact
		c.OpenTimeout = 100 * time.Millisecond
	})
	stateKey := "proxy.backend." + backends[0].host + ".state"

	// breakerThreshold consecutive 500s: each answers 502 upstream (no retry
	// budget), and the last opens the circuit.
	for i := 0; i < breakerThreshold; i++ {
		ft.Enqueue(faultinject.ScriptStatus(500, ""))
	}
	for i := 0; i < breakerThreshold; i++ {
		status, body, _ := post(t, base+"/v1/decode", stream)
		if status != http.StatusBadGateway {
			t.Fatalf("request %d during failure run: status %d %s", i, status, body)
		}
		var eb struct {
			Class string `json:"class"`
		}
		if err := json.Unmarshal(body, &eb); err != nil || eb.Class != "upstream" {
			t.Fatalf("request %d error body %s, want class=upstream", i, body)
		}
	}
	c := counters(t, base)
	if c["proxy.ejections.passive"] != 1 {
		t.Fatalf("proxy.ejections.passive = %d, want 1", c["proxy.ejections.passive"])
	}
	if c[stateKey] != stateOpen {
		t.Fatalf("state gauge = %d, want %d (open)", c[stateKey], stateOpen)
	}

	// Open circuit, sole backend: shed immediately with the typed 503.
	status, body, hdr := post(t, base+"/v1/decode", stream)
	if status != http.StatusServiceUnavailable {
		t.Fatalf("shed status = %d, want 503 (%s)", status, body)
	}
	if hdr.Get("Retry-After") == "" {
		t.Fatal("shed response missing Retry-After")
	}
	var eb struct {
		Class string `json:"class"`
	}
	if err := json.Unmarshal(body, &eb); err != nil || eb.Class != "rejected" {
		t.Fatalf("shed body %s, want class=rejected", body)
	}
	if c := counters(t, base); c["proxy.shed"] != 1 {
		t.Fatalf("proxy.shed = %d, want 1", c["proxy.shed"])
	}

	// The proxy's own healthz reflects the dead fleet.
	resp, err := http.Get(base + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("proxy /healthz with the whole fleet open-circuit = %d, want 503", resp.StatusCode)
	}

	// Cool-down elapses; the script is exhausted so the half-open probe
	// passes through to the healthy backend and closes the circuit.
	time.Sleep(120 * time.Millisecond)
	status, got, _ := post(t, base+"/v1/decode", stream)
	if status != http.StatusOK || !bytes.Equal(got, wantPlanes) {
		t.Fatalf("post-cooldown request: status %d, %d bytes — circuit did not recover", status, len(got))
	}
	c = counters(t, base)
	if c["proxy.recoveries"] != 1 {
		t.Errorf("proxy.recoveries = %d, want 1", c["proxy.recoveries"])
	}
	if c[stateKey] != stateHealthy {
		t.Errorf("state gauge = %d after recovery, want %d (healthy)", c[stateKey], stateHealthy)
	}
	resp, err = http.Get(base + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Errorf("proxy /healthz after recovery = %d, want 200", resp.StatusCode)
	}
}

// TestActiveProbing: the prober ejects a backend whose /healthz goes dark
// (traffic shifts to the survivor with zero client-visible errors) and
// readmits it after rise consecutive healthy probes.
func TestActiveProbing(t *testing.T) {
	stream, _ := corpusVector(t, faultVector)
	backends := newTestBackends(t, 2)
	p, base := newTestProxy(t, backends, nil, func(c *Config) {
		c.ProbeInterval = 20 * time.Millisecond
		c.DisableHedge = true
	})
	p.Start()

	key := "probe-key"
	owner := ownerOf(p, key)
	other := backends[1-owner]

	// Healthy fleet: the owner answers.
	_, _, hdr := post(t, base+"/v1/decode?key="+key, stream)
	if from := hdr.Get("X-Llm265-Backend"); from != backends[owner].host {
		t.Fatalf("healthy fleet routed to %s, want owner %s", from, backends[owner].host)
	}

	// Take the owner's healthz dark and wait for fall×interval plus slack.
	backends[owner].healthzDown.Store(true)
	deadline := time.Now().Add(3 * time.Second)
	for time.Now().Before(deadline) && p.backends[owner].probeHealthy.Load() {
		time.Sleep(10 * time.Millisecond)
	}
	if p.backends[owner].probeHealthy.Load() {
		t.Fatal("prober never ejected the dark backend")
	}
	c := counters(t, base)
	if c["proxy.ejections.active"] < 1 {
		t.Fatalf("proxy.ejections.active = %d, want ≥1", c["proxy.ejections.active"])
	}
	if c["proxy.backend."+backends[owner].host+".state"] != stateProbeDown {
		t.Fatalf("ejected backend state gauge = %d, want %d",
			c["proxy.backend."+backends[owner].host+".state"], stateProbeDown)
	}

	// Traffic keeps flowing — to the survivor, with no retry needed (the
	// prober removed the backend before the request tried it).
	before := counters(t, base)
	status, _, hdr := post(t, base+"/v1/decode?key="+key, stream)
	after := counters(t, base)
	if status != http.StatusOK {
		t.Fatalf("request during ejection: status %d", status)
	}
	if from := hdr.Get("X-Llm265-Backend"); from != other.host {
		t.Fatalf("ejected-owner traffic went to %s, want %s", from, other.host)
	}
	if d := after["proxy.retries"] - before["proxy.retries"]; d != 0 {
		t.Errorf("active ejection still cost %d retries; routing should skip ejected backends outright", d)
	}

	// Lights back on: rise probes readmit it, traffic returns to the owner.
	backends[owner].healthzDown.Store(false)
	deadline = time.Now().Add(3 * time.Second)
	for time.Now().Before(deadline) && !p.backends[owner].probeHealthy.Load() {
		time.Sleep(10 * time.Millisecond)
	}
	if !p.backends[owner].probeHealthy.Load() {
		t.Fatal("prober never readmitted the recovered backend")
	}
	if c := counters(t, base); c["proxy.recoveries"] < 1 {
		t.Errorf("proxy.recoveries = %d, want ≥1", c["proxy.recoveries"])
	}
	_, _, hdr = post(t, base+"/v1/decode?key="+key, stream)
	if from := hdr.Get("X-Llm265-Backend"); from != backends[owner].host {
		t.Errorf("recovered fleet routed to %s, want owner %s", from, backends[owner].host)
	}
}
