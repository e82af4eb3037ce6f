package serve

import (
	"context"
	"encoding/json"
	"io"
	"net/http"
	"sync/atomic"
	"testing"
	"time"
)

// TestExpiredRequestNotDispatched is the queue-expiry regression gate: a
// request whose context is already dead when an inflight slot becomes
// available must be bounced with the deadline taxonomy instead of being
// dispatched into the pool. On the pre-fix code the fast path handed the
// slot out without consulting the context, so every such request burned
// pool time just to discover its first ctx poll failed.
func TestExpiredRequestNotDispatched(t *testing.T) {
	// Fast path: slots free, context already expired — deterministic on the
	// old code (the nonblocking select always takes the slot).
	a := newAdmission(1, 4)
	ctx, cancel := context.WithDeadline(context.Background(), time.Now().Add(-time.Second))
	defer cancel()
	release, rej := a.admit(ctx)
	if rej == nil {
		release()
		t.Fatal("expired request was dispatched into the pool (fast path)")
	}
	if st := classify(rej).status; st != http.StatusGatewayTimeout {
		t.Fatalf("expired fast-path admit status = %d, want 504", st)
	}
	if a.inflightNow() != 0 {
		t.Fatalf("expired admit leaked an inflight slot (%d held)", a.inflightNow())
	}

	// A canceled (rather than deadline-blown) context maps to 499.
	cctx, ccancel := context.WithCancel(context.Background())
	ccancel()
	if _, rej := a.admit(cctx); rej == nil || classify(rej).status != StatusClientClosedRequest {
		t.Fatalf("canceled fast-path admit = %+v, want 499 rejection", rej)
	}

	// Queue path: the deadline dies while the request waits. Both ways out
	// of the dequeue select must bounce it: the slot arriving for a request
	// whose context is already dead (the pre-fix code dispatched it), and the
	// context's Done firing first. The deadline is the test's to blow — a
	// timer-driven context raced its own timer against the test's sleeps.
	for _, slotFirst := range []bool{true, false} {
		a := newAdmission(1, 4)
		hold, rej := a.admit(context.Background())
		if rej != nil {
			t.Fatalf("slotFirst=%v: holder rejected: %v", slotFirst, rej)
		}
		qctx := &manualDeadline{Context: context.Background(), done: make(chan struct{})}
		done := make(chan error, 1)
		go func() {
			release, rej := a.admit(qctx)
			if release != nil {
				release()
			}
			done <- rej
		}()
		for a.queued.Load() == 0 { // the request is in the dequeue select
			time.Sleep(100 * time.Microsecond)
		}
		if slotFirst {
			// Dead, but Done not yet delivered: only the slot can wake it.
			qctx.dead.Store(true)
			hold()
			rej = <-done
			close(qctx.done)
		} else {
			qctx.dead.Store(true)
			close(qctx.done)
			rej = <-done
			hold()
		}
		if rej == nil {
			t.Fatalf("slotFirst=%v: request with a blown deadline was dispatched from the queue", slotFirst)
		}
		if st := classify(rej).status; st != http.StatusGatewayTimeout {
			t.Fatalf("slotFirst=%v: dequeue-expired status = %d, want 504", slotFirst, st)
		}
		if a.inflightNow() != 0 {
			t.Fatalf("slotFirst=%v: expired dequeue leaked a slot", slotFirst)
		}
	}
}

// manualDeadline is a context whose deadline blows when the test says so:
// Err turns into context.DeadlineExceeded when dead is set, and Done is
// closed by the test separately, so the instant between the two — where a
// timer-driven context is for as long as the scheduler delays its timer —
// can be held open.
type manualDeadline struct {
	context.Context
	dead atomic.Bool
	done chan struct{}
}

func (c *manualDeadline) Done() <-chan struct{} { return c.done }

func (c *manualDeadline) Err() error {
	if c.dead.Load() {
		return context.DeadlineExceeded
	}
	return nil
}

// TestExpiredRequestOverHTTP pins the end-to-end mapping: a request that
// expires while queued answers 504 with the deadline_exceeded class.
func TestExpiredRequestOverHTTP(t *testing.T) {
	s, url := newTestServer(t, Config{MaxInflight: 1, MaxQueue: 2})
	// Occupy the one slot so the request under test has to queue.
	s.adm.enter()
	s.adm.sem <- struct{}{}

	status := make(chan int, 1)
	body := make(chan []byte, 1)
	go func() {
		st, b, _ := post(t, url+"/v1/decode?deadline_ms=20", []byte("L265\x02 body"))
		status <- st
		body <- b
	}()
	deadline := time.Now().Add(5 * time.Second)
	for s.Queued() == 0 && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	time.Sleep(30 * time.Millisecond) // budget is now blown in the queue
	<-s.adm.sem
	s.adm.exit()

	select {
	case st := <-status:
		if st != http.StatusGatewayTimeout {
			t.Fatalf("status = %d, want 504 (%s)", st, <-body)
		}
		var eb errorBody
		if err := json.Unmarshal(<-body, &eb); err != nil || eb.Class != "deadline_exceeded" {
			t.Fatalf("error class = %q (err %v), want deadline_exceeded", eb.Class, err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("queued request never completed")
	}
}

// TestHealthzDrainingBody pins the machine-readable draining contract the
// proxy's prober keys on: healthy → 200 with draining=false; once Drain has
// begun → 503 with draining=true, while the listener still answers.
func TestHealthzDrainingBody(t *testing.T) {
	s, url := newTestServer(t, Config{MaxInflight: 2})
	readHealth := func() (int, map[string]any) {
		resp, err := http.Get(url + "/healthz")
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		blob, _ := io.ReadAll(resp.Body)
		var m map[string]any
		if err := json.Unmarshal(blob, &m); err != nil {
			t.Fatalf("healthz body not JSON: %v (%s)", err, blob)
		}
		return resp.StatusCode, m
	}

	st, m := readHealth()
	if st != http.StatusOK {
		t.Fatalf("healthy healthz = %d, want 200", st)
	}
	if v, ok := m["draining"].(bool); !ok || v {
		t.Fatalf("healthy healthz draining = %v, want false", m["draining"])
	}

	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := s.Drain(ctx); err != nil {
		t.Fatal(err)
	}
	st, m = readHealth()
	if st != http.StatusServiceUnavailable {
		t.Fatalf("draining healthz = %d, want 503", st)
	}
	if v, ok := m["draining"].(bool); !ok || !v {
		t.Fatalf("draining healthz draining = %v, want true", m["draining"])
	}
}
