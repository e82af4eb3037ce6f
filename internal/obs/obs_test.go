package obs

import (
	"bytes"
	"encoding/json"
	"sync"
	"testing"
	"time"
)

func TestNilRegistryIsNoOp(t *testing.T) {
	var r *Registry
	if c := r.Counter("x"); c != nil {
		t.Fatal("nil registry handed out a live counter")
	}
	if h := r.Histogram("x"); h != nil {
		t.Fatal("nil registry handed out a live histogram")
	}
	// None of these may panic.
	r.Add("x", 3)
	var c *Counter
	c.Add(1)
	c.Inc()
	if c.Value() != 0 {
		t.Fatal("nil counter has a value")
	}
	var h *Histogram
	h.Observe(7)
	h.ObserveSince(time.Time{})
	sp := r.StartSpan("a")
	if !sp.start.IsZero() {
		t.Fatal("nil-registry span read the clock")
	}
	child := sp.Child("b")
	if d := child.End(); d != 0 {
		t.Fatal("no-op span returned a duration")
	}
	if d := sp.End(); d != 0 {
		t.Fatal("no-op span returned a duration")
	}
	snap := r.Snapshot()
	if snap == nil || len(snap.Counters) != 0 || len(snap.Histograms) != 0 {
		t.Fatalf("nil registry snapshot: %+v", snap)
	}
}

func TestCounterAndHistogramBasics(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("codec.encode.pixels")
	c.Add(100)
	c.Inc()
	if got := c.Value(); got != 101 {
		t.Fatalf("counter = %d, want 101", got)
	}
	if c2 := r.Counter("codec.encode.pixels"); c2 != c {
		t.Fatal("same name resolved to a different counter")
	}

	h := r.Histogram("lat")
	for _, v := range []int64{1, 2, 4, 100, 1000, -5} {
		h.Observe(v)
	}
	st := h.stats()
	if st.Count != 6 {
		t.Fatalf("count = %d, want 6", st.Count)
	}
	if st.Min != 0 { // the -5 clamps to 0
		t.Fatalf("min = %d, want 0", st.Min)
	}
	if st.Max != 1000 {
		t.Fatalf("max = %d, want 1000", st.Max)
	}
	if st.Sum != 1107 {
		t.Fatalf("sum = %d, want 1107", st.Sum)
	}
	if st.P99 > st.Max {
		t.Fatalf("p99 %d exceeds max %d", st.P99, st.Max)
	}
	if st.P50 <= 0 || st.P50 > st.P90 || st.P90 > st.P99 {
		t.Fatalf("quantiles out of order: p50=%d p90=%d p99=%d", st.P50, st.P90, st.P99)
	}
}

func TestHistogramQuantileBuckets(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram("q")
	// 100 observations of 10 and one of 10_000: p50/p90 live in 10's bucket
	// (upper bound 15), p99 too (101 obs, rank 100 of 101 is still a 10).
	for i := 0; i < 100; i++ {
		h.Observe(10)
	}
	h.Observe(10000)
	st := h.stats()
	if st.P50 != 15 || st.P90 != 15 {
		t.Fatalf("p50=%d p90=%d, want 15 (log2 bucket upper bound)", st.P50, st.P90)
	}
	if st.P99 != 15 {
		t.Fatalf("p99=%d, want 15", st.P99)
	}
	if st.Max != 10000 {
		t.Fatalf("max=%d, want 10000", st.Max)
	}
}

func TestSpanRecordsNanos(t *testing.T) {
	r := NewRegistry()
	sp := r.StartSpan("work")
	child := sp.Child("inner")
	time.Sleep(2 * time.Millisecond)
	if d := child.End(); d < time.Millisecond {
		t.Fatalf("child span %v, want >= 1ms", d)
	}
	if d := sp.End(); d < time.Millisecond {
		t.Fatalf("span %v, want >= 1ms", d)
	}
	snap := r.Snapshot()
	if snap.Histograms["work"].Count != 1 {
		t.Fatalf("span histogram missing: %v", snap.Histograms)
	}
	if snap.Histograms["work/inner"].Count != 1 {
		t.Fatalf("nested span path missing: %v", snap.Histograms)
	}
	if snap.Histograms["work"].Sum < snap.Histograms["work/inner"].Sum {
		t.Fatal("parent span shorter than its child")
	}
}

func TestSnapshotJSONRoundTrip(t *testing.T) {
	r := NewRegistry()
	r.Add("a.count", 7)
	r.Histogram("a.lat").Observe(128)
	var buf bytes.Buffer
	if err := r.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	var snap Snapshot
	if err := json.Unmarshal(buf.Bytes(), &snap); err != nil {
		t.Fatalf("snapshot is not valid JSON: %v\n%s", err, buf.String())
	}
	if snap.Counters["a.count"] != 7 {
		t.Fatalf("counter lost in JSON: %+v", snap)
	}
	if snap.Histograms["a.lat"].Count != 1 || snap.Histograms["a.lat"].Sum != 128 {
		t.Fatalf("histogram lost in JSON: %+v", snap)
	}
}

// TestConcurrentAccess hammers one registry from many goroutines; run under
// -race (make race / race-touched) this proves the record path is data-race
// free, which the parallel engine's worker pools rely on.
func TestConcurrentAccess(t *testing.T) {
	r := NewRegistry()
	const workers = 8
	const perWorker = 2000
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			for i := 0; i < perWorker; i++ {
				r.Add("shared.count", 1)
				r.Histogram("shared.hist").Observe(seed + int64(i))
				sp := r.StartSpan("shared.span")
				sp.End()
				if i%100 == 0 {
					_ = r.Snapshot() // snapshots race against writers by design
				}
			}
		}(int64(w))
	}
	wg.Wait()
	snap := r.Snapshot()
	if got := snap.Counters["shared.count"]; got != workers*perWorker {
		t.Fatalf("lost counter increments: %d, want %d", got, workers*perWorker)
	}
	if got := snap.Histograms["shared.hist"].Count; got != workers*perWorker {
		t.Fatalf("lost observations: %d, want %d", got, workers*perWorker)
	}
	if got := snap.Histograms["shared.span"].Count; got != workers*perWorker {
		t.Fatalf("lost spans: %d, want %d", got, workers*perWorker)
	}
}

func TestBucketOf(t *testing.T) {
	cases := []struct {
		v    int64
		want int
	}{{0, 0}, {1, 0}, {2, 1}, {3, 1}, {4, 2}, {7, 2}, {8, 3}, {1 << 40, 40}}
	for _, c := range cases {
		if got := bucketOf(c.v); got != c.want {
			t.Fatalf("bucketOf(%d) = %d, want %d", c.v, got, c.want)
		}
	}
}

// BenchmarkDisabledCounter measures the disabled (nil-handle) fast path; it
// should be a single predictable branch, i.e. sub-nanosecond.
func BenchmarkDisabledCounter(b *testing.B) {
	var c *Counter
	for i := 0; i < b.N; i++ {
		c.Add(1)
	}
}

func BenchmarkEnabledCounter(b *testing.B) {
	r := NewRegistry()
	c := r.Counter("x")
	for i := 0; i < b.N; i++ {
		c.Add(1)
	}
}

func BenchmarkEnabledHistogram(b *testing.B) {
	r := NewRegistry()
	h := r.Histogram("x")
	for i := 0; i < b.N; i++ {
		h.Observe(int64(i))
	}
}

// TestGauge pins the last-value-wins semantics, the nil no-op contract and
// the snapshot section gauges land in.
func TestGauge(t *testing.T) {
	r := NewRegistry()
	g := r.Gauge("proxy.backend.a.state")
	g.Set(3)
	g.Set(2)
	if got := g.Value(); got != 2 {
		t.Fatalf("gauge value = %d, want 2", got)
	}
	if r.Gauge("proxy.backend.a.state") != g {
		t.Fatal("Gauge did not return the registered handle on re-resolution")
	}
	snap := r.Snapshot()
	if snap.Gauges["proxy.backend.a.state"] != 2 {
		t.Fatalf("snapshot gauges = %v, want proxy.backend.a.state=2", snap.Gauges)
	}

	var nilG *Gauge
	nilG.Set(9)
	if nilG.Value() != 0 {
		t.Fatal("nil gauge is not a no-op")
	}
	var nilR *Registry
	if nilR.Gauge("x") != nil {
		t.Fatal("nil registry handed out a non-nil gauge")
	}
}

// TestHistogramStatsExported: the exported per-handle Stats must agree with
// the snapshot view, and be zero-valued on a nil handle.
func TestHistogramStatsExported(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram("lat")
	for _, v := range []int64{10, 20, 4000} {
		h.Observe(v)
	}
	st := h.Stats()
	snap := r.Snapshot().Histograms["lat"]
	if st != snap {
		t.Fatalf("Stats() = %+v, snapshot = %+v", st, snap)
	}
	if st.Count != 3 || st.Max != 4000 {
		t.Fatalf("Stats() = %+v, want count 3 max 4000", st)
	}
	var nilH *Histogram
	if nilH.Stats() != (HistogramStats{}) {
		t.Fatal("nil histogram Stats not zero")
	}
}
