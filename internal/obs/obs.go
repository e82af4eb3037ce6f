// Package obs is the dependency-free observability layer of the codec
// stack: atomic counters, log₂-bucketed histograms and nestable span timers,
// collected in a Registry with a JSON snapshot API.
//
// Design rules (DESIGN.md §10):
//
//   - One switch, zero cost when disabled. A nil *Registry is a valid sink:
//     it and the nil handles it returns do nothing past one nil check, so
//     instrumented code calls pre-resolved handles with no test of its own,
//     testing one only in a helper that skips what a nil handle cannot (the
//     clock read feeding it). Disabled, nothing locks, allocates or reads
//     the clock (a nil registry's Span never calls time.Now()).
//   - Race-clean by construction. Counter and Histogram mutate only
//     sync/atomic values; Registry's name→handle maps are guarded by an
//     RWMutex that is touched only on handle resolution and snapshot, never
//     on the record path. The parallel engine's worker pools may hammer the
//     same handles from many goroutines.
//   - Stdlib only. The package imports nothing outside the standard library
//     so every layer of the stack (codec, core, nvcodec, cmd) can depend on
//     it without dependency cycles or third-party baggage.
//
// Naming convention: dot-separated hierarchical names, lowercase, with the
// owning layer as the first segment — "codec.encode.stage.transform_quant",
// "core.decode.errors.checksum". Span timers record nanoseconds into a
// histogram under their own path; nested spans join paths with '/'.
package obs

import (
	"encoding/json"
	"io"
	"math"
	mbits "math/bits"
	"sync"
	"sync/atomic"
	"time"
)

// ---------------------------------------------------------------- counters

// Counter is a monotonically adjustable atomic int64. The zero value is
// ready to use; a nil *Counter is a valid no-op sink.
type Counter struct {
	v atomic.Int64
}

// Add increments the counter by n. No-op on a nil receiver.
func (c *Counter) Add(n int64) {
	if c == nil {
		return
	}
	c.v.Add(n)
}

// Inc increments the counter by one. No-op on a nil receiver.
func (c *Counter) Inc() { c.Add(1) }

// Value reports the current count (0 on a nil receiver).
func (c *Counter) Value() int64 {
	if c == nil {
		return 0
	}
	return c.v.Load()
}

// ------------------------------------------------------------------ gauges

// Gauge is a last-value-wins atomic int64 — the instantaneous-state
// complement to Counter's monotone accumulation (a backend's circuit state,
// a queue depth). The zero value is ready to use; a nil *Gauge is a valid
// no-op sink.
type Gauge struct {
	v atomic.Int64
}

// Set overwrites the gauge. No-op on a nil receiver.
func (g *Gauge) Set(v int64) {
	if g == nil {
		return
	}
	g.v.Store(v)
}

// Value reports the current level (0 on a nil receiver).
func (g *Gauge) Value() int64 {
	if g == nil {
		return 0
	}
	return g.v.Load()
}

// --------------------------------------------------------------- histogram

// histBuckets is the number of log₂ buckets: bucket i counts observations v
// with 2^i <= v < 2^(i+1) (bucket 0 additionally holds v <= 1). 64 buckets
// cover the full non-negative int64 range, which comfortably spans
// nanosecond durations from 1ns to ~292 years.
const histBuckets = 64

// Histogram accumulates int64 observations (typically nanoseconds or bits)
// into power-of-two buckets plus exact count/sum/min/max. All fields are
// atomic, so concurrent Observe calls from the worker pools are race-free.
// A nil *Histogram is a valid no-op sink.
type Histogram struct {
	count, sum atomic.Int64
	min, max   atomic.Int64 // valid only when count > 0; min seeded lazily
	buckets    [histBuckets]atomic.Int64
}

// Observe records one value. Negative values are clamped to zero (durations
// and bit counts are never meaningfully negative; a clamped zero still
// counts the event). No-op on a nil receiver.
func (h *Histogram) Observe(v int64) {
	if h == nil {
		return
	}
	if v < 0 {
		v = 0
	}
	h.count.Add(1)
	h.sum.Add(v)
	for {
		old := h.min.Load()
		// min is encoded as (value+1) with 0 meaning "unset", so the zero
		// value of the struct needs no constructor.
		if old != 0 && old <= v+1 {
			break
		}
		if h.min.CompareAndSwap(old, v+1) {
			break
		}
	}
	for {
		old := h.max.Load()
		if v <= old {
			break
		}
		if h.max.CompareAndSwap(old, v) {
			break
		}
	}
	h.buckets[bucketOf(v)].Add(1)
}

// ObserveSince records the nanoseconds elapsed since start. No-op on a nil
// receiver (and start may be the zero Time in that case).
func (h *Histogram) ObserveSince(start time.Time) {
	if h == nil {
		return
	}
	h.Observe(int64(time.Since(start)))
}

// bucketOf maps v (>= 0) to its log₂ bucket index.
func bucketOf(v int64) int {
	if v <= 1 {
		return 0
	}
	b := mbits.Len64(uint64(v)) - 1
	if b >= histBuckets {
		b = histBuckets - 1
	}
	return b
}

// HistogramStats is the JSON-friendly summary of a histogram at snapshot
// time. Quantiles are estimated from the log₂ buckets (upper bound of the
// containing bucket), so they are order-of-magnitude accurate — the right
// fidelity for stage timing dashboards, at zero record-path cost.
type HistogramStats struct {
	Count int64   `json:"count"`
	Sum   int64   `json:"sum"`
	Min   int64   `json:"min"`
	Max   int64   `json:"max"`
	Mean  float64 `json:"mean"`
	P50   int64   `json:"p50"`
	P90   int64   `json:"p90"`
	P99   int64   `json:"p99"`
}

// Stats summarizes the histogram at call time — the same numbers a Snapshot
// reports, available per-handle so latency-adaptive policies (the proxy's
// p99-derived hedge delay) can read quantiles without snapshotting the whole
// registry. A nil receiver reports the zero HistogramStats.
func (h *Histogram) Stats() HistogramStats {
	if h == nil {
		return HistogramStats{}
	}
	return h.stats()
}

// stats summarizes the histogram. Concurrent Observe calls may land between
// field reads; the snapshot is advisory, not transactional.
func (h *Histogram) stats() HistogramStats {
	st := HistogramStats{Count: h.count.Load(), Sum: h.sum.Load(), Max: h.max.Load()}
	if m := h.min.Load(); m > 0 {
		st.Min = m - 1
	}
	if st.Count > 0 {
		st.Mean = float64(st.Sum) / float64(st.Count)
	}
	var counts [histBuckets]int64
	var total int64
	for i := range counts {
		counts[i] = h.buckets[i].Load()
		total += counts[i]
	}
	st.P50 = quantile(counts[:], total, 0.50)
	st.P90 = quantile(counts[:], total, 0.90)
	st.P99 = quantile(counts[:], total, 0.99)
	// Clamp quantile upper bounds to the observed max so tiny samples do not
	// report a p99 beyond any real observation.
	if st.Max > 0 {
		if st.P50 > st.Max {
			st.P50 = st.Max
		}
		if st.P90 > st.Max {
			st.P90 = st.Max
		}
		if st.P99 > st.Max {
			st.P99 = st.Max
		}
	}
	return st
}

// quantile returns the upper bound of the bucket containing the q-quantile.
func quantile(counts []int64, total int64, q float64) int64 {
	if total == 0 {
		return 0
	}
	rank := int64(math.Ceil(q * float64(total)))
	if rank < 1 {
		rank = 1
	}
	var seen int64
	for i, c := range counts {
		seen += c
		if seen >= rank {
			if i >= 62 {
				return math.MaxInt64
			}
			return (int64(1) << (uint(i) + 1)) - 1
		}
	}
	return math.MaxInt64
}

// ---------------------------------------------------------------- registry

// Registry is a named collection of counters and histograms. The zero value
// is not usable — call NewRegistry — but a nil *Registry is the canonical
// "metrics disabled" sink: every method returns immediately (handing out nil
// handles whose methods are themselves no-ops).
type Registry struct {
	mu         sync.RWMutex
	counters   map[string]*Counter
	gauges     map[string]*Gauge
	histograms map[string]*Histogram
}

// NewRegistry returns an empty metrics registry.
func NewRegistry() *Registry {
	return &Registry{
		counters:   map[string]*Counter{},
		gauges:     map[string]*Gauge{},
		histograms: map[string]*Histogram{},
	}
}

// Counter returns the counter registered under name, creating it on first
// use. Returns nil (a valid no-op handle) when the registry is nil.
func (r *Registry) Counter(name string) *Counter {
	if r == nil {
		return nil
	}
	r.mu.RLock()
	c := r.counters[name]
	r.mu.RUnlock()
	if c != nil {
		return c
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if c = r.counters[name]; c == nil {
		c = &Counter{}
		r.counters[name] = c
	}
	return c
}

// Gauge returns the gauge registered under name, creating it on first use.
// Returns nil (a valid no-op handle) when the registry is nil.
func (r *Registry) Gauge(name string) *Gauge {
	if r == nil {
		return nil
	}
	r.mu.RLock()
	g := r.gauges[name]
	r.mu.RUnlock()
	if g != nil {
		return g
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if g = r.gauges[name]; g == nil {
		g = &Gauge{}
		r.gauges[name] = g
	}
	return g
}

// Histogram returns the histogram registered under name, creating it on
// first use. Returns nil (a valid no-op handle) when the registry is nil.
func (r *Registry) Histogram(name string) *Histogram {
	if r == nil {
		return nil
	}
	r.mu.RLock()
	h := r.histograms[name]
	r.mu.RUnlock()
	if h != nil {
		return h
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if h = r.histograms[name]; h == nil {
		h = &Histogram{}
		r.histograms[name] = h
	}
	return h
}

// Add is shorthand for Counter(name).Add(n).
func (r *Registry) Add(name string, n int64) {
	if r == nil {
		return
	}
	r.Counter(name).Add(n)
}

// ------------------------------------------------------------------- spans

// Span is a nestable wall-clock timer. It is a small value type — starting
// and ending a span allocates nothing — and the zero Span (what a nil
// registry hands out) is a no-op whose End never reads the clock.
//
//	sp := reg.StartSpan("codec.encode")
//	defer sp.End()
//	child := sp.Child("container")   // records under "codec.encode/container"
//	...
//	child.End()
type Span struct {
	reg   *Registry
	name  string
	start time.Time
}

// StartSpan begins a timer that End will record, in nanoseconds, into the
// histogram named after the span. On a nil registry the returned Span is
// zero and completely free.
func (r *Registry) StartSpan(name string) Span {
	if r == nil {
		return Span{}
	}
	return Span{reg: r, name: name, start: time.Now()}
}

// Child starts a nested span whose path is parent/name. On a no-op parent
// the child is also a no-op.
func (s Span) Child(name string) Span {
	if s.reg == nil {
		return Span{}
	}
	return s.reg.StartSpan(s.name + "/" + name)
}

// End records the elapsed nanoseconds and returns them (0 for a no-op
// span). End may be called at most once per span; calling it on the zero
// Span is safe.
func (s Span) End() time.Duration {
	if s.reg == nil {
		return 0
	}
	d := time.Since(s.start)
	s.reg.Histogram(s.name).Observe(int64(d))
	return d
}

// ---------------------------------------------------------------- snapshot

// Snapshot is a point-in-time JSON-serializable view of a registry.
// Counters and Histograms are keyed by metric name; encoding/json emits map
// keys sorted, so the output is diff-friendly.
type Snapshot struct {
	TakenAt    time.Time                 `json:"taken_at"`
	Counters   map[string]int64          `json:"counters"`
	Gauges     map[string]int64          `json:"gauges"`
	Histograms map[string]HistogramStats `json:"histograms"`
}

// Snapshot captures every metric currently registered. On a nil registry it
// returns an empty (but usable) snapshot, so callers can serialize
// unconditionally.
func (r *Registry) Snapshot() *Snapshot {
	snap := &Snapshot{
		TakenAt:    time.Now(),
		Counters:   map[string]int64{},
		Gauges:     map[string]int64{},
		Histograms: map[string]HistogramStats{},
	}
	if r == nil {
		return snap
	}
	r.mu.RLock()
	defer r.mu.RUnlock()
	for name, c := range r.counters {
		snap.Counters[name] = c.Value()
	}
	for name, g := range r.gauges {
		snap.Gauges[name] = g.Value()
	}
	for name, h := range r.histograms {
		snap.Histograms[name] = h.stats()
	}
	return snap
}

// WriteJSON writes an indented JSON snapshot of the registry to w.
func (r *Registry) WriteJSON(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(r.Snapshot())
}
