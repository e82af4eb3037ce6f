package main

import (
	"sort"
	"sync"
	"time"
)

// span is one timed interval recorded from the benchmark's own files around
// a call into a layer. Op ties the spans of one operation together; Parent is
// the id of the span that caused this one (0 for an operation's root).
type span struct {
	ID     int64  `json:"id"`
	Op     int64  `json:"op"`
	Parent int64  `json:"parent"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"` // since the tracer was created
	End    int64  `json:"end_ns"`
}

// tracer keeps spans in memory until the pass ends. A nil *tracer records
// nothing and reads no clock, so the untraced pass pays one pointer check.
type tracer struct {
	t0 time.Time

	mu    sync.Mutex
	spans []span
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// liveSpan is an open span; end closes it.
type liveSpan struct {
	tr     *tracer
	id, op int64
	parent int64
	name   string
	start  int64
}

// begin opens a span. ids come from the caller's own counter space (see
// opIDs) so concurrent clients never contend on one.
func (t *tracer) begin(id, op, parent int64, name string) liveSpan {
	if t == nil {
		return liveSpan{}
	}
	return liveSpan{tr: t, id: id, op: op, parent: parent, name: name, start: int64(time.Since(t.t0))}
}

func (s liveSpan) end() {
	if s.tr == nil {
		return
	}
	end := int64(time.Since(s.tr.t0))
	s.tr.mu.Lock()
	s.tr.spans = append(s.tr.spans, span{ID: s.id, Op: s.op, Parent: s.parent, Name: s.name, Start: s.start, End: end})
	s.tr.mu.Unlock()
}

// snapshot returns the recorded spans.
func (t *tracer) snapshot() []span {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return append([]span(nil), t.spans...)
}

// selfTimes maps span id → self time in ns: the span's duration minus the
// part of its interval that its child spans cover. Children may overlap each
// other (a hedged request, parallel decodes) and may stick out of the parent;
// the covered part is the union of the children clipped to the parent.
func selfTimes(spans []span) map[int64]int64 {
	children := map[int64][]span{}
	for _, s := range spans {
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	self := make(map[int64]int64, len(spans))
	for _, p := range spans {
		kids := children[p.ID]
		sort.Slice(kids, func(i, j int) bool { return kids[i].Start < kids[j].Start })
		var covered int64
		edge := p.Start // everything before edge is already counted
		for _, k := range kids {
			lo, hi := max(k.Start, edge), min(k.End, p.End)
			if hi > lo {
				covered += hi - lo
				edge = hi
			}
		}
		self[p.ID] = (p.End - p.Start) - covered
	}
	return self
}
