package kv

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"sync"
	"testing"
	"time"

	"repro/internal/dct"
	"repro/internal/obs"
)

// rowsFor generates deterministic token rows keyed by absolute row index, so
// the same rows come out regardless of how appends are batched — the basis
// for prefix-aliasing tests.
func rowsFor(seed int64, start, n, dim int) []float32 {
	out := make([]float32, n*dim)
	for r := 0; r < n; r++ {
		rng := rand.New(rand.NewSource(seed*1_000_003 + int64(start+r)))
		base := rng.Float32() * 8
		for c := 0; c < dim; c++ {
			out[r*dim+c] = base + rng.Float32()
		}
	}
	return out
}

func mustAppend(t *testing.T, tab *Table, name string, dim, at int, vals []float32) AppendResult {
	t.Helper()
	res, err := tab.Append(context.Background(), name, dim, at, vals)
	if err != nil {
		t.Fatalf("Append(%s, at=%d, %d rows): %v", name, at, len(vals)/max(dim, 1), err)
	}
	return res
}

func mustRead(t *testing.T, tab *Table, name string, t0, t1 int) ReadResult {
	t.Helper()
	res, err := tab.Read(context.Background(), name, t0, t1)
	if err != nil {
		t.Fatalf("Read(%s, [%d,%d)): %v", name, t0, t1, err)
	}
	return res
}

// TestKVFlushCounters is the acceptance-criteria counter proof at the kv
// layer: every append advances codec.encode.chunks by exactly the number of
// newly completed flush groups — the committed prefix is never re-encoded —
// and a range read decodes exactly the chunks intersecting the range.
func TestKVFlushCounters(t *testing.T) {
	reg := obs.NewRegistry()
	tab := New(Config{FlushRows: 8, QP: 12, Metrics: reg})
	enc := func() int64 { return reg.Snapshot().Counters["codec.encode.chunks"] }
	dec := func() int64 { return reg.Snapshot().Counters["codec.decode.chunks"] }
	const dim = 16

	steps := []struct {
		rows, wantChunks, wantCommitted int
	}{
		{3, 0, 0},   // partial group stays in the tail
		{5, 1, 8},   // completes group 0
		{16, 2, 24}, // completes groups 1 and 2
		{2, 0, 24},  // tail again
	}
	at := 0
	for i, st := range steps {
		before := enc()
		res := mustAppend(t, tab, "s", dim, at, rowsFor(1, at, st.rows, dim))
		at += st.rows
		if d := enc() - before; d != int64(st.wantChunks) {
			t.Fatalf("step %d: encode.chunks advanced by %d, want %d", i, d, st.wantChunks)
		}
		if res.NewChunks != st.wantChunks || res.Committed != st.wantCommitted || res.Total != at {
			t.Fatalf("step %d: result %+v", i, res)
		}
	}

	// Full read touches all 3 chunks; a read inside one group touches 1.
	before := dec()
	if got := mustRead(t, tab, "s", 0, -1); got.From != 0 || got.To != 26 {
		t.Fatalf("full read window [%d,%d)", got.From, got.To)
	}
	if d := dec() - before; d != 3 {
		t.Fatalf("full read decoded %d chunks, want 3", d)
	}
	before = dec()
	if got := mustRead(t, tab, "s", 17, 23); got.From != 17 || got.To != 23 {
		t.Fatalf("ranged read window [%d,%d)", got.From, got.To)
	}
	if d := dec() - before; d != 1 {
		t.Fatalf("read of rows [17,23) decoded %d chunks, want 1", d)
	}
	// A tail-only read decodes nothing.
	before = dec()
	mustRead(t, tab, "s", 24, 26)
	if d := dec() - before; d != 0 {
		t.Fatalf("tail read decoded %d chunks", d)
	}

	snap := reg.Snapshot()
	if snap.Counters["kv.append.tokens"] != 26 || snap.Counters["kv.append.chunks_encoded"] != 3 {
		t.Fatalf("kv counters: %+v", snap.Counters)
	}
}

// TestKVPrefixAliasing: a second session replaying the same prompt prefix
// aliases every chunk (no encode work, no new resident bytes) and reads
// back values identical to the donor's; divergence after the shared prefix
// encodes normally.
func TestKVPrefixAliasing(t *testing.T) {
	const dim, f = 16, 8
	reg := obs.NewRegistry()
	tab := New(Config{FlushRows: f, QP: 12, Metrics: reg})
	enc := func() int64 { return reg.Snapshot().Counters["codec.encode.chunks"] }

	prefix := rowsFor(3, 0, 2*f, dim)
	mustAppend(t, tab, "donor", dim, 0, prefix)
	resAfterDonor := tab.Resident()
	encAfterDonor := enc()

	res := mustAppend(t, tab, "twin", dim, 0, prefix)
	if res.Aliased != 2 || res.NewChunks != 0 || res.Saved <= 0 {
		t.Fatalf("twin prefix append %+v", res)
	}
	if d := enc() - encAfterDonor; d != 0 {
		t.Fatalf("aliased append encoded %d chunks", d)
	}
	if tab.Resident() != resAfterDonor {
		t.Fatalf("aliased append changed resident %d -> %d", resAfterDonor, tab.Resident())
	}

	// Divergent continuation encodes one fresh chunk.
	res = mustAppend(t, tab, "twin", dim, 2*f, rowsFor(99, 2*f, f, dim))
	if res.Aliased != 0 || res.NewChunks != 1 {
		t.Fatalf("divergent append %+v", res)
	}

	a := mustRead(t, tab, "donor", 0, 2*f)
	b := mustRead(t, tab, "twin", 0, 2*f)
	for i := range a.Vals {
		if a.Vals[i] != b.Vals[i] {
			t.Fatalf("aliased value %d = %g, donor %g", i, b.Vals[i], a.Vals[i])
		}
	}
	if c := reg.Snapshot().Counters["kv.append.chunks_aliased"]; c != 2 {
		t.Fatalf("chunks_aliased = %d", c)
	}
}

// TestKVAliasedMatchesUnaliased: the satellite property's twin clause at
// unit scale — twin sessions in one table return the exact same values as
// each session alone in a table of its own, where nothing can alias and every
// chunk is encoded. (That identical payloads are stored once is
// TestBlobCacheRefcounting's.)
func TestKVAliasedMatchesUnaliased(t *testing.T) {
	const dim, f = 16, 8
	rows := rowsFor(13, 0, 3*f+5, dim)
	regA, regP := obs.NewRegistry(), obs.NewRegistry()
	aliased := New(Config{FlushRows: f, QP: 12, Metrics: regA})
	plain := map[string]*Table{}
	for _, name := range []string{"a", "b"} {
		mustAppend(t, aliased, name, dim, 0, rows)
		plain[name] = New(Config{FlushRows: f, QP: 12, Metrics: regP})
		mustAppend(t, plain[name], name, dim, 0, rows)
	}
	encA := regA.Snapshot().Counters["codec.encode.chunks"]
	encP := regP.Snapshot().Counters["codec.encode.chunks"]
	if encA != 3 || encP != 6 {
		t.Fatalf("encode.chunks: aliased %d (want 3), one table a session %d (want 6)", encA, encP)
	}
	for _, name := range []string{"a", "b"} {
		x := mustRead(t, aliased, name, 0, -1)
		y := mustRead(t, plain[name], name, 0, -1)
		for i := range x.Vals {
			if x.Vals[i] != y.Vals[i] {
				t.Fatalf("session %s value %d: aliased %g, plain %g", name, i, x.Vals[i], y.Vals[i])
			}
		}
	}
}

// evictLog records OnEvict callbacks for cross-checking against reads.
type evictLog struct {
	mu      sync.Mutex
	evicted map[string]int  // session -> highest token evicted
	full    map[string]bool // session -> fully removed
}

func newEvictLog() *evictLog {
	return &evictLog{evicted: make(map[string]int), full: make(map[string]bool)}
}

func (l *evictLog) hook(session string, from, to int, full bool) {
	l.mu.Lock()
	defer l.mu.Unlock()
	if full {
		l.full[session] = true
		return
	}
	if to > l.evicted[session] {
		l.evicted[session] = to
	}
}

func (l *evictLog) window(session string) (int, bool) {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.evicted[session], l.full[session]
}

// TestKVEvictionBudget: a tight budget forces chunk-then-session eviction;
// resident bytes never exceed the budget at any observation point, partially
// evicted sessions serve narrowed windows that agree with the eviction log,
// and fully evicted ranges refuse cleanly.
func TestKVEvictionBudget(t *testing.T) {
	const dim, f = 16, 8
	log := newEvictLog()
	reg := obs.NewRegistry()
	// Budget: above one append's transient reservation (raw tail f*dim*4 =
	// 512 plus the encode estimate f*dim*6+1024 = 1792) but far below what
	// 6 sessions × 4 groups of distinct content need resident.
	tab := New(Config{
		FlushRows: f, QP: 12, BudgetBytes: 4 << 10,
		Metrics: reg, OnEvict: log.hook,
	})
	check := func() {
		if r, b := tab.Resident(), tab.Budget(); r > b {
			t.Fatalf("resident %d exceeds budget %d", r, b)
		}
	}
	for i := 0; i < 6; i++ {
		name := fmt.Sprintf("s%d", i)
		at := 0
		for g := 0; g < 4; g++ {
			mustAppend(t, tab, name, dim, at, rowsFor(int64(i), at, f, dim))
			at += f
			check()
		}
	}
	snap := reg.Snapshot()
	if snap.Counters["kv.evict.chunks"] == 0 && snap.Counters["kv.evict.sessions"] == 0 {
		t.Fatal("tight budget evicted nothing")
	}
	// Every session's rows come from its own seed: nothing can alias, so the
	// eviction order is the one distinct content gives.
	if c := snap.Counters["kv.append.chunks_aliased"]; c != 0 {
		t.Fatalf("chunks_aliased = %d, want 0", c)
	}

	served := 0
	for i := 0; i < 6; i++ {
		name := fmt.Sprintf("s%d", i)
		evictedTo, full := log.window(name)
		res, err := tab.Read(context.Background(), name, 0, -1)
		check()
		switch {
		case err == nil:
			served++
			if res.From != evictedTo {
				t.Fatalf("%s: read starts at %d, eviction log says %d", name, res.From, evictedTo)
			}
			if res.From > 0 {
				// The evicted prefix itself must refuse.
				if _, err := tab.Read(context.Background(), name, 0, res.From); !errors.Is(err, ErrRangeUnavailable) {
					t.Fatalf("%s: evicted prefix read: %v", name, err)
				}
			}
		case errors.Is(err, ErrNotFound):
			if !full {
				t.Fatalf("%s: gone but eviction log has no full eviction", name)
			}
		case errors.Is(err, ErrRangeUnavailable):
			// Drained to nothing but not yet removed; window must be empty.
			if res.From != res.To {
				t.Fatalf("%s: range unavailable with window [%d,%d)", name, res.From, res.To)
			}
		default:
			t.Fatalf("%s: %v", name, err)
		}
	}
	if served == 0 {
		t.Fatal("every session fully evicted; budget too tight for the test to mean anything")
	}
}

// TestKVBudgetRejects: an append that cannot fit even after eviction fails
// with ErrBudget and corrupts nothing.
func TestKVBudgetRejects(t *testing.T) {
	tab := New(Config{FlushRows: 4, QP: 12, BudgetBytes: 512})
	_, err := tab.Append(context.Background(), "s", 64, 0, rowsFor(1, 0, 64, 64))
	if !errors.Is(err, ErrBudget) {
		t.Fatalf("oversized append: %v", err)
	}
	// The session must not serve garbage: it either doesn't exist or has an
	// empty window.
	res, err := tab.Read(context.Background(), "s", 0, -1)
	if err != nil && !errors.Is(err, ErrNotFound) && !errors.Is(err, ErrRangeUnavailable) {
		t.Fatalf("read after rejected append: %v", err)
	}
	if len(res.Vals) != 0 {
		t.Fatalf("rejected append left %d readable values", len(res.Vals))
	}
}

// TestKVTTL: idle sessions expire lazily on access and under Sweep, and
// their bytes leave the budget.
func TestKVTTL(t *testing.T) {
	now := time.Unix(1000, 0)
	var mu sync.Mutex
	clock := func() time.Time { mu.Lock(); defer mu.Unlock(); return now }
	advance := func(d time.Duration) { mu.Lock(); now = now.Add(d); mu.Unlock() }

	tab := New(Config{FlushRows: 4, QP: 12, TTL: time.Minute, Now: clock})
	mustAppend(t, tab, "a", 8, 0, rowsFor(1, 0, 8, 8))
	mustAppend(t, tab, "b", 8, 0, rowsFor(2, 0, 8, 8))
	if tab.Sessions() != 2 || tab.Resident() == 0 {
		t.Fatalf("sessions=%d resident=%d", tab.Sessions(), tab.Resident())
	}

	advance(30 * time.Second)
	mustRead(t, tab, "a", 0, -1) // touches a; b keeps aging
	advance(45 * time.Second)

	if _, err := tab.Read(context.Background(), "b", 0, -1); !errors.Is(err, ErrNotFound) {
		t.Fatalf("expired read: %v", err)
	}
	mustRead(t, tab, "a", 0, -1)

	advance(2 * time.Minute)
	if tab.Sessions() != 1 {
		t.Fatalf("sessions=%d: expiry is lazy, a stays until it is looked up", tab.Sessions())
	}
	if _, err := tab.Read(context.Background(), "a", 0, -1); !errors.Is(err, ErrNotFound) {
		t.Fatalf("expired read: %v", err)
	}
	if tab.Sessions() != 0 || tab.Resident() != 0 {
		t.Fatalf("after the lookup: sessions=%d resident=%d", tab.Sessions(), tab.Resident())
	}
}

// TestKVValidation covers the typed error taxonomy the HTTP layer maps.
func TestKVValidation(t *testing.T) {
	ctx := context.Background()
	tab := New(Config{FlushRows: 4, QP: 12})
	mustAppend(t, tab, "s", 8, 0, rowsFor(1, 0, 6, 8))

	if _, err := tab.Append(ctx, "s", 16, -1, rowsFor(1, 0, 1, 16)); !errors.Is(err, ErrDimMismatch) {
		t.Fatalf("dim mismatch: %v", err)
	}
	if _, err := tab.Append(ctx, "s", 8, 5, rowsFor(1, 0, 1, 8)); !errors.Is(err, ErrOffsetMismatch) {
		t.Fatalf("offset mismatch: %v", err)
	}
	if _, err := tab.Append(ctx, "s", 8, -1, make([]float32, 7)); err == nil {
		t.Fatal("ragged append accepted")
	}
	if _, err := tab.Append(ctx, "x", maxDim+1, 0, make([]float32, maxDim+1)); err == nil {
		t.Fatal("dim above maxDim accepted")
	}
	if _, err := tab.Append(ctx, "", 8, 0, nil); err == nil {
		t.Fatal("empty session name accepted")
	}
	if _, err := tab.Read(ctx, "nope", 0, -1); !errors.Is(err, ErrNotFound) {
		t.Fatalf("missing session read: %v", err)
	}
	if _, err := tab.Read(ctx, "s", 5, 3); err == nil {
		t.Fatal("inverted range accepted")
	}
	if _, err := tab.Read(ctx, "s", 6, -1); !errors.Is(err, ErrRangeUnavailable) {
		t.Fatalf("past-the-end read: %v", err)
	}
	// An empty range reads nothing and still reports the window.
	if res, err := tab.Read(ctx, "s", 0, 0); !errors.Is(err, ErrRangeUnavailable) || res.Total != 6 || res.Dim != 8 {
		t.Fatalf("Read(0,0) = %+v, %v", res, err)
	}
	if err := tab.Delete("s"); err != nil {
		t.Fatal(err)
	}
	if err := tab.Delete("s"); !errors.Is(err, ErrNotFound) {
		t.Fatalf("double delete: %v", err)
	}
	if tab.Resident() != 0 {
		t.Fatalf("resident %d after delete", tab.Resident())
	}
}

// TestKVNewRejectsImpossibleQP: a QP above dct.MaxQP fails where the table is
// built, not in the first append to complete a flush group — there it would be
// the codec's "qp out of range", a configuration error surfacing as that
// caller's, with the group's rows left staged. dct.MaxQP itself encodes.
func TestKVNewRejectsImpossibleQP(t *testing.T) {
	mustAppend(t, New(Config{FlushRows: 4, QP: dct.MaxQP}), "s", 8, 0, rowsFor(1, 0, 4, 8))
	defer func() {
		if recover() == nil {
			t.Fatal("New accepted QP above dct.MaxQP")
		}
	}()
	New(Config{QP: dct.MaxQP + 1})
}
