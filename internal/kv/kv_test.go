package kv

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"math/rand"
	"runtime"
	"sync"
	"sync/atomic"
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
// chunk is encoded. (That an aliased chunk is held once is
// TestKVChunkTableRefcounting's and TestKVChunkTableTakesOwnership's.)
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

// TestKVAliasingIsPositionFree: a chunk is keyed by the rows it encodes, not
// by the prefix before them, so a group repeated at another position — later
// in the same session, or at a different offset in another session — aliases
// the chunk already held: kv.append.chunks_aliased counts it and
// codec.encode.chunks does not advance. The reads are the rows' values.
func TestKVAliasingIsPositionFree(t *testing.T) {
	const dim, f = 16, 8
	reg := obs.NewRegistry()
	tab := New(Config{FlushRows: f, QP: 12, Metrics: reg})
	counter := func(name string) int64 { return reg.Snapshot().Counters[name] }

	g := rowsFor(7, 0, f, dim)
	mustAppend(t, tab, "a", dim, 0, append(append(g[:len(g):len(g)], rowsFor(8, f, f, dim)...), g...))
	if enc, al := counter("codec.encode.chunks"), counter("kv.append.chunks_aliased"); enc != 2 || al != 1 {
		t.Fatalf("group repeated in one append: encoded %d aliased %d, want 2 and 1", enc, al)
	}
	res := mustAppend(t, tab, "b", dim, 0, append(rowsFor(9, 0, f, dim), g...))
	if res.NewChunks != 1 || res.Aliased != 1 || counter("codec.encode.chunks") != 3 || counter("kv.append.chunks_aliased") != 2 {
		t.Fatalf("group at another offset in another session: %+v", res)
	}

	want := mustRead(t, tab, "a", 0, f).Vals
	for _, w := range []struct {
		name string
		at   int
	}{{"a", 2 * f}, {"b", f}} {
		got := mustRead(t, tab, w.name, w.at, w.at+f).Vals
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("%s rows [%d,%d) value %d = %g, the same rows at 0 read %g", w.name, w.at, w.at+f, i, got[i], want[i])
			}
		}
	}
}

// TestKVEvictionDropsGroupState: an evicted group leaves the session
// entirely — its chunk pointer, and with it the per-row scales and zeros —
// and its chunk leaves the table with the last reference, so what a session
// holds is what its window can serve.
func TestKVEvictionDropsGroupState(t *testing.T) {
	const dim, f, groups, k = 16, 8, 6, 4
	tab := New(Config{FlushRows: f, QP: 12})
	mustAppend(t, tab, "s", dim, 0, rowsFor(21, 0, groups*f+3, dim))
	sh := tab.shardFor("s")
	s := sh.sessions["s"]
	for range k {
		sh.mu.Lock()
		s.mu.Lock()
		tab.evictStepLocked(sh, s)
		s.mu.Unlock()
		sh.mu.Unlock()
	}
	if s.evicted != k*f || len(s.chunks)*f != s.committed-s.evicted {
		t.Fatalf("after %d evicted groups: %d chunks held for window [%d,%d)", k, len(s.chunks), s.evicted, s.committed)
	}
	if len(tab.chunks) != groups-k {
		t.Fatalf("table holds %d chunks, want %d", len(tab.chunks), groups-k)
	}
	want := rowsFor(21, k*f, (groups-k)*f+3, dim)
	got := mustRead(t, tab, "s", 0, -1)
	if got.From != k*f || len(got.Vals) != len(want) {
		t.Fatalf("read window [%d,%d) after eviction", got.From, got.To)
	}
	for r := f * (groups - k); r < len(want)/dim; r++ { // the raw tail is exact
		for c := range dim {
			if got.Vals[r*dim+c] != want[r*dim+c] {
				t.Fatalf("tail row %d col %d = %g, want %g", r, c, got.Vals[r*dim+c], want[r*dim+c])
			}
		}
	}
	// Appending goes on past the evicted prefix.
	res := mustAppend(t, tab, "s", dim, groups*f+3, rowsFor(21, groups*f+3, f-3, dim))
	if res.Committed != (groups+1)*f || len(s.chunks) != groups+1-k {
		t.Fatalf("append after eviction: %+v, %d chunks held", res, len(s.chunks))
	}
	mustRead(t, tab, "s", groups*f, -1)
}

// TestKVTailDropsFlushedRows: after one append of many groups plus a few
// rows, the table keeps the rows left in the tail, not the whole request
// body they were staged in: the live heap grows by about what Resident
// charges.
func TestKVTailDropsFlushedRows(t *testing.T) {
	const dim, f, groups = 512, 4, 128
	tab := New(Config{FlushRows: f, QP: 40})
	vals := rowsFor(4, 0, groups*f+3, dim)
	body := uint64(len(vals)) * 4
	heap := func() uint64 {
		runtime.GC() // twice: the first only moves sync.Pool contents aside
		runtime.GC()
		var m runtime.MemStats
		runtime.ReadMemStats(&m)
		return m.HeapAlloc
	}
	// Warm the encoder's one-time state up in another table first.
	mustAppend(t, New(Config{FlushRows: f, QP: 40}), "warm", dim, 0, rowsFor(5, 0, 2*f, dim))
	before := heap()
	mustAppend(t, tab, "s", dim, 0, vals)
	after := heap()
	runtime.KeepAlive(vals)
	if grown := after - min(before, after); grown > uint64(tab.Resident())+body/4 {
		t.Fatalf("the live heap grew %d bytes for %d resident; the %d-byte body stays alive", grown, tab.Resident(), body)
	}
}

// TestKVChunkTableRefcounting: interning the same rows' chunk twice keeps
// one copy, the bytes survive until the last reference is released, and the
// bytes freed are exactly the bytes interned.
func TestKVChunkTableRefcounting(t *testing.T) {
	tab := New(Config{})
	key := [32]byte{1}
	c1 := &chunk{key: key, payload: []byte("the same compressed chunk")}
	if got, added := tab.intern(c1); got != c1 || !added {
		t.Fatal("first intern reported no new bytes")
	}
	c2 := &chunk{key: key, payload: []byte("the same compressed chunk")}
	if got, added := tab.intern(c2); got != c1 || added {
		t.Fatalf("second intern: added=%v, kept the first chunk=%v", added, got == c1)
	}
	if len(tab.chunks) != 1 {
		t.Fatalf("table holds %d chunks for one key", len(tab.chunks))
	}
	if got := tab.acquire(key); got != c1 {
		t.Fatal("acquire missed a held key")
	}
	// Three references: two interns, one acquire. The first two releases
	// free nothing; the last frees the payload.
	for i, want := range []int64{0, 0, int64(len(c1.payload))} {
		if freed := tab.release(c1); freed != want {
			t.Fatalf("release %d freed %d, want %d", i+1, freed, want)
		}
	}
	if len(tab.chunks) != 0 || tab.acquire(key) != nil {
		t.Fatal("the chunk outlived its last reference")
	}
}

// TestKVChunkTableTakesOwnership: the table keeps the payload an append
// encoded, not a copy of it, so a chunk the budget charges once is resident
// once — and an aliasing session holds that same slice.
func TestKVChunkTableTakesOwnership(t *testing.T) {
	const dim, f = 16, 8
	tab := New(Config{FlushRows: f, QP: 12})
	rows := rowsFor(5, 0, f, dim)
	mustAppend(t, tab, "a", dim, 0, rows)
	mustAppend(t, tab, "b", dim, 0, rows)
	a, b := tab.shardFor("a").sessions["a"], tab.shardFor("b").sessions["b"]
	if len(tab.chunks) != 1 || a.chunks[0] != b.chunks[0] || tab.Resident() != int64(len(a.chunks[0].payload)) {
		t.Fatalf("%d chunks held, shared=%v, resident %d", len(tab.chunks), a.chunks[0] == b.chunks[0], tab.Resident())
	}
}

// TestKVChunkTableConcurrent hammers intern/acquire/release from many
// goroutines over a small keyspace (under -race in `make kv-test`) and checks
// the accounting is exact: the bytes freed equal the bytes interned, and
// releasing every reference taken leaves an empty table.
func TestKVChunkTableConcurrent(t *testing.T) {
	tab := New(Config{})
	const workers, rounds, keys = 16, 200, 7
	var added, freed atomic.Int64
	var wg sync.WaitGroup
	for w := range workers {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range rounds {
				payload := []byte(fmt.Sprintf("chunk-%d", (w+i)%keys))
				key := [32]byte{byte((w + i) % keys)}
				c, isNew := tab.intern(&chunk{key: key, payload: payload})
				if isNew {
					added.Add(int64(len(payload)))
				}
				if got := tab.acquire(key); got != c || !bytes.Equal(got.payload, payload) {
					t.Errorf("acquire lost chunk %q", payload)
					return
				}
				freed.Add(tab.release(c))
				freed.Add(tab.release(c))
			}
		}()
	}
	wg.Wait()
	if len(tab.chunks) != 0 || added.Load() != freed.Load() {
		t.Fatalf("table leaked: %d chunks, %d bytes interned, %d freed", len(tab.chunks), added.Load(), freed.Load())
	}
}
