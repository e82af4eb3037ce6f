// Package kv is the sessionized streaming KV-cache tier (DESIGN.md §16).
//
// A session is a growing T×dim float32 matrix — the KV rows of one serving
// conversation — compressed incrementally as tokens arrive:
//
//   - Rows accumulate in a small raw tail. Every time FlushRows complete
//     rows are staged, they flush as one immutable single-plane chunk:
//     per-row quantization exactly like the core layer's PerRow path, then
//     an intra encode of the FlushRows×dim plane through the table's one
//     codec.Appender. The committed prefix is never re-encoded —
//     codec.encode.chunks advances by at most one per flushed group, proven
//     in kv_test.go.
//   - Reads decode only the chunks intersecting the requested token range
//     (Appender.Frame → a v3 sub-container → codec.Decode),
//     re-dequantize with the chunk's per-row scale/zero pairs, and splice in
//     the raw tail bit-exactly.
//   - Aliasing: the table owns every chunk, in one refcounted map keyed by
//     SHA-256 of the raw rows the chunk encodes. A chunk's payload and row
//     parameters are a pure function of those rows (one CABAC chunk per
//     flush group at the table's QP and FlushRows), so a group whose key is
//     already held — at any position, in any session — takes a reference
//     instead of encoding: zero encode work, zero extra resident bytes. The
//     bytes leave memory with the last reference.
//
// Scale machinery: one table mutex guards the session map, the LRU list and
// the chunk map. Resident bytes (unique compressed chunk bytes + raw tails)
// are budgeted: appends reserve against an atomic resident counter before
// committing, evicting least-recently-used sessions' oldest chunks (then
// whole sessions) until the reservation fits — so resident bytes can never
// exceed the budget, at any instant, which the soak test samples
// continuously. Evicted prefixes surface to readers as a narrowed available
// range (HTTP 206 upstairs). TTL expiry is lazy: an expired session is
// removed when it is next looked up, and is the first thing eviction takes
// under budget pressure. Nothing sweeps in the background, so an idle table
// keeps its expired sessions' bytes until an append needs them.
//
// Lock hierarchy (deadlock-freedom): a holder of session.mu may block on
// Table.mu (the flush, reserve → evict and Delete paths); a holder of
// Table.mu takes session locks only by TryLock. Sessions carry a dead flag so
// a pointer fetched under Table.mu is re-validated under session.mu.
package kv

import (
	"container/list"
	"context"
	"crypto/sha256"
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/codec"
	"repro/internal/dct"
	"repro/internal/frame"
	"repro/internal/obs"
	"repro/internal/quant"
)

// Typed errors the serving layer maps onto its status taxonomy.
var (
	// ErrNotFound: the session does not exist (or expired).
	ErrNotFound = errors.New("kv: session not found")
	// ErrRangeUnavailable: the requested token range has no overlap with
	// the session's available [evicted, total) window.
	ErrRangeUnavailable = errors.New("kv: requested range unavailable")
	// ErrBudget: the append cannot fit under the byte budget even after
	// evicting everything evictable.
	ErrBudget = errors.New("kv: byte budget exhausted")
	// ErrDimMismatch: an append's dim contradicts the session's.
	ErrDimMismatch = errors.New("kv: session dim mismatch")
	// ErrOffsetMismatch: an append's at= precondition does not equal the
	// session's current total — the client lost track of the stream.
	ErrOffsetMismatch = errors.New("kv: append offset mismatch")
)

// Config sizes the table. Zero fields are defaulted by New.
type Config struct {
	// BudgetBytes caps resident bytes: unique compressed chunk bytes plus
	// raw tails. Default 256 MiB.
	BudgetBytes int64
	// TTL expires sessions idle longer than this; 0 disables expiry.
	// Default 15 minutes.
	TTL time.Duration
	// FlushRows is the token-row granularity of a flush group (the CTU-row
	// analogue): a chunk covers exactly this many rows. Default 32.
	FlushRows int

	// QP and Workers configure the chunk coder (HEVC, CABAC) exactly as in
	// core.Options. Defaults: QP 12, 1 worker. New panics on a QP above
	// dct.MaxQP.
	QP      int
	Workers int

	// Metrics backs the kv.* (and threaded codec.*) metrics.
	// Nil disables them.
	Metrics *obs.Registry

	// OnEvict, when set, observes every eviction: partial evictions report
	// the session's token window [fromToken, toToken) leaving memory
	// (full=false); session removals report full=true. Called with
	// internal locks held — the hook must not call back into the Table.
	OnEvict func(session string, fromToken, toToken int, full bool)

	// Now overrides the clock (tests). Default time.Now.
	Now func() time.Time
}

// maxDim bounds a session's row width.
const maxDim = 4096

func (c Config) withDefaults() Config {
	if c.BudgetBytes <= 0 {
		c.BudgetBytes = 256 << 20
	}
	if c.TTL == 0 {
		c.TTL = 15 * time.Minute
	}
	if c.TTL < 0 {
		c.TTL = 0
	}
	if c.FlushRows <= 0 {
		c.FlushRows = 32
	}
	if c.QP <= 0 {
		c.QP = 12
	}
	if c.Workers <= 0 {
		c.Workers = 1
	}
	if c.Now == nil {
		c.Now = time.Now
	}
	return c
}

// kvMetrics holds the pre-resolved kv.* handles:
//
//	kv.sessions.live / kv.bytes.resident                    gauges
//	kv.append.requests / tokens                             counters
//	kv.append.chunks_encoded / chunks_aliased               counters
//	kv.prefix.saved_bytes                                   counter
//	kv.read.requests / tokens / partial                     counters
//	kv.evict.chunks / sessions / bytes / kv.expired         counters
//	kv.reject.budget                                        counter
//	kv.append.latency_ns / kv.read.latency_ns               histograms
type kvMetrics struct {
	sessions, resident           *obs.Gauge
	appendReq, appendTokens      *obs.Counter
	chunksEncoded, chunksAliased *obs.Counter
	prefixSaved                  *obs.Counter
	readReq, readTokens, partial *obs.Counter
	evictChunks, evictSessions   *obs.Counter
	evictBytes, expired          *obs.Counter
	rejectBudget                 *obs.Counter
	appendNs, readNs             *obs.Histogram
}

func newKVMetrics(reg *obs.Registry) *kvMetrics {
	if reg == nil {
		return nil
	}
	return &kvMetrics{
		sessions:      reg.Gauge("kv.sessions.live"),
		resident:      reg.Gauge("kv.bytes.resident"),
		appendReq:     reg.Counter("kv.append.requests"),
		appendTokens:  reg.Counter("kv.append.tokens"),
		chunksEncoded: reg.Counter("kv.append.chunks_encoded"),
		chunksAliased: reg.Counter("kv.append.chunks_aliased"),
		prefixSaved:   reg.Counter("kv.prefix.saved_bytes"),
		readReq:       reg.Counter("kv.read.requests"),
		readTokens:    reg.Counter("kv.read.tokens"),
		partial:       reg.Counter("kv.read.partial"),
		evictChunks:   reg.Counter("kv.evict.chunks"),
		evictSessions: reg.Counter("kv.evict.sessions"),
		evictBytes:    reg.Counter("kv.evict.bytes"),
		expired:       reg.Counter("kv.expired"),
		rejectBudget:  reg.Counter("kv.reject.budget"),
		appendNs:      reg.Histogram("kv.append.latency_ns"),
		readNs:        reg.Histogram("kv.read.latency_ns"),
	}
}

// chunk is one encoded flush group, held once however many sessions — or
// positions in one session — carry the same rows. key is SHA-256 of the
// group's raw rows; payload, scales and zeros are a pure function of them
// and never change. refs is guarded by Table.mu.
type chunk struct {
	key           [sha256.Size]byte
	payload       []byte
	scales, zeros []float32 // per row of the group
	refs          int
}

// Session is one streaming KV stream. elem and lastUse are guarded by
// Table.mu, so LRU/TTL bookkeeping never needs the content lock; the rest of
// its mutable state is guarded by mu.
type Session struct {
	name    string
	elem    *list.Element
	lastUse time.Time

	mu   sync.Mutex
	dead bool

	dim       int
	chunks    []*chunk  // live groups: group g is chunks[g-evicted/FlushRows]
	tail      []float32 // staged raw rows, len tailTokens*dim; 4 resident bytes a value
	committed int       // tokens committed into chunks
	evicted   int       // tokens evicted from the front (multiple of FlushRows)
}

func (s *Session) tailTokens() int {
	if s.dim == 0 {
		return 0
	}
	return len(s.tail) / s.dim
}

func (s *Session) total() int { return s.committed + s.tailTokens() }

// Table is the session table. Create with New.
type Table struct {
	cfg Config
	app *codec.Appender

	mu       sync.Mutex // guards the three below, chunk refs and Session.elem/lastUse
	sessions map[string]*Session
	lru      *list.List // front = most recently used
	chunks   map[[sha256.Size]byte]*chunk

	resident atomic.Int64
	m        *kvMetrics
}

// New builds an empty table from cfg. A QP no encode can run at is the
// operator's mistake, not a later request's: it panics here.
func New(cfg Config) *Table {
	cfg = cfg.withDefaults()
	if cfg.QP > dct.MaxQP {
		panic(fmt.Sprintf("kv: qp %d out of range [0, %d]", cfg.QP, dct.MaxQP))
	}
	return &Table{
		cfg:      cfg,
		app:      codec.NewAppender(cfg.QP, codec.HEVC, codec.AllTools, cfg.Workers, cfg.Metrics),
		sessions: make(map[string]*Session),
		lru:      list.New(),
		chunks:   make(map[[sha256.Size]byte]*chunk),
		m:        newKVMetrics(cfg.Metrics),
	}
}

// Resident returns the budgeted resident bytes at this instant. The soak
// test samples it continuously against Budget.
func (t *Table) Resident() int64 { return t.resident.Load() }

// Budget returns the configured byte budget.
func (t *Table) Budget() int64 { return t.cfg.BudgetBytes }

// Sessions returns the number of live sessions.
func (t *Table) Sessions() int {
	t.mu.Lock()
	defer t.mu.Unlock()
	return len(t.sessions)
}

func (t *Table) addResident(delta int64) {
	v := t.resident.Add(delta)
	if t.m != nil {
		t.m.resident.Set(v)
	}
}

// expired reports whether s has idled past the TTL. Caller holds t.mu.
func (t *Table) expired(s *Session) bool {
	return t.cfg.TTL > 0 && t.cfg.Now().Sub(s.lastUse) > t.cfg.TTL
}

// acquire takes a reference on the chunk keyed key and returns it, or nil
// when the table holds none.
func (t *Table) acquire(key [sha256.Size]byte) *chunk {
	t.mu.Lock()
	defer t.mu.Unlock()
	c := t.chunks[key]
	if c != nil {
		c.refs++
	}
	return c
}

// intern puts a freshly encoded c into the table with one reference and
// reports whether its bytes are new. A session that encoded the same rows
// concurrently may have put its chunk first: that one gains the reference
// and c is dropped. The table keeps c's payload without copying it.
func (t *Table) intern(c *chunk) (*chunk, bool) {
	t.mu.Lock()
	defer t.mu.Unlock()
	if held := t.chunks[c.key]; held != nil {
		held.refs++
		return held, false
	}
	c.refs = 1
	t.chunks[c.key] = c
	return c, true
}

// release drops one reference on c and returns the payload bytes freed:
// len(c.payload) with the last reference, 0 before it. Each reference is
// released exactly once. Caller holds t.mu.
func (t *Table) release(c *chunk) int64 {
	if c.refs--; c.refs > 0 {
		return 0
	}
	delete(t.chunks, c.key)
	return int64(len(c.payload))
}

// removeLocked unlinks s and frees everything it holds. Caller holds both
// t.mu and s.mu.
func (t *Table) removeLocked(s *Session, reason string) {
	s.dead = true
	delete(t.sessions, s.name)
	t.lru.Remove(s.elem)
	freed := 4 * int64(len(s.tail))
	for _, c := range s.chunks {
		freed += t.release(c)
	}
	s.chunks = nil
	t.addResident(-freed)
	if t.m != nil {
		t.m.sessions.Set(int64(len(t.sessions)))
		t.m.evictBytes.Add(freed)
		if reason == "expired" {
			t.m.expired.Inc()
		}
		if reason != "delete" {
			t.m.evictSessions.Inc()
		}
	}
	if t.cfg.OnEvict != nil && reason != "delete" {
		t.cfg.OnEvict(s.name, s.evicted, s.total(), true)
	}
}

// lookup fetches (and LRU-touches) a live session, creating one when create
// is set. Expired sessions found on the way are removed (when their lock is
// free) and treated as absent. The returned session is locked.
func (t *Table) lookup(name string, create bool) (*Session, error) {
	for {
		t.mu.Lock()
		s := t.sessions[name]
		if s != nil && t.expired(s) && s.mu.TryLock() {
			t.removeLocked(s, "expired")
			s.mu.Unlock()
			s = nil
		}
		if s == nil {
			if !create {
				t.mu.Unlock()
				return nil, fmt.Errorf("kv: session %q: %w", name, ErrNotFound)
			}
			s = &Session{name: name}
			s.elem = t.lru.PushFront(s)
			t.sessions[name] = s
			if t.m != nil {
				t.m.sessions.Set(int64(len(t.sessions)))
			}
		} else {
			t.lru.MoveToFront(s.elem)
		}
		s.lastUse = t.cfg.Now()
		t.mu.Unlock()

		s.mu.Lock()
		if s.dead {
			// Evicted or deleted between the two locks; retry from the map.
			s.mu.Unlock()
			continue
		}
		return s, nil
	}
}

// ------------------------------------------------------------------ budget

// reserve charges n resident bytes, evicting LRU state (never self, whose
// lock the caller holds) until the charge fits. The CAS loop is what makes
// "resident ≤ budget at every instant" a hard invariant rather than a
// steady-state property.
func (t *Table) reserve(n int64, self *Session) error {
	if n > t.cfg.BudgetBytes {
		if t.m != nil {
			t.m.rejectBudget.Inc()
		}
		return fmt.Errorf("kv: %d bytes can never fit budget %d: %w", n, t.cfg.BudgetBytes, ErrBudget)
	}
	for {
		cur := t.resident.Load()
		if cur+n <= t.cfg.BudgetBytes {
			if t.resident.CompareAndSwap(cur, cur+n) {
				if t.m != nil {
					t.m.resident.Set(cur + n)
				}
				return nil
			}
			continue
		}
		if !t.evictSome(self) {
			if t.m != nil {
				t.m.rejectBudget.Inc()
			}
			return fmt.Errorf("kv: %d bytes over budget %d with nothing evictable: %w", n, t.cfg.BudgetBytes, ErrBudget)
		}
	}
}

// evictSome makes one unit of eviction progress — dropping one session's
// oldest chunk, or removing one drained/expired session — and reports
// whether it did. Progress may free zero bytes (an aliased chunk survives
// under other references), but it is still progress: chunk drops
// are monotone, so repeated calls terminate.
//
// The victim is the least-recently-used session it can lock: the LRU list is
// walked from its back, skipping self and sessions whose lock is held.
func (t *Table) evictSome(self *Session) bool {
	t.mu.Lock()
	defer t.mu.Unlock()
	// First pass: victims that can shed a committed chunk (or are expired).
	// Dropping a chunk degrades an old session to a partial read; draining
	// a chunkless session kills it outright, and under sustained pressure
	// that would keep killing young sessions — whose first chunk has not
	// flushed yet — before they can ever commit anything. Tail-only
	// sessions are drained only when no chunk anywhere is left to drop.
	for _, drainTails := range []bool{false, true} {
		for e := t.lru.Back(); e != nil; e = e.Prev() {
			s := e.Value.(*Session)
			if s == self || !s.mu.TryLock() {
				continue
			}
			if !drainTails && s.evicted >= s.committed && !t.expired(s) {
				s.mu.Unlock()
				continue
			}
			t.evictStepLocked(s)
			s.mu.Unlock()
			return true
		}
	}
	return false
}

// evictStepLocked drops s's oldest committed chunk, or removes s entirely
// when it is expired or has nothing left but its tail. Caller holds t.mu
// and s.mu.
func (t *Table) evictStepLocked(s *Session) {
	if t.expired(s) {
		t.removeLocked(s, "expired")
		return
	}
	if s.evicted < s.committed {
		freed := t.release(s.chunks[0])
		s.chunks[0] = nil
		s.chunks = s.chunks[1:]
		from := s.evicted
		s.evicted += t.cfg.FlushRows
		t.addResident(-freed)
		if t.m != nil {
			t.m.evictChunks.Inc()
			t.m.evictBytes.Add(freed)
		}
		if t.cfg.OnEvict != nil {
			t.cfg.OnEvict(s.name, from, s.evicted, false)
		}
		if s.evicted == s.committed && s.tailTokens() == 0 {
			t.removeLocked(s, "drained")
		}
		return
	}
	// Nothing committed (or everything already evicted): the session is
	// only a tail. Removing it frees the tail charge.
	t.removeLocked(s, "drained")
}

// ------------------------------------------------------------------ append

// AppendResult reports a committed append.
type AppendResult struct {
	Session   string `json:"session"`
	Total     int    `json:"total"`     // tokens now in the session (committed + tail)
	Committed int    `json:"committed"` // tokens in immutable chunks
	Evicted   int    `json:"evicted"`   // tokens lost to eviction ([0, Evicted) unavailable)
	NewChunks int    `json:"new_chunks"`
	Aliased   int    `json:"aliased_chunks"`
	Saved     int64  `json:"saved_bytes"` // payload bytes served by aliasing instead of encode
}

// Append stages rows (len(vals) = rows×dim) onto the session, creating it
// on first use, and flushes every completed FlushRows group as one
// immutable chunk. at ≥ 0 asserts the session currently holds exactly at
// tokens (the streaming idempotency precondition); at < 0 skips the check.
// dim may be 0 for appends to an existing session. A rejection is atomic —
// the session is untouched, and a session no append has yet succeeded on is
// removed — so the identical request can be retried once eviction frees
// space.
func (t *Table) Append(ctx context.Context, name string, dim, at int, vals []float32) (res AppendResult, err error) {
	start := time.Now()
	if name == "" {
		return AppendResult{}, fmt.Errorf("kv: empty session name")
	}
	if dim < 0 || dim > maxDim {
		return AppendResult{}, fmt.Errorf("kv: dim %d out of range [1,%d]", dim, maxDim)
	}
	s, err := t.lookup(name, true)
	if err != nil {
		return AppendResult{}, err
	}
	defer func() {
		// s.dim is set only once an append is staged, so a session still
		// without one holds nothing any caller put there.
		if err != nil && s.dim == 0 {
			t.mu.Lock()
			t.removeLocked(s, "delete")
			t.mu.Unlock()
		}
		s.mu.Unlock()
	}()

	sdim := s.dim
	if sdim == 0 {
		if dim == 0 {
			return AppendResult{}, fmt.Errorf("kv: new session %q needs dim", name)
		}
		sdim = dim
	} else if dim != 0 && dim != sdim {
		return AppendResult{}, fmt.Errorf("kv: session %q has dim %d, append says %d: %w", name, sdim, dim, ErrDimMismatch)
	}
	if len(vals)%sdim != 0 {
		return AppendResult{}, fmt.Errorf("kv: %d values do not tile dim %d", len(vals), sdim)
	}
	if at >= 0 && at != s.total() {
		return AppendResult{}, fmt.Errorf("kv: session %q holds %d tokens, append expects %d: %w", name, s.total(), at, ErrOffsetMismatch)
	}
	rows := len(vals) / sdim

	// Reserve the whole request's worst case up front — raw tail bytes plus
	// the encode estimate for every group this append will complete — so a
	// budget reject is atomic: nothing staged, nothing flushed, and the
	// caller can retry the identical request after eviction frees space.
	rawBytes := int64(len(vals)) * 4
	willFlush := int64((s.tailTokens() + rows) / t.cfg.FlushRows)
	prepaid := willFlush * flushEstimate(t.cfg.FlushRows*sdim)
	if rawBytes+prepaid > 0 {
		if err := t.reserve(rawBytes+prepaid, s); err != nil {
			return AppendResult{}, err
		}
		s.tail = append(s.tail, vals...)
	}
	s.dim = sdim
	res = AppendResult{Session: name}
	err = t.flushLocked(ctx, s, &res, &prepaid)
	if prepaid > 0 {
		// Aliased (or error-aborted) groups never spent their estimate.
		t.addResident(-prepaid)
	}
	res.Total, res.Committed, res.Evicted = s.total(), s.committed, s.evicted
	if t.m != nil {
		t.m.appendReq.Inc()
		t.m.appendTokens.Add(int64(rows))
		t.m.appendNs.ObserveSince(start)
	}
	return res, err
}

// flushEstimate is the worst-case resident charge for encoding one flush
// group of n source pixels. 6 bytes per pixel is far above any payload the
// entropy coder can emit for an 8-bit plane.
func flushEstimate(n int) int64 { return int64(n)*6 + 1024 }

// flushLocked commits every complete FlushRows group in s's tail, spending
// the caller's prepaid reservation (one flushEstimate per group it
// encodes). On error (cancellation) the already-flushed groups stay
// committed and the rest of the tail stays staged — the committed prefix
// is never harmed.
func (t *Table) flushLocked(ctx context.Context, s *Session, res *AppendResult, prepaid *int64) error {
	f, dim := t.cfg.FlushRows, s.dim
	group := f * dim
	committed := s.committed
	var raw []byte // a group's little-endian bytes, reused across groups
	var err error
	for s.tailTokens() >= f {
		rows := s.tail[:group]
		// The key: the group's raw bytes, hashed in one call. Their length
		// fixes dim, and QP and FlushRows are the table's.
		raw = slices.Grow(raw[:0], 4*group)
		for _, v := range rows {
			raw = binary.LittleEndian.AppendUint32(raw, math.Float32bits(v))
		}
		key := sha256.Sum256(raw)

		c := t.acquire(key)
		if c != nil {
			res.Aliased++
			res.Saved += int64(len(c.payload))
			if t.m != nil {
				t.m.chunksAliased.Inc()
				t.m.prefixSaved.Add(int64(len(c.payload)))
			}
		} else {
			// Spend this group's share of the prepaid reservation; the
			// difference from the true size (nothing when a concurrent
			// encode of the same rows won) is settled once known.
			est := flushEstimate(group)
			*prepaid -= est
			if c, err = t.encode(ctx, key, rows, dim); err != nil {
				t.addResident(-est)
				break
			}
			var added bool
			c, added = t.intern(c)
			actual := int64(0)
			if added {
				actual = int64(len(c.payload))
			}
			t.addResident(actual - est)
			res.NewChunks++
			if t.m != nil {
				t.m.chunksEncoded.Inc()
			}
		}

		s.chunks = append(s.chunks, c)
		s.committed += f
		s.tail = s.tail[group:]
		t.addResident(-int64(group) * 4)
	}
	if s.committed > committed {
		// The rows left behind move to a fresh slice: s.tail[group:] would
		// keep every flushed group's rows alive, uncharged.
		s.tail = append([]float32(nil), s.tail...)
	}
	return err
}

// encode quantizes a group's rows one by one, exactly the core layer's
// PerRow path, and encodes the FlushRows×dim plane as one chunk.
func (t *Table) encode(ctx context.Context, key [sha256.Size]byte, rows []float32, dim int) (*chunk, error) {
	f := len(rows) / dim
	c := &chunk{key: key, scales: make([]float32, f), zeros: make([]float32, f)}
	pix := make([]uint8, len(rows))
	for r := range f {
		q, sc, z := quant.ToUint8(rows[r*dim : (r+1)*dim])
		copy(pix[r*dim:], q)
		c.scales[r], c.zeros[r] = sc, z
	}
	payloads, _, err := t.app.Append(ctx, []*frame.Plane{{W: dim, H: f, Pix: pix}}, nil)
	if err != nil {
		return nil, err
	}
	c.payload = payloads[0]
	return c, nil
}

// ------------------------------------------------------------------ read

// ReadResult is a served token range. From/To are the tokens actually
// served: a subset of the request when the session prefix was evicted
// (HTTP 206 upstairs) or the request ran past the end.
type ReadResult struct {
	Vals      []float32
	Dim       int
	From, To  int
	Total     int
	Committed int
	Evicted   int
}

// Read serves tokens [t0, t1) of the session (t1 < 0 means "to the end").
// The request window is clamped to the available [Evicted, Total) window;
// an empty intersection returns ErrRangeUnavailable alongside the
// availability fields. Committed rows decode from exactly the chunks
// intersecting the range; tail rows are served raw, bit-exactly.
func (t *Table) Read(ctx context.Context, name string, t0, t1 int) (ReadResult, error) {
	start := time.Now()
	if t0 < 0 || (t1 >= 0 && t1 < t0) {
		return ReadResult{}, fmt.Errorf("kv: bad token range [%d,%d)", t0, t1)
	}
	s, err := t.lookup(name, false)
	if err != nil {
		return ReadResult{}, err
	}
	defer s.mu.Unlock()

	total := s.total()
	// Clamp after validating: a well-formed request past the window is
	// range-unavailable (416), not malformed (400).
	if t1 < 0 || t1 > total {
		t1 = total
	}
	res := ReadResult{Dim: s.dim, Total: total, Committed: s.committed, Evicted: s.evicted}
	from, to := t0, t1
	if from < s.evicted {
		from = s.evicted
	}
	if from >= to {
		res.From, res.To = from, from
		return res, fmt.Errorf("kv: tokens [%d,%d) of session %q: available [%d,%d): %w",
			t0, t1, name, s.evicted, total, ErrRangeUnavailable)
	}
	res.From, res.To = from, to
	res.Vals = make([]float32, (to-from)*s.dim)

	f, dim := t.cfg.FlushRows, s.dim
	if cEnd := min(to, s.committed); from < cEnd {
		first := from / f
		live := s.chunks[first-s.evicted/f : (cEnd+f-1)/f-s.evicted/f]
		payloads := make([][]byte, len(live))
		for i, c := range live {
			payloads[i] = c.payload
		}
		snap, err := t.app.Frame(dim, f, payloads)
		if err != nil {
			return ReadResult{}, fmt.Errorf("kv: framing session %q: %v", name, err)
		}
		dec, err := codec.Decode(ctx, snap, codec.DecodeConfig{Workers: t.cfg.Workers, Metrics: t.cfg.Metrics})
		if err != nil {
			return ReadResult{}, err
		}
		for i, p := range dec.Planes {
			c, base := live[i], (first+i)*f
			for y := 0; y < p.H; y++ {
				r := base + y
				if r < from || r >= cEnd {
					continue
				}
				quant.FromUint8Into(res.Vals[(r-from)*dim:][:dim], p.Row(y), c.scales[y], c.zeros[y])
			}
		}
	}
	for r := max(from, s.committed); r < to; r++ {
		copy(res.Vals[(r-from)*dim:], s.tail[(r-s.committed)*dim:(r-s.committed+1)*dim])
	}
	if t.m != nil {
		t.m.readReq.Inc()
		t.m.readTokens.Add(int64(to - from))
		if from > t0 || to < t1 {
			t.m.partial.Inc()
		}
		t.m.readNs.ObserveSince(start)
	}
	return res, nil
}

// Delete removes the session and frees everything it holds.
func (t *Table) Delete(name string) error {
	t.mu.Lock()
	s := t.sessions[name]
	t.mu.Unlock()
	if s == nil {
		return fmt.Errorf("kv: session %q: %w", name, ErrNotFound)
	}
	// Session lock first, then table lock — the same order the reserve →
	// evict path uses, so Delete can block on s.mu safely.
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.dead {
		return fmt.Errorf("kv: session %q: %w", name, ErrNotFound)
	}
	t.mu.Lock()
	t.removeLocked(s, "delete")
	t.mu.Unlock()
	return nil
}
