// Package kv is the sessionized streaming KV-cache tier (DESIGN.md §16).
//
// A session is a growing T×dim float32 matrix — the KV rows of one serving
// conversation — compressed incrementally as tokens arrive:
//
//   - Rows accumulate in a small raw tail. Every time FlushRows complete
//     rows are staged, they flush as one immutable single-plane chunk
//     through codec.Appender: per-row quantization exactly like the core
//     layer's PerRow path, then an intra encode of the FlushRows×dim plane.
//     The committed prefix is never re-encoded — codec.encode.chunks
//     advances by exactly one per flushed group, proven in kv_test.go.
//   - Reads decode only the chunks intersecting the requested token range
//     (Appender.Snapshot → a v3 sub-container → codec.Decode),
//     re-dequantize with the stored per-row scale/zero pairs, and splice in
//     the raw tail bit-exactly.
//   - Prefix aliasing: each flushed group advances a chain digest
//     SHA-256(prev ‖ raw group bytes), rooted in the coding parameters.
//     Sessions sharing a prompt prefix therefore compute identical digests
//     for identical prefixes, and the table maps digest → content-addressed
//     chunk in a store.BlobCache: an alias hit adopts the donor's payload
//     bytes (zero encode work, zero extra resident bytes) instead of
//     re-encoding. Chunk payload bytes are schedule-independent (one CABAC
//     chunk per flush group), which is what makes the digest → bytes mapping
//     well-defined.
//
// Scale machinery: the session table is sharded by session-name hash into
// mutex-striped shards, each with its own LRU list. Resident bytes (unique
// compressed chunk bytes + raw tails) are budgeted: appends reserve against
// an atomic resident counter before committing, evicting
// least-recently-used sessions' oldest chunks (then whole sessions) until
// the reservation fits — so resident bytes can never exceed the budget, at
// any instant, which the soak test samples continuously. Evicted prefixes
// surface to readers as a narrowed available range (HTTP 206 upstairs). TTL
// expiry is lazy: an expired session is removed when it is next looked up,
// and is the first thing eviction takes under budget pressure. Nothing sweeps
// in the background, so an idle table keeps its expired sessions' bytes until
// an append needs them.
//
// Lock hierarchy (deadlock-freedom): shard.mu is only ever *blocking*-locked
// from outside any session lock; a holder of session.mu may lock shard
// mutexes (the reserve → evict path), and eviction acquires other sessions'
// locks strictly by TryLock. Sessions carry a dead flag so a pointer fetched
// under one lock regime is re-validated under the next.
package kv

import (
	"container/list"
	"context"
	"crypto/sha256"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/fnv"
	"math"
	"slices"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/codec"
	"repro/internal/dct"
	"repro/internal/frame"
	"repro/internal/obs"
	"repro/internal/quant"
	"repro/internal/store"
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

	// Metrics backs the kv.* (and threaded codec.*/store.*) metrics.
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

// shards is the number of mutex-striped session shards; maxDim bounds a
// session's row width.
const (
	shards = 16
	maxDim = 4096
)

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

// prefixEntries bounds the prefix-digest map.
const prefixEntries = 4096

// prefixMap is a bounded FIFO map from a chain digest to the content address
// of the chunk that extends it, shared by all shards. It holds no blob
// reference — staleness is detected by BlobCache.Ref failing.
type prefixMap struct {
	mu   sync.Mutex
	m    map[[sha256.Size]byte]store.BlobKey
	fifo [][sha256.Size]byte
}

func newPrefixMap() *prefixMap {
	return &prefixMap{m: make(map[[sha256.Size]byte]store.BlobKey, prefixEntries)}
}

func (p *prefixMap) get(d [sha256.Size]byte) (store.BlobKey, bool) {
	p.mu.Lock()
	defer p.mu.Unlock()
	e, ok := p.m[d]
	return e, ok
}

func (p *prefixMap) put(d [sha256.Size]byte, e store.BlobKey) {
	p.mu.Lock()
	defer p.mu.Unlock()
	if _, ok := p.m[d]; ok {
		return
	}
	for len(p.m) >= prefixEntries && len(p.fifo) > 0 {
		delete(p.m, p.fifo[0])
		p.fifo = p.fifo[1:]
	}
	p.m[d] = e
	p.fifo = append(p.fifo, d)
}

// Session is one streaming KV stream. All mutable state is guarded by mu;
// lastUse is atomic so LRU/TTL bookkeeping never needs the content lock.
type Session struct {
	name    string
	elem    *list.Element
	lastUse atomic.Int64 // unix nanos

	mu   sync.Mutex
	dead bool

	dim         int
	app         *codec.Appender
	scales      []float32       // per committed token row
	zeros       []float32       // per committed token row
	blobKeys    []store.BlobKey // per committed plane (flush group)
	chain       [sha256.Size]byte
	tail        []float32 // staged raw rows, len tailTokens*dim
	tailCharged int64     // resident bytes charged for the tail
	committed   int       // tokens committed into chunks
	evicted     int       // tokens evicted from the front (multiple of FlushRows)
}

func (s *Session) tailTokens() int {
	if s.dim == 0 {
		return 0
	}
	return len(s.tail) / s.dim
}

func (s *Session) total() int { return s.committed + s.tailTokens() }

type shard struct {
	mu       sync.Mutex
	sessions map[string]*Session
	lru      *list.List // front = most recently used
}

// Table is the sharded session table. Create with New.
type Table struct {
	cfg      Config
	shards   []*shard
	blobs    *store.BlobCache
	prefix   *prefixMap
	resident atomic.Int64
	nlive    atomic.Int64
	m        *kvMetrics
}

// New builds an empty table from cfg. A QP no encode can run at is the
// operator's mistake, not a later request's: it panics here.
func New(cfg Config) *Table {
	cfg = cfg.withDefaults()
	if cfg.QP > dct.MaxQP {
		panic(fmt.Sprintf("kv: qp %d out of range [0, %d]", cfg.QP, dct.MaxQP))
	}
	t := &Table{
		cfg:    cfg,
		blobs:  store.NewBlobCache(cfg.Metrics),
		prefix: newPrefixMap(),
		m:      newKVMetrics(cfg.Metrics),
	}
	t.shards = make([]*shard, shards)
	for i := range t.shards {
		t.shards[i] = &shard{sessions: make(map[string]*Session), lru: list.New()}
	}
	return t
}

// Resident returns the budgeted resident bytes at this instant. The soak
// test samples it continuously against Budget.
func (t *Table) Resident() int64 { return t.resident.Load() }

// Budget returns the configured byte budget.
func (t *Table) Budget() int64 { return t.cfg.BudgetBytes }

// Sessions returns the number of live sessions.
func (t *Table) Sessions() int { return int(t.nlive.Load()) }

func (t *Table) shardFor(name string) *shard {
	h := fnv.New32a()
	h.Write([]byte(name))
	return t.shards[h.Sum32()%uint32(len(t.shards))]
}

func (t *Table) addResident(delta int64) {
	v := t.resident.Add(delta)
	if t.m != nil {
		t.m.resident.Set(v)
	}
}

func (t *Table) expired(s *Session) bool {
	return t.cfg.TTL > 0 && t.cfg.Now().Sub(time.Unix(0, s.lastUse.Load())) > t.cfg.TTL
}

// chainRoot seeds a session's prefix digest with every parameter that
// affects chunk bytes, so sessions with different geometry or coding
// parameters can never alias.
func (t *Table) chainRoot(dim int) [sha256.Size]byte {
	return sha256.Sum256([]byte(fmt.Sprintf("llm265-kv|dim=%d|rows=%d|qp=%d", dim, t.cfg.FlushRows, t.cfg.QP)))
}

// removeLocked unlinks s and frees everything it holds. Caller holds both
// sh.mu and s.mu.
func (t *Table) removeLocked(sh *shard, s *Session, reason string) {
	s.dead = true
	delete(sh.sessions, s.name)
	sh.lru.Remove(s.elem)
	var freed int64
	f := t.cfg.FlushRows
	for p := s.evicted / f; p < s.committed/f; p++ {
		freed += t.blobs.Release(s.blobKeys[p])
	}
	freed += s.tailCharged
	s.tailCharged = 0
	t.addResident(-freed)
	t.nlive.Add(-1)
	if t.m != nil {
		t.m.sessions.Set(t.nlive.Load())
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
	sh := t.shardFor(name)
	for {
		sh.mu.Lock()
		s := sh.sessions[name]
		if s != nil && t.expired(s) && s.mu.TryLock() {
			if !s.dead {
				t.removeLocked(sh, s, "expired")
			}
			s.mu.Unlock()
			s = nil
		}
		if s == nil {
			if !create {
				sh.mu.Unlock()
				return nil, fmt.Errorf("kv: session %q: %w", name, ErrNotFound)
			}
			s = &Session{
				name: name,
				app:  codec.NewAppender(t.cfg.QP, codec.HEVC, codec.AllTools, t.cfg.Workers, t.cfg.Metrics),
			}
			s.elem = sh.lru.PushFront(s)
			sh.sessions[name] = s
			t.nlive.Add(1)
			if t.m != nil {
				t.m.sessions.Set(t.nlive.Load())
			}
		} else {
			sh.lru.MoveToFront(s.elem)
		}
		s.lastUse.Store(t.cfg.Now().UnixNano())
		sh.mu.Unlock()

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
// whether it did. Progress may free zero bytes (an aliased chunk's blob
// survives under other references), but it is still progress: chunk drops
// are monotone, so repeated calls terminate.
//
// The victim is the globally least-recently-used session: each shard's LRU
// tail is peeked (lastUse is atomic, no session lock needed) and shards are
// tried oldest-tail-first. Scanning shards in a fixed order instead would
// concentrate all eviction pressure on whatever shard sorts first, draining
// its sessions over and over while fresher sessions elsewhere are never
// touched — under a saturating load the owners hashed there would starve
// indefinitely.
func (t *Table) evictSome(self *Session) bool {
	type cand struct {
		sh  *shard
		use int64
	}
	cands := make([]cand, 0, len(t.shards))
	for _, sh := range t.shards {
		sh.mu.Lock()
		for e := sh.lru.Back(); e != nil; e = e.Prev() {
			if s := e.Value.(*Session); s != self {
				cands = append(cands, cand{sh, s.lastUse.Load()})
				break
			}
		}
		sh.mu.Unlock()
	}
	sort.Slice(cands, func(i, j int) bool { return cands[i].use < cands[j].use })
	// First pass: victims that can shed a committed chunk (or are expired).
	// Dropping a chunk degrades an old session to a partial read; draining
	// a chunkless session kills it outright, and under sustained pressure
	// that would keep killing young sessions — whose first chunk has not
	// flushed yet — before they can ever commit anything. Tail-only
	// sessions are drained only when no chunk anywhere is left to drop.
	for _, c := range cands {
		if t.evictShard(c.sh, self, false) {
			return true
		}
	}
	for _, c := range cands {
		if t.evictShard(c.sh, self, true) {
			return true
		}
	}
	return false
}

// evictShard walks one shard's LRU from the back and applies one eviction
// step to the first session it can lock. Unless drainTails is set, live
// sessions with no droppable chunk are passed over.
func (t *Table) evictShard(sh *shard, self *Session, drainTails bool) bool {
	sh.mu.Lock()
	for e := sh.lru.Back(); e != nil; {
		s := e.Value.(*Session)
		prev := e.Prev()
		if s == self || !s.mu.TryLock() {
			e = prev
			continue
		}
		if s.dead {
			s.mu.Unlock()
			e = prev
			continue
		}
		if !drainTails && s.evicted >= s.committed && !t.expired(s) {
			s.mu.Unlock()
			e = prev
			continue
		}
		progress := t.evictStepLocked(sh, s)
		s.mu.Unlock()
		if progress {
			sh.mu.Unlock()
			return true
		}
		e = prev
	}
	sh.mu.Unlock()
	return false
}

// evictStepLocked drops s's oldest committed chunk, or removes s entirely
// when it is expired or has nothing left but its tail. Caller holds sh.mu
// and s.mu.
func (t *Table) evictStepLocked(sh *shard, s *Session) bool {
	if t.expired(s) {
		t.removeLocked(sh, s, "expired")
		return true
	}
	f := t.cfg.FlushRows
	if s.evicted < s.committed {
		plane := s.evicted / f
		freed := t.blobs.Release(s.blobKeys[plane])
		s.app.DropPlanes(plane + 1)
		from := s.evicted
		s.evicted += f
		t.addResident(-freed)
		if t.m != nil {
			t.m.evictChunks.Inc()
			t.m.evictBytes.Add(freed)
		}
		if t.cfg.OnEvict != nil {
			t.cfg.OnEvict(s.name, from, s.evicted, false)
		}
		if s.evicted == s.committed && s.tailTokens() == 0 {
			t.removeLocked(sh, s, "drained")
		}
		return true
	}
	// Nothing committed (or everything already evicted): the session is
	// only a tail. Removing it frees the tail charge.
	t.removeLocked(sh, s, "drained")
	return true
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
// dim may be 0 for appends to an existing session. A budget rejection is
// atomic — the session is untouched and the identical request can be
// retried once eviction frees space.
func (t *Table) Append(ctx context.Context, name string, dim, at int, vals []float32) (AppendResult, error) {
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
	defer s.mu.Unlock()

	if s.dim == 0 {
		if dim == 0 {
			return AppendResult{}, fmt.Errorf("kv: new session %q needs dim", name)
		}
		s.dim = dim
		s.chain = t.chainRoot(dim)
	} else if dim != 0 && dim != s.dim {
		return AppendResult{}, fmt.Errorf("kv: session %q has dim %d, append says %d: %w", name, s.dim, dim, ErrDimMismatch)
	}
	if len(vals)%s.dim != 0 {
		return AppendResult{}, fmt.Errorf("kv: %d values do not tile dim %d", len(vals), s.dim)
	}
	if at >= 0 && at != s.total() {
		return AppendResult{}, fmt.Errorf("kv: session %q holds %d tokens, append expects %d: %w", name, s.total(), at, ErrOffsetMismatch)
	}
	rows := len(vals) / s.dim

	// Reserve the whole request's worst case up front — raw tail bytes plus
	// the encode estimate for every group this append will complete — so a
	// budget reject is atomic: nothing staged, nothing flushed, and the
	// caller can retry the identical request after eviction frees space.
	rawBytes := int64(len(vals)) * 4
	willFlush := int64((s.tailTokens() + rows) / t.cfg.FlushRows)
	prepaid := willFlush * flushEstimate(t.cfg.FlushRows*s.dim)
	if rawBytes+prepaid > 0 {
		if err := t.reserve(rawBytes+prepaid, s); err != nil {
			return AppendResult{}, err
		}
		s.tail = append(s.tail, vals...)
		s.tailCharged += rawBytes
	}
	res := AppendResult{Session: name}
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
	var digest []byte // the chain and a group's bytes, reused across groups
	for s.tailTokens() >= f {
		raw := s.tail[:group]

		// Advance the chain digest over the raw group's little-endian bytes,
		// hashed in one call.
		digest = append(slices.Grow(digest[:0], sha256.Size+4*group), s.chain[:]...)
		for _, v := range raw {
			digest = binary.LittleEndian.AppendUint32(digest, math.Float32bits(v))
		}
		next := sha256.Sum256(digest)

		// Per-row quantization, exactly the core layer's PerRow path.
		pix := make([]uint8, group)
		rowScales := make([]float32, f)
		rowZeros := make([]float32, f)
		for r := 0; r < f; r++ {
			q, sc, z := quant.ToUint8(raw[r*dim : (r+1)*dim])
			copy(pix[r*dim:], q)
			rowScales[r], rowZeros[r] = sc, z
		}

		committed := false
		if key, ok := t.prefix.get(next); ok {
			if payload, live := t.blobs.Ref(key); live {
				if s.app.AppendEncoded(payload, dim, f) == nil {
					s.blobKeys = append(s.blobKeys, key)
					res.Aliased++
					res.Saved += int64(len(payload))
					if t.m != nil {
						t.m.chunksAliased.Inc()
						t.m.prefixSaved.Add(int64(len(payload)))
					}
					committed = true
				} else {
					t.blobs.Release(key)
				}
			}
		}
		if !committed {
			// Spend this group's share of the prepaid reservation; the
			// difference from the true (possibly deduplicated) size is
			// settled against the resident counter once known.
			est := flushEstimate(group)
			*prepaid -= est
			plane := &frame.Plane{W: dim, H: f, Pix: pix}
			payloads, _, err := s.app.Append(ctx, []*frame.Plane{plane}, nil)
			if err != nil {
				t.addResident(-est)
				return err
			}
			payload := payloads[0]
			key, added := t.blobs.Put(payload)
			actual := int64(0)
			if added {
				actual = int64(len(payload))
			}
			t.addResident(actual - est)
			s.blobKeys = append(s.blobKeys, key)
			t.prefix.put(next, key)
			res.NewChunks++
			if t.m != nil {
				t.m.chunksEncoded.Inc()
			}
		}

		s.chain = next
		s.scales = append(s.scales, rowScales...)
		s.zeros = append(s.zeros, rowZeros...)
		s.committed += f
		s.tail = s.tail[group:]
		s.tailCharged -= int64(group) * 4
		t.addResident(-int64(group) * 4)
	}
	if len(s.tail) == 0 {
		s.tail = nil
	}
	return nil
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
	s, err := t.lookup(name, false)
	if err != nil {
		return ReadResult{}, err
	}
	defer s.mu.Unlock()

	total := s.total()
	if t0 < 0 || (t1 >= 0 && t1 < t0) {
		return ReadResult{}, fmt.Errorf("kv: bad token range [%d,%d)", t0, t1)
	}
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
		firstPlane := from / f
		lastPlane := (cEnd + f - 1) / f
		snap, err := s.app.Snapshot(firstPlane, lastPlane-firstPlane)
		if err != nil {
			return ReadResult{}, fmt.Errorf("kv: snapshot of session %q: %v", name, err)
		}
		dec, err := codec.Decode(ctx, snap, codec.DecodeConfig{Workers: t.cfg.Workers, Metrics: t.cfg.Metrics})
		if err != nil {
			return ReadResult{}, err
		}
		for i, p := range dec.Planes {
			base := (firstPlane + i) * f
			for y := 0; y < p.H; y++ {
				r := base + y
				if r < from || r >= cEnd {
					continue
				}
				quant.FromUint8Into(res.Vals[(r-from)*dim:][:dim], p.Row(y), s.scales[r], s.zeros[r])
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
	sh := t.shardFor(name)
	sh.mu.Lock()
	s := sh.sessions[name]
	sh.mu.Unlock()
	if s == nil {
		return fmt.Errorf("kv: session %q: %w", name, ErrNotFound)
	}
	// Session lock first, then shard lock — the same order the reserve →
	// evict path uses, so Delete can block on s.mu safely.
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.dead {
		return fmt.Errorf("kv: session %q: %w", name, ErrNotFound)
	}
	sh.mu.Lock()
	t.removeLocked(sh, s, "delete")
	sh.mu.Unlock()
	return nil
}
