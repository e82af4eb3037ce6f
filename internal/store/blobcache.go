// In-memory refcounted content-addressed blob cache (DESIGN.md §16).
//
// The disk Store (store.go) content-addresses chunk payloads across model
// checkpoints; the kv session tier needs the same dedupe property for live
// session chunks, but in memory, with sharing expressed as reference counts
// instead of manifests: N sessions whose prompt prefixes hash to the same
// compressed chunk hold N references to one byte slice, and the bytes die
// with the last reference. The cache never evicts on its own — ownership of
// "when do bytes leave memory" belongs to the kv tier's budget/LRU, which
// calls Release; the cache's job is exact unique-byte accounting, so the
// budget charges each distinct chunk once no matter how many sessions alias
// it.
package store

import (
	"crypto/sha256"
	"sync"

	"repro/internal/obs"
)

// BlobKey is the SHA-256 content address of a cached blob.
type BlobKey [sha256.Size]byte

// blobCacheMetrics holds the pre-resolved store.blobcache.* handles:
//
//	store.blobcache.puts / hits / misses / releases / frees  counters
//	store.blobcache.blobs / bytes                            gauges
type blobCacheMetrics struct {
	puts, hits, misses *obs.Counter
	releases, frees    *obs.Counter
	blobs, bytes       *obs.Gauge
}

func newBlobCacheMetrics(reg *obs.Registry) *blobCacheMetrics {
	if reg == nil {
		return nil
	}
	return &blobCacheMetrics{
		puts:     reg.Counter("store.blobcache.puts"),
		hits:     reg.Counter("store.blobcache.hits"),
		misses:   reg.Counter("store.blobcache.misses"),
		releases: reg.Counter("store.blobcache.releases"),
		frees:    reg.Counter("store.blobcache.frees"),
		blobs:    reg.Gauge("store.blobcache.blobs"),
		bytes:    reg.Gauge("store.blobcache.bytes"),
	}
}

type cachedBlob struct {
	data []byte
	refs int
}

// BlobCache is a concurrency-safe refcounted content-addressed byte cache.
type BlobCache struct {
	mu    sync.Mutex
	blobs map[BlobKey]*cachedBlob
	bytes int64
	m     *blobCacheMetrics
}

// NewBlobCache creates an empty cache; reg nil disables metrics.
func NewBlobCache(reg *obs.Registry) *BlobCache {
	return &BlobCache{blobs: make(map[BlobKey]*cachedBlob), m: newBlobCacheMetrics(reg)}
}

// Put interns data under its content address and takes one reference. added
// reports whether the bytes are new to the cache (the caller's budget must
// charge len(data) exactly then). The cache takes ownership of data without
// copying it, so the bytes the budget charges are the only copy: the caller
// must not modify them afterwards (kv's chunk payloads are sealed).
func (c *BlobCache) Put(data []byte) (key BlobKey, added bool) {
	key = sha256.Sum256(data)
	c.mu.Lock()
	defer c.mu.Unlock()
	if b, ok := c.blobs[key]; ok {
		b.refs++
		if c.m != nil {
			c.m.puts.Inc()
			c.m.hits.Inc()
		}
		return key, false
	}
	c.blobs[key] = &cachedBlob{data: data, refs: 1}
	c.bytes += int64(len(data))
	if c.m != nil {
		c.m.puts.Inc()
		c.m.misses.Inc()
		c.m.blobs.Set(int64(len(c.blobs)))
		c.m.bytes.Set(c.bytes)
	}
	return key, true
}

// Ref takes one additional reference on key and returns its bytes. The
// returned slice is shared and must be treated as immutable. ok is false
// when the key is not resident (fully released).
func (c *BlobCache) Ref(key BlobKey) (data []byte, ok bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	b, ok := c.blobs[key]
	if !ok {
		if c.m != nil {
			c.m.misses.Inc()
		}
		return nil, false
	}
	b.refs++
	if c.m != nil {
		c.m.hits.Inc()
	}
	return b.data, true
}

// Release drops one reference on key and returns the bytes freed — len(data)
// when this was the last reference, 0 otherwise (including unknown keys,
// which are counted but tolerated so teardown paths can be idempotent).
func (c *BlobCache) Release(key BlobKey) int64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	b, ok := c.blobs[key]
	if !ok {
		return 0
	}
	if c.m != nil {
		c.m.releases.Inc()
	}
	b.refs--
	if b.refs > 0 {
		return 0
	}
	freed := int64(len(b.data))
	delete(c.blobs, key)
	c.bytes -= freed
	if c.m != nil {
		c.m.frees.Inc()
		c.m.blobs.Set(int64(len(c.blobs)))
		c.m.bytes.Set(c.bytes)
	}
	return freed
}

// Bytes returns the unique resident bytes (each blob counted once).
func (c *BlobCache) Bytes() int64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.bytes
}

// Blobs returns the number of distinct resident blobs.
func (c *BlobCache) Blobs() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.blobs)
}
