package store

import (
	"bytes"
	"fmt"
	"sync"
	"testing"

	"repro/internal/obs"
)

// TestBlobCacheRefcounting: interning the same bytes twice charges once,
// bytes survive until the last reference is released, and the freed total
// equals exactly what was charged.
func TestBlobCacheRefcounting(t *testing.T) {
	reg := obs.NewRegistry()
	c := NewBlobCache(reg)

	blob := []byte("the same compressed chunk")
	k1, added := c.Put(blob)
	if !added {
		t.Fatal("first Put reported no new bytes")
	}
	k2, added := c.Put(blob)
	if added || k1 != k2 {
		t.Fatalf("second Put: added=%v, key match=%v", added, k1 == k2)
	}
	if c.Bytes() != int64(len(blob)) || c.Blobs() != 1 {
		t.Fatalf("resident = %d bytes / %d blobs, want %d / 1", c.Bytes(), c.Blobs(), len(blob))
	}

	got, ok := c.Ref(k1)
	if !ok || !bytes.Equal(got, blob) {
		t.Fatalf("Ref = %q, %v", got, ok)
	}
	// Three references: two Puts, one Ref. The first two releases free
	// nothing; the last frees the blob.
	if f := c.Release(k1); f != 0 {
		t.Fatalf("release 1 freed %d", f)
	}
	if f := c.Release(k1); f != 0 {
		t.Fatalf("release 2 freed %d", f)
	}
	if f := c.Release(k1); f != int64(len(blob)) {
		t.Fatalf("final release freed %d, want %d", f, len(blob))
	}
	if c.Bytes() != 0 || c.Blobs() != 0 {
		t.Fatalf("cache not empty after final release: %d bytes / %d blobs", c.Bytes(), c.Blobs())
	}
	if _, ok := c.Ref(k1); ok {
		t.Fatal("Ref succeeded on a fully released key")
	}
	// Releasing an unknown key is a tolerated no-op.
	if f := c.Release(k1); f != 0 {
		t.Fatalf("release of unknown key freed %d", f)
	}

	snap := reg.Snapshot()
	if snap.Gauges["store.blobcache.bytes"] != 0 || snap.Gauges["store.blobcache.blobs"] != 0 {
		t.Fatalf("gauges not zeroed: %+v", snap.Gauges)
	}
	if snap.Counters["store.blobcache.frees"] != 1 {
		t.Fatalf("frees = %d, want 1", snap.Counters["store.blobcache.frees"])
	}
}

// TestBlobCachePutTakesOwnership: Put stores the caller's bytes, not a copy
// of them, so a chunk the kv budget charges once is resident once.
func TestBlobCachePutTakesOwnership(t *testing.T) {
	c := NewBlobCache(nil)
	blob := []byte("a sealed chunk payload")
	k, _ := c.Put(blob)
	got, ok := c.Ref(k)
	if !ok || len(got) != len(blob) || &got[0] != &blob[0] {
		t.Fatal("Ref returned a copy of the bytes given to Put")
	}
}

// TestBlobCacheConcurrent hammers Put/Ref/Release from many goroutines over
// a small keyspace (run under -race via store-test) and checks the final
// accounting is exact: every taken reference released leaves an empty cache.
func TestBlobCacheConcurrent(t *testing.T) {
	c := NewBlobCache(nil)
	const workers, rounds, keys = 16, 200, 7
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < rounds; i++ {
				blob := []byte(fmt.Sprintf("blob-%d", (w+i)%keys))
				k, _ := c.Put(blob)
				if data, ok := c.Ref(k); !ok || !bytes.Equal(data, blob) {
					t.Errorf("Ref lost blob %q", blob)
					return
				}
				c.Release(k)
				c.Release(k)
			}
		}(w)
	}
	wg.Wait()
	if c.Bytes() != 0 || c.Blobs() != 0 {
		t.Fatalf("cache leaked: %d bytes / %d blobs", c.Bytes(), c.Blobs())
	}
}
