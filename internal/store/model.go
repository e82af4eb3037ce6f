// Model: low-memory inference straight from a packed store.
//
// A Model keeps each tensor's *compressed* container resident (fetched once
// from the store) and materializes decoded layers on demand through an LRU
// bounded by a byte budget — the vqLLM-style serving mode where the decoded
// working set, not the whole checkpoint, determines memory. Layer decodes go
// through core.DecodeLayerCtx, so only the chunks covering the requested layer
// are entropy-decoded (O(region), DESIGN.md §15).
//
// LRU policy: entries are decoded layers costing Rows*Cols*4 bytes each.
// A lookup hit refreshes recency; a miss decodes, then evicts from the cold
// end until the new entry fits the budget before inserting, so resident
// bytes never exceed the budget. A layer larger than the whole budget is
// returned un-cached (the caller still gets its tensor; the cache just
// cannot help). Budget <= 0 means unbounded.
package store

import (
	"container/list"
	"context"
	"fmt"
	"sync"

	"repro/internal/core"
)

// layerKey identifies one layer of one packed tensor: a cached decoded layer,
// or where a named parameter lives.
type layerKey struct {
	tensor string
	layer  int
}

// cacheEntry is one resident decoded layer.
type cacheEntry struct {
	key   layerKey
	t     *core.Tensor
	bytes int64
}

// CacheStats is a point-in-time view of a Model's LRU.
type CacheStats struct {
	Hits, Misses, Evictions int64
	ResidentBytes           int64 // decoded layers currently cached
	MaxResidentBytes        int64 // high-water mark of ResidentBytes
	CompressedBytes         int64 // resident compressed containers (all tensors)
}

// Model serves decoded layers from a packed model under a byte budget.
// Methods are safe for concurrent use; decodes are serialized under the
// model lock, trading parallel-decode throughput for a strict budget bound.
type Model struct {
	man    *Manifest
	opts   core.Options
	budget int64
	m      *storeMetrics

	mu       sync.Mutex
	enc      map[string]*core.Encoded
	byParam  map[string]layerKey
	lru      *list.List // *cacheEntry, front = most recent
	idx      map[layerKey]*list.Element
	stats    CacheStats
	resident int64
}

// OpenModel fetches every tensor of a packed model (compressed bytes only —
// no decoding) and returns a Model serving decoded layers under
// budgetBytes. opts configures decoding (workers, metrics); its encode-side
// fields are ignored.
func (s *Store) OpenModel(model string, opts core.Options, budgetBytes int64) (*Model, error) {
	man, err := s.Manifest(model)
	if err != nil {
		return nil, err
	}
	m := &Model{
		man:     man,
		opts:    opts,
		budget:  budgetBytes,
		m:       s.m,
		enc:     make(map[string]*core.Encoded, len(man.Tensors)),
		byParam: map[string]layerKey{},
		lru:     list.New(),
		idx:     map[layerKey]*list.Element{},
	}
	for i := range man.Tensors {
		tm := &man.Tensors[i]
		e, err := s.fetchTensor(tm)
		if err != nil {
			return nil, err
		}
		m.enc[tm.Name] = e
		m.stats.CompressedBytes += int64(len(e.Stream))
		for l, p := range tm.Params {
			if _, dup := m.byParam[p]; dup {
				return nil, fmt.Errorf("store: model %q maps param %q twice", model, p)
			}
			m.byParam[p] = layerKey{tensor: tm.Name, layer: l}
		}
	}
	return m, nil
}

// Layer returns the decoded layer, from cache when resident.
func (m *Model) Layer(tensor string, layer int) (*core.Tensor, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	e, ok := m.enc[tensor]
	if !ok {
		return nil, fmt.Errorf("store: tensor %q: %w", tensor, ErrNotFound)
	}
	key := layerKey{tensor: tensor, layer: layer}
	if el, ok := m.idx[key]; ok {
		m.lru.MoveToFront(el)
		m.stats.Hits++
		if m.m != nil {
			m.m.hits.Inc()
		}
		return el.Value.(*cacheEntry).t, nil
	}
	m.stats.Misses++
	if m.m != nil {
		m.m.misses.Inc()
	}
	t, err := m.opts.DecodeLayerCtx(context.Background(), e, layer)
	if err != nil {
		return nil, err
	}
	cost := int64(e.Rows) * int64(e.Cols) * 4
	if m.budget > 0 && cost > m.budget {
		return t, nil // larger than the whole budget: serve un-cached
	}
	// Evict before inserting so resident bytes never overshoot the budget.
	for m.budget > 0 && m.resident+cost > m.budget {
		back := m.lru.Back()
		if back == nil {
			break
		}
		ev := m.lru.Remove(back).(*cacheEntry)
		delete(m.idx, ev.key)
		m.resident -= ev.bytes
		m.stats.Evictions++
		if m.m != nil {
			m.m.evictions.Inc()
		}
	}
	m.idx[key] = m.lru.PushFront(&cacheEntry{key: key, t: t, bytes: cost})
	m.resident += cost
	m.stats.ResidentBytes = m.resident
	if m.resident > m.stats.MaxResidentBytes {
		m.stats.MaxResidentBytes = m.resident
	}
	if m.m != nil {
		m.m.residentBytes.Set(m.resident)
	}
	return t, nil
}

// Param returns the decoded tensor layer holding the named model parameter
// (packed via PackEntry.Params).
func (m *Model) Param(name string) (*core.Tensor, error) {
	m.mu.Lock()
	addr, ok := m.byParam[name]
	m.mu.Unlock()
	if !ok {
		return nil, fmt.Errorf("store: param %q: %w", name, ErrNotFound)
	}
	return m.Layer(addr.tensor, addr.layer)
}

// Params lists every parameter name the model maps, in manifest order.
func (m *Model) Params() []string {
	var names []string
	for _, tm := range m.man.Tensors {
		names = append(names, tm.Params...)
	}
	return names
}

// Stats returns a snapshot of the cache counters.
func (m *Model) Stats() CacheStats {
	m.mu.Lock()
	defer m.mu.Unlock()
	st := m.stats
	st.ResidentBytes = m.resident
	return st
}
