package serve

import (
	"container/list"
	"sync"
	"sync/atomic"

	"repro/internal/bitset"
	"repro/internal/dataset"
)

// DefaultCacheSize is the capacity of every served model's prediction
// cache, in classified rows.
const DefaultCacheSize = 4096

// predictCache memoizes classifications of discretized rows for one
// served model. Expression cohorts repeat rows heavily (re-submitted
// panels, retried batches), and a classification is a pure function of
// the discretized row, so a bounded LRU turns those repeats into a hash
// lookup instead of a rule sweep.
//
// Keys are the rows' bitset.Set.Hash64 values; a hit additionally
// verifies Set.Equal against the stored row, so a 64-bit hash collision
// degrades to a miss (and an overwrite on insert), never to a wrong
// label.
//
// Invalidation is by replacement: RegisterModel builds a fresh cache
// for the incoming model, so a hot-swap can never serve the old
// model's labels.
type predictCache struct {
	capacity int

	mu     sync.Mutex
	byHash map[uint64]*list.Element // one slot per hash; Equal-verified
	lru    *list.List               // front = most recently used *cacheEntry

	hits      atomic.Uint64
	misses    atomic.Uint64
	evictions atomic.Uint64
}

type cacheEntry struct {
	hash  uint64
	key   *bitset.Set // cloned at insert; never aliased to request state
	label dataset.Label
	idx   int
}

func newPredictCache(capacity int) *predictCache {
	return &predictCache{
		capacity: capacity,
		byHash:   make(map[uint64]*list.Element, capacity),
		lru:      list.New(),
	}
}

// get returns the cached classification of row, if present.
func (c *predictCache) get(row *bitset.Set) (dataset.Label, int, bool) {
	h := row.Hash64()
	c.mu.Lock()
	defer c.mu.Unlock()
	if e, ok := c.byHash[h]; ok {
		ent := e.Value.(*cacheEntry)
		if ent.key.Equal(row) {
			c.lru.MoveToFront(e)
			c.hits.Add(1)
			return ent.label, ent.idx, true
		}
	}
	c.misses.Add(1)
	return 0, 0, false
}

// put memoizes a classification. The row is cloned, so callers may
// return it to a pool immediately.
func (c *predictCache) put(row *bitset.Set, label dataset.Label, idx int) {
	h, key := row.Hash64(), row.Clone()
	c.mu.Lock()
	defer c.mu.Unlock()
	if e, ok := c.byHash[h]; ok {
		// Same row re-inserted, or a hash collision: either way the slot
		// holds the newest classification.
		ent := e.Value.(*cacheEntry)
		ent.key, ent.label, ent.idx = key, label, idx
		c.lru.MoveToFront(e)
		return
	}
	c.byHash[h] = c.lru.PushFront(&cacheEntry{hash: h, key: key, label: label, idx: idx})
	if c.lru.Len() > c.capacity {
		oldest := c.lru.Back()
		c.lru.Remove(oldest)
		delete(c.byHash, oldest.Value.(*cacheEntry).hash)
		c.evictions.Add(1)
	}
}

// cacheCounters is a point-in-time snapshot for /metrics.
type cacheCounters struct {
	hits, misses, evictions uint64
}

func (c *predictCache) counters() cacheCounters {
	return cacheCounters{
		hits:      c.hits.Load(),
		misses:    c.misses.Load(),
		evictions: c.evictions.Load(),
	}
}
