package qexec

import (
	"container/list"
	"slices"
	"sync"

	"bepi/internal/core"
)

// key names one rememberable answer for a seed: k == 0 is the seed's
// full-tolerance score vector, k > 0 its certified top-k ranking. The
// cache and the singleflight map share it, so "what may be reused for
// whom" is decided in one place (Executor.run).
type key struct{ seed, k int }

// answer is what is remembered under a key or handed over by a flight: the
// full-tolerance score vector with no ranking (k == 0: top is nil), or the
// certified ranked list of a bounded solve (k > 0: top is non-nil, as
// core.Engine.TopKBoundedBatch returns it) with the flag that says its
// scores came from an early-stopped solve — exact as a SET for that k
// only, so such an answer never leaves its (seed, k) key. A bounded
// flight's answer also carries the solve's vector; the cache drops it.
type answer struct {
	scores []float64
	top    []core.Ranked
	early  bool
}

// lruCache maps key → answer with least-recently-used eviction. Entries
// are generation-tagged: each answer remembers the engine generation it
// was solved under, and get only returns entries whose tag matches the
// caller's current generation, so a cached answer can never cross an
// engine swap (SwapEngine also purges eagerly; the tag covers the race
// where a solve that started before the swap populates the cache after
// it). By default cached answers are handed out shared, so callers treat
// them as read-only; copyOnHit makes get return a private copy instead
// (Config.CopyCachedScores).
type lruCache struct {
	mu        sync.Mutex
	cap       int
	copyOnHit bool
	ll        *list.List // front = most recently used
	items     map[key]*list.Element
}

type lruEntry struct {
	key key
	gen uint64
	val answer
}

func newLRUCache(capacity int, copyOnHit bool) *lruCache {
	return &lruCache{
		cap:       capacity,
		copyOnHit: copyOnHit,
		ll:        list.New(),
		items:     make(map[key]*list.Element, capacity),
	}
}

// get returns the answer cached under k if it was solved under the given
// engine generation. A stale entry (older generation) is evicted on sight
// and reported as a miss.
func (c *lruCache) get(k key, gen uint64) (answer, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	el, ok := c.items[k]
	if !ok {
		return answer{}, false
	}
	ent := el.Value.(*lruEntry)
	if ent.gen != gen {
		c.ll.Remove(el)
		delete(c.items, k)
		return answer{}, false
	}
	c.ll.MoveToFront(el)
	if c.copyOnHit {
		return answer{scores: slices.Clone(ent.val.scores), top: slices.Clone(ent.val.top), early: ent.val.early}, true
	}
	return ent.val, true
}

// put stores an answer solved under the given generation. It never
// replaces a newer-generation entry with an older one (a pre-swap solve
// finishing after the swap must not shadow a fresh result).
func (c *lruCache) put(k key, val answer, gen uint64) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if el, ok := c.items[k]; ok {
		ent := el.Value.(*lruEntry)
		if ent.gen > gen {
			return
		}
		c.ll.MoveToFront(el)
		ent.val, ent.gen = val, gen
		return
	}
	c.items[k] = c.ll.PushFront(&lruEntry{key: k, gen: gen, val: val})
	for c.ll.Len() > c.cap {
		oldest := c.ll.Back()
		c.ll.Remove(oldest)
		delete(c.items, oldest.Value.(*lruEntry).key)
	}
}

// purge drops every entry; called on engine swap so stale answers free
// their memory immediately instead of lingering until LRU eviction.
func (c *lruCache) purge() {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.ll.Init()
	clear(c.items)
}

// len reports the number of cached entries.
func (c *lruCache) len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.ll.Len()
}
