package qexec

import (
	"container/list"
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
// core.Engine.TopKBoundedWS returns it) with the flag that says its
// scores came from an early-stopped solve — exact as a SET for that k
// only, so such an answer never leaves its (seed, k) key. A bounded
// flight's answer also carries the solve's vector; the cache drops it.
type answer struct {
	scores []float64
	top    []core.Ranked
	early  bool
}

// cost is what an answer is charged against the cache's byte budget: its
// score vector and its ranked list.
func (a answer) cost() int64 { return 8*int64(len(a.scores)) + 16*int64(len(a.top)) }

// lruCache maps key → answer with least-recently-used eviction under two
// limits: an entry cap and a byte budget. The budget is what bounds
// memory — an answer is a 200 B ranking or an 8·n B vector — and is set to
// the served engine's MemoryBytes, so cached answers never outweigh the
// index they front. Entries are generation-tagged: each answer remembers
// the engine generation it was solved under, and get only returns entries
// whose tag matches the caller's current generation, so a cached answer
// can never cross an engine swap (SwapEngine also resets eagerly; the tag
// covers the race where a solve that started before the swap populates
// the cache after it). Cached answers are handed out shared, so callers
// treat them as read-only.
type lruCache struct {
	mu     sync.Mutex
	cap    int
	budget int64
	bytes  int64      // sum of cost() over the entries held
	ll     *list.List // front = most recently used
	items  map[key]*list.Element
}

type lruEntry struct {
	key key
	gen uint64
	val answer
}

func newLRUCache(capacity int, budget int64) *lruCache {
	return &lruCache{
		cap:    capacity,
		budget: budget,
		ll:     list.New(),
		items:  make(map[key]*list.Element, capacity),
	}
}

// remove drops one entry and its charge. Caller holds mu.
func (c *lruCache) remove(el *list.Element) {
	ent := c.ll.Remove(el).(*lruEntry)
	delete(c.items, ent.key)
	c.bytes -= ent.val.cost()
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
		c.remove(el)
		return answer{}, false
	}
	c.ll.MoveToFront(el)
	return ent.val, true
}

// put stores an answer solved under the given generation. It never
// replaces a newer-generation entry with an older one (a pre-swap solve
// finishing after the swap must not shadow a fresh result). Entries are
// then evicted from the LRU tail while the cache is over either limit; the
// entry just stored always stays.
func (c *lruCache) put(k key, val answer, gen uint64) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if el, ok := c.items[k]; ok {
		ent := el.Value.(*lruEntry)
		if ent.gen > gen {
			return
		}
		c.ll.MoveToFront(el)
		c.bytes += val.cost() - ent.val.cost()
		ent.val, ent.gen = val, gen
	} else {
		c.items[k] = c.ll.PushFront(&lruEntry{key: k, gen: gen, val: val})
		c.bytes += val.cost()
	}
	for c.ll.Len() > 1 && (c.ll.Len() > c.cap || c.bytes > c.budget) {
		c.remove(c.ll.Back())
	}
}

// reset drops every entry and takes a new byte budget; called on engine
// swap so stale answers free their memory immediately instead of lingering
// until LRU eviction, and the budget follows the engine being served.
func (c *lruCache) reset(budget int64) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.ll.Init()
	clear(c.items)
	c.bytes, c.budget = 0, budget
}

// size reports the number of cached entries and the bytes they are
// charged.
func (c *lruCache) size() (entries int, bytes int64) {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.ll.Len(), c.bytes
}
