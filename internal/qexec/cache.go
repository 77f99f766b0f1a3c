package qexec

import (
	"container/list"
	"sync"

	"bepi/internal/core"
)

// key names one rememberable answer for a seed: k == 0 is the seed's
// full-tolerance score vector, k > 0 its top-k ranking. "What may be reused
// for whom" is decided in one place (Executor.run).
type key struct{ seed, k int }

// answer is what a solve returns and the cache remembers under a key: the
// full-tolerance score vector with no ranking (k == 0: top is nil), or the
// ranked list of a bounded solve (k > 0: top is non-nil, as
// core.Engine.TopKBoundedWS returns it) with the flag that says its scores
// came from an early-stopped solve — exact as a SET for that k only. A
// ranking never leaves its (seed, k) key. A bounded solve's answer also
// carries the solve's vector; the cache drops it.
type answer struct {
	scores []float64
	top    []core.Ranked
	early  bool
}

// cost is what an answer is charged against the cache's byte budget: its
// score vector and its ranked list.
func (a answer) cost() int64 { return 8*int64(len(a.scores)) + 16*int64(len(a.top)) }

// probationShare bounds the answers no request has read since they were
// stored: together they hold at most 1/probationShare of the byte budget,
// and the answers read at least once the rest. A stream of distinct
// full-vector seeds therefore keeps a few vectors instead of an index's
// worth, and never evicts an answer that was asked for twice.
const probationShare = 8

// segment is one LRU list of the cache and the bytes its entries are
// charged.
type segment struct {
	ll    *list.List // front = most recently used
	bytes int64
}

// push stores ent at the front of s.
func (s *segment) push(ent *lruEntry) *list.Element {
	ent.seg = s
	s.bytes += ent.val.cost()
	return s.ll.PushFront(ent)
}

// lruCache maps key → answer as a segmented LRU. Every new answer enters
// the probation segment; its first hit promotes it to the protected one.
// Each segment is an LRU within its share of the byte budget (see
// probationShare), and the entry cap bounds both together, probation
// giving way first. The budget is what bounds memory — an answer is a
// 200 B ranking or an 8·n B vector — and is set to the served engine's
// MemoryBytes, so cached answers never outweigh the index they front.
// Entries are generation-tagged: each answer remembers the engine
// generation it was solved under, and get only returns entries whose tag
// matches the caller's current generation, so a cached answer can never
// cross an engine swap (SwapEngine also resets eagerly; the tag covers the
// race where a solve that started before the swap populates the cache
// after it). Cached answers are handed out shared, so callers treat them
// as read-only.
type lruCache struct {
	mu     sync.Mutex
	cap    int
	budget int64
	// probation holds the answers never hit since they were stored,
	// protected those hit at least once.
	probation, protected segment
	items                map[key]*list.Element
	// evicted counts answers evicted from probation, never hit.
	evicted int64
}

type lruEntry struct {
	key key
	gen uint64
	val answer
	seg *segment
}

func newLRUCache(capacity int, budget int64) *lruCache {
	return &lruCache{
		cap:       capacity,
		budget:    budget,
		probation: segment{ll: list.New()},
		protected: segment{ll: list.New()},
		items:     make(map[key]*list.Element, capacity),
	}
}

// remove drops one entry and its charge. Caller holds mu.
func (c *lruCache) remove(el *list.Element) *lruEntry {
	ent := el.Value.(*lruEntry)
	ent.seg.ll.Remove(el)
	ent.seg.bytes -= ent.val.cost()
	delete(c.items, ent.key)
	return ent
}

// get returns the answer cached under k if it was solved under the given
// engine generation, promoting it to the protected segment on its first
// hit. A stale entry (older generation) is evicted on sight and reported
// as a miss.
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
	if ent.seg == &c.protected {
		c.protected.ll.MoveToFront(el)
		return ent.val, true
	}
	el = c.protected.push(c.remove(el))
	c.items[k] = el
	c.trim(el)
	return ent.val, true
}

// put stores an answer solved under the given generation, in probation. It
// never replaces a newer-generation entry with an older one (a pre-swap
// solve finishing after the swap must not shadow a fresh result), and it
// keeps an entry of the same generation as it is: answers are bit-identical
// per (key, generation), so a duplicate miss's answer must not demote a
// promoted entry back to probation. An older entry leaves with its charge
// and the new answer starts over in probation. Entries are then evicted
// until the cache is within its limits; the entry just stored always stays.
// Protected entries leave only for the entry cap or for an answer larger
// than probation's whole share.
func (c *lruCache) put(k key, val answer, gen uint64) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if el, ok := c.items[k]; ok {
		if el.Value.(*lruEntry).gen >= gen {
			return
		}
		c.remove(el)
	}
	el := c.probation.push(&lruEntry{key: k, gen: gen, val: val})
	c.items[k] = el
	c.trim(el)
}

// trim evicts least recently used entries, never keep, until each segment
// is within its share of the byte budget and the cache within its entry
// cap and whole budget, probation giving way first. Only keep itself can
// hold the cache over a limit afterwards. Caller holds mu.
func (c *lruCache) trim(keep *list.Element) {
	share := c.budget / probationShare
	for c.probation.bytes > share && c.evictTail(&c.probation, keep) {
	}
	for c.protected.bytes > c.budget-share && c.evictTail(&c.protected, keep) {
	}
	for (len(c.items) > c.cap || c.probation.bytes+c.protected.bytes > c.budget) &&
		(c.evictTail(&c.probation, keep) || c.evictTail(&c.protected, keep)) {
	}
}

// evictTail evicts the least recently used entry of s other than keep and
// reports whether there was one. Caller holds mu.
func (c *lruCache) evictTail(s *segment, keep *list.Element) bool {
	el := s.ll.Back()
	if el == keep {
		el = el.Prev()
	}
	if el == nil {
		return false
	}
	if s == &c.probation {
		c.evicted++
	}
	c.remove(el)
	return true
}

// reset drops every entry of both segments and takes a new byte budget;
// called on engine swap so stale answers free their memory immediately
// instead of lingering until eviction, and the budget follows the engine
// being served.
func (c *lruCache) reset(budget int64) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.probation.ll.Init()
	c.protected.ll.Init()
	clear(c.items)
	c.probation.bytes, c.protected.bytes, c.budget = 0, 0, budget
}

// size reports the number of cached entries, the bytes they are charged,
// and how many answers have left probation without ever being hit.
func (c *lruCache) size() (entries int, bytes, evicted int64) {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.items), c.probation.bytes + c.protected.bytes, c.evicted
}
