package qexec

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"math"
	"slices"
	"sync"
	"testing"
	"time"

	"bepi/internal/core"
)

// earlySeed returns a seed whose bounded top-k solve stops early on e.
func earlySeed(t *testing.T, e *core.Engine, k int) int {
	t.Helper()
	for seed := 0; seed < 64; seed++ {
		if _, st, err := e.TopKBounded(seed, k); err == nil && st.EarlyStopped {
			return seed
		}
	}
	t.Fatal("no early stop across 64 seeds on a skewed graph")
	return -1
}

// TestCacheHotSetServedFromMemory is the hot-set contract under
// concurrency: a hot set × 8 goroutines asking the same top-10 get the
// certified set, the cache ends up holding one entry per (seed, k) however
// many of the racing misses solved it, and once the set is warm, replaying
// it is all hits and runs no solve at all. The set is as many seeds as the
// cache's budget holds full vectors, derived from the engine the way
// TestCacheBudgetFollowsEngine derives fit — and the index loaded from its
// file gets the same budget, hence the same set, as the one built here.
func TestCacheHotSetServedFromMemory(t *testing.T) {
	built := skewedEng(t)
	var index bytes.Buffer
	if _, err := built.WriteTo(&index); err != nil {
		t.Fatal(err)
	}
	loaded, err := core.ReadEngine(&index)
	if err != nil {
		t.Fatal(err)
	}
	if err := loaded.CalibrateBound(); err != nil {
		t.Fatal(err)
	}
	seeds := int(built.MemoryBytes() / int64(8*built.N()))
	if seeds < 8 {
		t.Fatalf("test setup: the budget holds %d full vectors, too few for a storm", seeds)
	}
	for name, e := range map[string]*core.Engine{"built": built, "loaded": loaded} {
		t.Run(name, func(t *testing.T) { hotSetServedFromMemory(t, e, seeds) })
	}
}

func hotSetServedFromMemory(t *testing.T, e *core.Engine, seeds int) {
	const dup, k = 8, 10
	// Every request of the cold storm may miss at once, and each miss
	// waits for a solve slot: the queue must hold them all, or the excess
	// is shed like any other overload.
	ex := New(e, Config{QueueDepth: seeds * dup})
	defer ex.Close()
	ctx := context.Background()
	want := make([][]core.Ranked, seeds)
	for s := range want {
		var err error
		if want[s], err = e.TopK(s, k); err != nil {
			t.Fatal(err)
		}
	}
	storm := func() {
		start := make(chan struct{})
		var wg sync.WaitGroup
		for g := 0; g < seeds*dup; g++ {
			wg.Add(1)
			go func(seed int) {
				defer wg.Done()
				<-start
				top, _, err := ex.TopK(ctx, seed, k)
				if err != nil {
					t.Errorf("seed %d: %v", seed, err)
					return
				}
				if !sameSet(want[seed], top) {
					t.Errorf("seed %d: top-%d set differs from the full solve's\nwant %v\ngot  %v", seed, k, want[seed], top)
				}
			}(g % seeds)
		}
		close(start)
		wg.Wait()
	}
	storm()
	m := ex.Metrics()
	if m.TopKSolves != m.Executed || m.Executed < int64(seeds) {
		t.Fatalf("cold storm: %d bounded solves, %d executed, want equal and at least %d (one per seed)", m.TopKSolves, m.Executed, seeds)
	}
	if m.EarlyStops == 0 {
		t.Fatal("no early stops: the storm never exercised certified (seed, k) entries")
	}
	if m.CacheEntries != seeds {
		t.Fatalf("cache holds %d entries, want one per seed (%d)", m.CacheEntries, seeds)
	}
	storm()
	d := ex.Metrics().Delta(m)
	if d.Executed != 0 || d.CacheMisses != 0 || d.CacheHits != int64(seeds*dup) {
		t.Fatalf("warm storm: executed %d, misses %d, hits %d; want 0, 0, %d", d.Executed, d.CacheMisses, d.CacheHits, seeds*dup)
	}
	if d.TopKCacheHits == 0 || d.TopKCacheHits > d.CacheHits {
		t.Fatalf("warm storm: %d top-k hits of %d hits", d.TopKCacheHits, d.CacheHits)
	}
}

// TestCacheCertifiedTopKStaysUnderItsKey pins the reuse rule: a ranking
// certified by an early-stopped solve is replayed to its exact (seed, k)
// with the flag intact, and to nobody else — another k, TopKFull (the
// exact=true path) and Query each solve for themselves.
func TestCacheCertifiedTopKStaysUnderItsKey(t *testing.T) {
	e := skewedEng(t)
	const k = 10
	seed := earlySeed(t, e, k)
	ctx := context.Background()
	// primed returns an executor whose cache holds exactly the certified
	// (seed, k) ranking.
	primed := func(t *testing.T) (*Executor, []core.Ranked) {
		ex := New(e, Config{})
		t.Cleanup(ex.Close)
		top, res, err := ex.TopK(ctx, seed, k)
		if err != nil {
			t.Fatal(err)
		}
		if !res.EarlyStopped || res.Cached {
			t.Fatalf("priming solve: early=%v cached=%v, want an early-stopped fresh solve", res.EarlyStopped, res.Cached)
		}
		return ex, top
	}

	t.Run("same k replays", func(t *testing.T) {
		ex, first := primed(t)
		top, res, err := ex.TopK(ctx, seed, k)
		if err != nil {
			t.Fatal(err)
		}
		if !res.Cached || !res.EarlyStopped || res.Scores != nil {
			t.Fatalf("replay: cached=%v early=%v scores=%d, want a flagged hit carrying no vector", res.Cached, res.EarlyStopped, len(res.Scores))
		}
		if len(top) != len(first) {
			t.Fatalf("replay has %d entries, first answer %d", len(top), len(first))
		}
		for i := range top {
			if top[i] != first[i] {
				t.Fatalf("replay differs at rank %d: %v vs %v", i, top[i], first[i])
			}
		}
		if m := ex.Metrics(); m.Executed != 1 || m.TopKCacheHits != 1 || m.CacheHits != 1 {
			t.Fatalf("executed %d, top-k hits %d, hits %d; want 1, 1, 1", m.Executed, m.TopKCacheHits, m.CacheHits)
		}
	})

	others := []struct {
		name string
		ask  func(ex *Executor) ([]core.Ranked, Result, error)
		rank int
	}{
		{"k=5", func(ex *Executor) ([]core.Ranked, Result, error) { return ex.TopK(ctx, seed, 5) }, 5},
		{"k=50", func(ex *Executor) ([]core.Ranked, Result, error) { return ex.TopK(ctx, seed, 50) }, 50},
		{"TopKFull", func(ex *Executor) ([]core.Ranked, Result, error) { return ex.TopKFull(ctx, seed, k) }, k},
		{"Query", func(ex *Executor) ([]core.Ranked, Result, error) {
			res, err := ex.Query(ctx, seed)
			return core.RankTopK(res.Scores, k, seed), res, err
		}, k},
	}
	for _, o := range others {
		t.Run(o.name+" solves", func(t *testing.T) {
			ex, _ := primed(t)
			top, res, err := o.ask(ex)
			if err != nil {
				t.Fatal(err)
			}
			if res.Cached {
				t.Fatal("served from the cache, which holds only the certified (seed, 10) ranking")
			}
			if m := ex.Metrics(); m.Executed != 2 || m.CacheHits != 0 {
				t.Fatalf("executed %d, hits %d; want 2, 0", m.Executed, m.CacheHits)
			}
			want, err := e.TopK(seed, o.rank)
			if err != nil {
				t.Fatal(err)
			}
			sameTopKSet(t, o.name, want, top)
			if o.name == "TopKFull" || o.name == "Query" {
				if res.EarlyStopped {
					t.Fatal("full-tolerance path returned an early-stopped result")
				}
				exact, _, err := e.Query(seed)
				if err != nil {
					t.Fatal(err)
				}
				if d := maxAbsDiff(res.Scores, exact); d > 1e-12 {
					t.Fatalf("scores differ from the engine's full solve by %g", d)
				}
			}
		})
	}
}

// TestDuplicateMissCancelSparesTwin: two callers miss on the same uncached
// key, and each solves on its own context. The first is parked inside its
// solve and then cancelled; the second finishes meanwhile with the engine's
// own answer, bit for bit, so a cancelled request never fails or delays
// another. Both solves count, and the cache keeps one entry for the key.
// The parked solve sees its cancel only once released, at its next
// iteration: the seed's solve, bounded included, runs two.
func TestDuplicateMissCancelSparesTwin(t *testing.T) {
	for _, k := range []int{0, 10} {
		t.Run(fmt.Sprintf("k=%d", k), func(t *testing.T) {
			e := freshEngine(t, 8, 6, 7)
			seed := iteratingSeed(t, e)
			wantScores, _, err := e.Query(seed)
			if err != nil {
				t.Fatal(err)
			}
			wantTop, st, err := e.TopKBounded(seed, 10)
			if err != nil || st.Iterations < 2 {
				t.Fatalf("seed %d: bounded solve runs %d iterations (err %v), want at least 2", seed, st.Iterations, err)
			}
			ex := New(e, Config{Workers: 2})
			defer ex.Close()
			type out struct {
				top    []core.Ranked
				scores []float64
				err    error
			}
			ask := func(ctx context.Context) out {
				if k == 0 {
					res, err := ex.Query(ctx, seed)
					return out{scores: res.Scores, err: err}
				}
				top, _, err := ex.TopK(ctx, seed, k)
				return out{top: top, err: err}
			}

			// Park the first solve to reach the solver (hook installed after
			// New, which attaches its own); every later one runs through.
			parked, release := make(chan struct{}), make(chan struct{})
			var parkOnce, releaseOnce sync.Once
			releasePark := func() { releaseOnce.Do(func() { close(release) }) }
			defer releasePark()
			e.SetIterHook(func(int, float64) {
				first := false
				parkOnce.Do(func() { first = true })
				if first {
					close(parked)
					<-release
				}
			})

			ctx, cancel := context.WithCancel(context.Background())
			defer cancel()
			parkedOut := make(chan out, 1)
			go func() { parkedOut <- ask(ctx) }()
			<-parked

			twinOut := make(chan out, 1)
			go func() { twinOut <- ask(context.Background()) }()
			var twin out
			select {
			case twin = <-twinOut:
			case <-time.After(30 * time.Second):
				t.Fatal("a miss on the same key waited for the parked solve")
			}
			if twin.err != nil {
				t.Fatalf("twin: %v", twin.err)
			}
			if k == 0 {
				for i := range wantScores {
					if math.Float64bits(twin.scores[i]) != math.Float64bits(wantScores[i]) {
						t.Fatalf("twin score %d = %v, engine %v", i, twin.scores[i], wantScores[i])
					}
				}
			} else if !slices.Equal(twin.top, wantTop) {
				t.Fatalf("twin ranking %v, engine %v", twin.top, wantTop)
			}

			cancel()
			releasePark()
			if got := <-parkedOut; !errors.Is(got.err, context.Canceled) {
				t.Fatalf("parked caller: got %v, want context.Canceled", got.err)
			}
			if m := ex.Metrics(); m.Executed != 2 || m.CacheEntries != 1 {
				t.Fatalf("executed %d, cache entries %d; want 2, 1", m.Executed, m.CacheEntries)
			}
		})
	}
}

// checkSegments walks both segments of c and fails unless every entry is
// indexed, knows its segment, and is charged exactly once: each segment's
// byte count is the sum of its entries' costs.
func checkSegments(t *testing.T, c *lruCache) {
	t.Helper()
	entries := 0
	for _, s := range []*segment{&c.probation, &c.protected} {
		var bytes int64
		for el := s.ll.Front(); el != nil; el = el.Next() {
			ent := el.Value.(*lruEntry)
			if ent.seg != s || c.items[ent.key] != el {
				t.Fatalf("entry %v is indexed or segmented wrongly", ent.key)
			}
			bytes += ent.val.cost()
			entries++
		}
		if bytes != s.bytes {
			t.Fatalf("segment charged %d B, its entries cost %d B", s.bytes, bytes)
		}
	}
	if entries != len(c.items) {
		t.Fatalf("%d entries in the segments, %d indexed", entries, len(c.items))
	}
}

// wantCache fails unless c holds the given entries and bytes, and its
// accounting is exact.
func wantCache(t *testing.T, c *lruCache, entries int, bytes int64) {
	t.Helper()
	checkSegments(t, c)
	if e, b, _ := c.size(); e != entries || b != bytes {
		t.Fatalf("cache holds %d entries / %d B, want %d / %d", e, b, entries, bytes)
	}
}

const testN = 100 // scores per test vector

func testVec() answer  { return answer{scores: make([]float64, testN)} } // 800 B
func testRank() answer { return answer{top: make([]core.Ranked, 10)} }   // 160 B

// TestCacheByteBudget: the cache is bounded in bytes and entries. Answers
// hit at least once are an LRU within the budget less probation's share;
// never-hit answers crowd out only each other; an answer larger than the
// budget is kept, alone; and the entry cap evicts never-hit answers first.
func TestCacheByteBudget(t *testing.T) {
	c := newLRUCache(1024, 8*800) // probation 800 B: one vector; protected seven
	putHit := func(k key, a answer) {
		t.Helper()
		c.put(k, a, 1)
		if _, ok := c.get(k, 1); !ok {
			t.Fatalf("%v missing right after put", k)
		}
	}
	for s := 0; s < 8; s++ {
		putHit(key{s, 0}, testVec())
	}
	wantCache(t, c, 7, 7*800)
	// Touch vector 1: the next promotion evicts 2, the least recently used.
	c.get(key{1, 0}, 1)
	putHit(key{8, 0}, testVec())
	wantCache(t, c, 7, 7*800)
	for s, want := range map[int]bool{0: false, 1: true, 2: false, 8: true} {
		if _, ok := c.get(key{s, 0}, 1); ok != want {
			t.Fatalf("vector %d cached = %v, want %v (LRU order)", s, ok, want)
		}
	}
	// Never-hit vectors crowd out each other, not the hit ones: only the
	// newest of a stream stays, and the cache is then exactly at its budget.
	for s := 10; s < 14; s++ {
		c.put(key{s, 0}, testVec(), 1)
	}
	wantCache(t, c, 8, 8*800)
	if _, _, ev := c.size(); ev != 3 || c.protected.ll.Len() != 7 {
		t.Fatalf("%d probation evictions, %d protected; want 3, 7", ev, c.protected.ll.Len())
	}
	// An answer larger than the whole budget is still kept — alone.
	c.put(key{9, 0}, answer{scores: make([]float64, 10*testN)}, 1)
	wantCache(t, c, 1, 8000)
	c.put(key{8, 10}, testRank(), 1)
	wantCache(t, c, 1, 160)

	// The entry cap: a new answer evicts never-hit ones first, then the
	// least recently used hit one.
	c = newLRUCache(4, 1<<20)
	for s := 0; s < 4; s++ {
		putHit(key{s, 10}, testRank())
	}
	c.put(key{4, 10}, testRank(), 1)
	c.put(key{5, 10}, testRank(), 1)
	wantCache(t, c, 4, 4*160)
	for s, want := range map[int]bool{0: false, 1: true, 4: false, 5: true} {
		if _, ok := c.get(key{s, 10}, 1); ok != want {
			t.Fatalf("ranking %d cached = %v, want %v", s, ok, want)
		}
	}
}

// TestCacheSegmentAccounting: the byte count stays exact however an entry
// moves or leaves — promotion, replacement, a stale-generation drop, a
// reset — and only never-hit answers evicted for room count as probation
// evictions.
func TestCacheSegmentAccounting(t *testing.T) {
	c := newLRUCache(1024, 32*800) // probation: 3200 B
	c.put(key{1, 10}, testRank(), 1)
	c.put(key{1, 0}, testVec(), 1)
	c.put(key{2, 0}, testVec(), 1)
	wantCache(t, c, 3, 160+2*800)
	// Promote two.
	c.get(key{1, 10}, 1)
	c.get(key{1, 0}, 1)
	wantCache(t, c, 3, 160+2*800)
	if c.protected.bytes != 960 || c.probation.bytes != 800 {
		t.Fatalf("protected %d B, probation %d B; want 960, 800", c.protected.bytes, c.probation.bytes)
	}
	// A newer generation replaces, re-charges and restarts in probation,
	// both ways.
	c.put(key{1, 0}, testRank(), 2)
	wantCache(t, c, 3, 2*160+800)
	c.put(key{2, 0}, testRank(), 2)
	wantCache(t, c, 3, 3*160)
	if c.protected.bytes != 160 || c.probation.bytes != 320 {
		t.Fatalf("protected %d B, probation %d B; want 160, 320", c.protected.bytes, c.probation.bytes)
	}
	// An older generation never replaces a newer one.
	c.put(key{3, 0}, testVec(), 2)
	c.put(key{3, 0}, testRank(), 1)
	wantCache(t, c, 4, 3*160+800)
	// A stale-generation entry is dropped on sight, with its charge, from
	// either segment.
	if _, ok := c.get(key{1, 10}, 3); ok {
		t.Fatal("generation-1 entry served to generation 3")
	}
	if _, ok := c.get(key{2, 0}, 3); ok {
		t.Fatal("generation-2 entry served to generation 3")
	}
	wantCache(t, c, 2, 160+800)
	if _, _, ev := c.size(); ev != 0 {
		t.Fatalf("%d probation evictions from replaces and stale drops, want 0", ev)
	}
	c.get(key{3, 0}, 2)
	c.reset(800)
	wantCache(t, c, 0, 0)
	if c.probation.ll.Len()+c.protected.ll.Len() != 0 {
		t.Fatal("reset left entries in a segment")
	}
	c.put(key{1, 0}, testVec(), 2)
	c.put(key{2, 0}, testVec(), 2)
	wantCache(t, c, 1, 800) // the new budget is in force
	if _, _, ev := c.size(); ev != 1 {
		t.Fatalf("%d probation evictions, want 1", ev)
	}
	// Draining the cache through stale gets returns the count to zero.
	if _, ok := c.get(key{2, 0}, 3); ok {
		t.Fatal("stale entry served")
	}
	wantCache(t, c, 0, 0)
}

// TestCachePutKeepsSameGeneration: answers are bit-identical per (key,
// generation), so a put onto an entry of the same generation — a duplicate
// miss storing what another already stored — keeps the entry as it is, in
// its segment and with its charge; and a put of an older generation never
// replaces a newer entry, protected or not.
func TestCachePutKeepsSameGeneration(t *testing.T) {
	c := newLRUCache(1024, 32*800)
	c.put(key{1, 0}, testVec(), 1)
	c.get(key{1, 0}, 1) // promoted
	c.put(key{1, 0}, testVec(), 1)
	c.put(key{1, 0}, testRank(), 1)
	wantCache(t, c, 1, 800)
	if c.protected.bytes != 800 || c.probation.bytes != 0 {
		t.Fatalf("protected %d B, probation %d B; want 800, 0: a same-generation put demoted the entry", c.protected.bytes, c.probation.bytes)
	}
	c.put(key{2, 0}, testVec(), 3)
	c.get(key{2, 0}, 3)
	c.put(key{3, 0}, testVec(), 3)
	for _, k := range []key{{2, 0}, {3, 0}} {
		c.put(k, testRank(), 2)
		if a, ok := c.get(k, 3); !ok || len(a.scores) != testN {
			t.Fatalf("key %v: an older-generation put replaced the newer entry", k)
		}
	}
	wantCache(t, c, 3, 3*800)
}

// budgetEngine is a fixture whose index holds 10 of its 256 score vectors,
// so that probation holds one.
func budgetEngine(t *testing.T) *core.Engine { return freshEngine(t, 8, 12, 5) }

// vectorFit is how many of e's score vectors the cache's budget holds, and
// how many of them never-hit answers may hold.
func vectorFit(t *testing.T, e *core.Engine) (fit, probation int) {
	t.Helper()
	perVector := int64(8 * e.N())
	fit = int(e.MemoryBytes() / perVector)
	probation = int(e.MemoryBytes() / probationShare / perVector)
	if probation < 1 || fit >= e.N() {
		t.Fatalf("test setup: the budget holds %d of %d vectors, probation %d", fit, e.N(), probation)
	}
	return fit, probation
}

// queryAll runs Query for every seed in [from, to).
func queryAll(t *testing.T, ex *Executor, from, to int) {
	t.Helper()
	for s := from; s < to; s++ {
		if _, err := ex.Query(context.Background(), s); err != nil {
			t.Fatal(err)
		}
	}
}

// TestCacheBudgetFollowsEngine: the executor's budget is the served
// engine's MemoryBytes, re-derived on swap, and the charge is exported. A
// stream of distinct vectors keeps as many of them as probation holds.
func TestCacheBudgetFollowsEngine(t *testing.T) {
	e1 := budgetEngine(t)
	e2 := freshEngine(t, 7, 6, 5)
	ex := New(e1, Config{})
	defer ex.Close()
	if ex.cache.budget != e1.MemoryBytes() {
		t.Fatalf("budget %d, want the engine's %d bytes", ex.cache.budget, e1.MemoryBytes())
	}
	_, kept := vectorFit(t, e1)
	perVector := int64(8 * e1.N())
	queryAll(t, ex, 0, e1.N())
	m := ex.Metrics()
	if m.CacheEntries != kept || m.CacheBytes != int64(kept)*perVector {
		t.Fatalf("after %d distinct vectors: %d entries / %d B, want %d / %d",
			e1.N(), m.CacheEntries, m.CacheBytes, kept, int64(kept)*perVector)
	}
	if r, err := ex.Query(context.Background(), e1.N()-1); err != nil || !r.Cached {
		t.Fatalf("most recent vector not served from the cache: cached=%v err=%v", r.Cached, err)
	}
	ex.SwapEngine(e2)
	if m := ex.Metrics(); m.CacheEntries != 0 || m.CacheBytes != 0 || ex.cache.budget != e2.MemoryBytes() {
		t.Fatalf("after swap: %d entries / %d B under budget %d, want 0 / 0 under %d",
			m.CacheEntries, m.CacheBytes, ex.cache.budget, e2.MemoryBytes())
	}
}

// TestCacheMissStreamStaysOnProbation is the memory contract of the
// segmented cache: a stream of more distinct full-vector misses than the
// budget holds leaves the cache charged at most probation's share, and
// every vector it let go is counted.
func TestCacheMissStreamStaysOnProbation(t *testing.T) {
	e := budgetEngine(t)
	ex := New(e, Config{})
	defer ex.Close()
	fit, kept := vectorFit(t, e)
	queryAll(t, ex, 0, 2*fit)
	m := ex.Metrics()
	if share := e.MemoryBytes() / probationShare; m.CacheBytes > share {
		t.Fatalf("%d distinct misses left %d B cached, more than probation's %d B", 2*fit, m.CacheBytes, share)
	}
	if m.ProbationEvictions != int64(2*fit-kept) {
		t.Fatalf("%d probation evictions, want %d", m.ProbationEvictions, 2*fit-kept)
	}
}

// TestCacheHitVectorSurvivesMissStream: a vector read once after it was
// stored is protected — a following stream of distinct misses larger than
// the budget does not evict it.
func TestCacheHitVectorSurvivesMissStream(t *testing.T) {
	e := budgetEngine(t)
	ex := New(e, Config{})
	defer ex.Close()
	fit, _ := vectorFit(t, e)
	ctx := context.Background()
	const hot = 0
	queryAll(t, ex, hot, hot+1)
	if r, err := ex.Query(ctx, hot); err != nil || !r.Cached {
		t.Fatalf("immediate repeat not a hit: cached=%v err=%v", r.Cached, err)
	}
	queryAll(t, ex, 1, 2*fit+1)
	executed := ex.Metrics().Executed
	if r, err := ex.Query(ctx, hot); err != nil || !r.Cached {
		t.Fatalf("hit vector evicted by a stream of misses: cached=%v err=%v", r.Cached, err)
	}
	if _, r, err := ex.TopK(ctx, hot, 50); err != nil || !r.Cached {
		t.Fatalf("hit vector no longer answers any k: cached=%v err=%v", r.Cached, err)
	}
	if d := ex.Metrics().Executed - executed; d != 0 {
		t.Fatalf("%d solves for a protected seed", d)
	}
}

// TestCacheRankingsNotSqueezedByProbation: rankings asked for again keep
// their place however many never-hit vectors pass through probation — a
// hot set of top-k answers costs no solve after a miss stream.
func TestCacheRankingsNotSqueezedByProbation(t *testing.T) {
	e := skewedEng(t)
	ex := New(e, Config{})
	defer ex.Close()
	fit, _ := vectorFit(t, e)
	ctx := context.Background()
	const hot, k = 16, 10
	for round := 0; round < 2; round++ {
		for s := 0; s < hot; s++ {
			if _, _, err := ex.TopK(ctx, s, k); err != nil {
				t.Fatal(err)
			}
		}
	}
	queryAll(t, ex, hot, hot+2*fit)
	before := ex.Metrics()
	for s := 0; s < hot; s++ {
		if _, r, err := ex.TopK(ctx, s, k); err != nil || !r.Cached {
			t.Fatalf("seed %d: ranking not served from the cache after a miss stream: cached=%v err=%v", s, r.Cached, err)
		}
	}
	if d := ex.Metrics().Delta(before); d.Executed != 0 || d.TopKCacheHits != hot {
		t.Fatalf("hot set after a miss stream: %d solves, %d ranking hits; want 0, %d", d.Executed, d.TopKCacheHits, hot)
	}
}

// TestSwapEngineEmptiesBothSegments: SwapEngine drops never-hit and hit
// answers alike, and their bytes.
func TestSwapEngineEmptiesBothSegments(t *testing.T) {
	e1 := freshEngine(t, 8, 6, 5)
	e2 := freshEngine(t, 8, 6, 99)
	ex := New(e1, Config{})
	defer ex.Close()
	queryAll(t, ex, 0, 1)
	queryAll(t, ex, 0, 2) // seed 0 hit: protected; seed 1 on probation
	if p, q := ex.cache.protected.ll.Len(), ex.cache.probation.ll.Len(); p != 1 || q != 1 {
		t.Fatalf("test setup: %d protected, %d on probation; want 1, 1", p, q)
	}
	ex.SwapEngine(e2)
	checkSegments(t, ex.cache)
	if m := ex.Metrics(); m.CacheEntries != 0 || m.CacheBytes != 0 {
		t.Fatalf("after swap: %d entries / %d B, want 0 / 0", m.CacheEntries, m.CacheBytes)
	}
	if ex.cache.probation.bytes != 0 || ex.cache.protected.bytes != 0 {
		t.Fatalf("after swap: probation %d B, protected %d B", ex.cache.probation.bytes, ex.cache.protected.bytes)
	}
}
