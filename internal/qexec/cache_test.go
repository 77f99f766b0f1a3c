package qexec

import (
	"bytes"
	"context"
	"errors"
	"fmt"
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

// TestCacheHotSetSolvedOnce is the hot-set contract under concurrency: a hot
// set × 8 goroutines asking the same top-10 cost exactly one bounded solve
// per (seed, k, generation) — every other request coalesces or hits — and
// once the set is warm, replaying it runs no solve at all. The set is as
// many seeds as the cache's budget holds full vectors (a solve that runs to
// tolerance is stored as one), derived from the engine the way
// TestCacheBudgetFollowsEngine derives fit — and the index loaded from its
// file gets the same budget, hence the same set, as the one built here.
func TestCacheHotSetSolvedOnce(t *testing.T) {
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
		t.Run(name, func(t *testing.T) { hotSetSolvedOnce(t, e, seeds) })
	}
}

func hotSetSolvedOnce(t *testing.T, e *core.Engine, seeds int) {
	ex := New(e, Config{})
	defer ex.Close()
	const dup, k = 8, 10
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
	if m.TopKSolves != int64(seeds) || m.Executed != int64(seeds) {
		t.Fatalf("cold storm: %d bounded solves, %d executed, want %d each (one per seed)", m.TopKSolves, m.Executed, seeds)
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

// TestFlightLeaderCancelSparesFollowers is the regression for the
// singleflight error fan-out: a leader whose own context is cancelled
// mid-solve used to fail every coalesced follower with its
// "context canceled", although their contexts were alive. A follower must
// take the solve over instead.
func TestFlightLeaderCancelSparesFollowers(t *testing.T) {
	for _, k := range []int{0, 10} {
		t.Run(fmt.Sprintf("k=%d", k), func(t *testing.T) {
			e := freshEngine(t, 8, 6, 7)
			seed := iteratingSeed(t, e)
			ex := New(e, Config{CacheEntries: -1, Workers: 2})
			defer ex.Close()
			ask := func(ctx context.Context) error {
				if k == 0 {
					_, err := ex.Query(ctx, seed)
					return err
				}
				_, _, err := ex.TopK(ctx, seed, k)
				return err
			}

			// Stall the leader's solve inside the solver (hook installed
			// after New, which attaches its own).
			release := make(chan struct{})
			var releaseOnce sync.Once
			releaseStall := func() { releaseOnce.Do(func() { close(release) }) }
			defer releaseStall()
			var stallOnce sync.Once
			started := make(chan struct{})
			e.SetIterHook(func(int, float64) {
				stallOnce.Do(func() { close(started) })
				<-release
			})

			leaderCtx, cancelLeader := context.WithCancel(context.Background())
			defer cancelLeader()
			leaderErr := make(chan error, 1)
			go func() { leaderErr <- ask(leaderCtx) }()
			<-started

			const followers = 4
			followerErrs := make(chan error, followers)
			for i := 0; i < followers; i++ {
				go func() { followerErrs <- ask(context.Background()) }()
			}
			for deadline := time.Now().Add(30 * time.Second); ex.Metrics().Coalesced < followers; {
				if time.Now().After(deadline) {
					t.Fatalf("only %d of %d followers joined the flight", ex.Metrics().Coalesced, followers)
				}
				time.Sleep(time.Millisecond)
			}

			cancelLeader()
			if err := <-leaderErr; !errors.Is(err, context.Canceled) {
				t.Fatalf("leader: got %v, want context.Canceled", err)
			}
			releaseStall()
			for i := 0; i < followers; i++ {
				select {
				case err := <-followerErrs:
					if err != nil {
						t.Fatalf("follower with a live context failed with the leader's error: %v", err)
					}
				case <-time.After(30 * time.Second):
					t.Fatal("follower hung after its leader was cancelled")
				}
			}
		})
	}
}

// TestCacheByteBudget: the LRU is bounded in bytes as well as entries.
// Vectors past the budget leave in LRU order while the rankings — a few
// hundred bytes each, and touched since — stay; and every way an entry can
// leave or be replaced keeps the byte count exact.
func TestCacheByteBudget(t *testing.T) {
	const n = 100
	vec := func() answer { return answer{scores: make([]float64, n)} }    // 800 B
	rank := func() answer { return answer{top: make([]core.Ranked, 10)} } // 160 B
	c := newLRUCache(1024, 4*800+3*160)
	wantSize := func(entries int, bytes int64) {
		t.Helper()
		if e, b := c.size(); e != entries || b != bytes {
			t.Fatalf("cache holds %d entries / %d B, want %d / %d", e, b, entries, bytes)
		}
	}
	for s := 0; s < 3; s++ {
		c.put(key{s, 10}, rank(), 1)
	}
	for s := 0; s < 4; s++ {
		c.put(key{s, 0}, vec(), 1)
	}
	wantSize(7, 4*800+3*160) // exactly at the budget: nothing evicted
	// Touch the rankings, then push two more vectors: the two oldest vectors
	// go, in order; the rankings are newer than every vector left.
	for s := 0; s < 3; s++ {
		if _, ok := c.get(key{s, 10}, 1); !ok {
			t.Fatalf("ranking %d missing", s)
		}
	}
	c.put(key{4, 0}, vec(), 1)
	c.put(key{5, 0}, vec(), 1)
	wantSize(7, 4*800+3*160)
	for s := 0; s < 6; s++ {
		_, ok := c.get(key{s, 0}, 1)
		if want := s >= 2; ok != want {
			t.Fatalf("vector %d cached = %v, want %v (LRU order)", s, ok, want)
		}
	}
	for s := 0; s < 3; s++ {
		if _, ok := c.get(key{s, 10}, 1); !ok {
			t.Fatalf("ranking %d evicted by vectors", s)
		}
	}
	// Replacing an entry re-charges it: a ranking under a vector's key.
	c.put(key{5, 0}, rank(), 1)
	wantSize(7, 3*800+4*160)
	// A stale-generation entry is dropped on sight, with its charge.
	if _, ok := c.get(key{4, 0}, 2); ok {
		t.Fatal("generation-1 entry served to generation 2")
	}
	wantSize(6, 2*800+4*160)
	// An answer larger than the whole budget is still kept — alone.
	c.put(key{9, 0}, answer{scores: make([]float64, 10*n)}, 1)
	wantSize(1, 8000)
	c.put(key{8, 10}, rank(), 1)
	wantSize(1, 160)
	c.reset(800)
	wantSize(0, 0)
	c.put(key{1, 0}, vec(), 2)
	c.put(key{2, 0}, vec(), 2)
	wantSize(1, 800) // the new budget is in force
	// Draining the cache through stale gets returns the count to zero.
	if _, ok := c.get(key{2, 0}, 3); ok {
		t.Fatal("stale entry served")
	}
	wantSize(0, 0)
}

// TestCacheBudgetFollowsEngine: the executor's budget is the served
// engine's MemoryBytes, re-derived on swap, and the charge is exported.
func TestCacheBudgetFollowsEngine(t *testing.T) {
	e1 := freshEngine(t, 8, 6, 5)
	e2 := freshEngine(t, 7, 6, 5)
	ex := New(e1, Config{})
	defer ex.Close()
	if ex.cache.budget != e1.MemoryBytes() {
		t.Fatalf("budget %d, want the engine's %d bytes", ex.cache.budget, e1.MemoryBytes())
	}
	ctx := context.Background()
	perVector := int64(8 * e1.N())
	fit := int(e1.MemoryBytes() / perVector)
	if fit >= e1.N() {
		t.Fatalf("test setup: all %d vectors fit the budget (%d)", e1.N(), fit)
	}
	for s := 0; s < e1.N(); s++ {
		if _, err := ex.Query(ctx, s); err != nil {
			t.Fatal(err)
		}
	}
	m := ex.Metrics()
	if m.CacheEntries != fit || m.CacheBytes != int64(fit)*perVector {
		t.Fatalf("after %d distinct vectors: %d entries / %d B, want %d / %d",
			e1.N(), m.CacheEntries, m.CacheBytes, fit, int64(fit)*perVector)
	}
	if r, err := ex.Query(ctx, e1.N()-1); err != nil || !r.Cached {
		t.Fatalf("most recent vector not served from the cache: cached=%v err=%v", r.Cached, err)
	}
	ex.SwapEngine(e2)
	if m := ex.Metrics(); m.CacheEntries != 0 || m.CacheBytes != 0 || ex.cache.budget != e2.MemoryBytes() {
		t.Fatalf("after swap: %d entries / %d B under budget %d, want 0 / 0 under %d",
			m.CacheEntries, m.CacheBytes, ex.cache.budget, e2.MemoryBytes())
	}
}
