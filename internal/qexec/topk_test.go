package qexec

import (
	"context"
	"fmt"
	"sync"
	"testing"

	"bepi/internal/core"
	"bepi/internal/gen"
)

// skewedEng builds a fresh hub-heavy engine on which the bounded top-k
// certificate actually fires (the shared eng(t) fixture is too small and
// uniform to exercise early stopping reliably). Its index holds 9 of its
// score vectors, so that the cache tests' probation share holds one.
func skewedEng(t testing.TB) *core.Engine {
	t.Helper()
	g := gen.RMAT(gen.DefaultRMAT(9, 10, 42))
	e, err := core.Preprocess(g, core.Options{Variant: core.VariantFull, HubRatio: 0.2})
	if err != nil {
		t.Fatalf("preprocess: %v", err)
	}
	if err := e.CalibrateBound(); err != nil {
		t.Fatalf("CalibrateBound: %v", err)
	}
	return e
}

// sameSet reports whether both rankings name the same node set.
func sameSet(want, got []core.Ranked) bool {
	if len(want) != len(got) {
		return false
	}
	set := make(map[int]bool, len(want))
	for _, r := range want {
		set[r.Node] = true
	}
	for _, r := range got {
		if !set[r.Node] {
			return false
		}
	}
	return true
}

// sameTopKSet fails unless both rankings name the same node set. Test
// goroutine only; elsewhere use sameSet with t.Errorf.
func sameTopKSet(t *testing.T, tag string, want, got []core.Ranked) {
	t.Helper()
	if !sameSet(want, got) {
		t.Fatalf("%s: top-k set differs\nwant %v\ngot  %v", tag, want, got)
	}
}

// TestTopKMatchesFullSolve checks the executor's bounded TopK returns the
// same set as the engine's full solve across seeds and ks, and that the
// bounded path is actually taken (TopKSolves counted).
func TestTopKMatchesFullSolve(t *testing.T) {
	e := skewedEng(t)
	ex := New(e, Config{CacheEntries: -1}) // no cache: force the bounded path
	defer ex.Close()
	ctx := context.Background()
	for _, seed := range []int{0, 7, 123} {
		for _, k := range []int{1, 10, 100} {
			want, err := e.TopK(seed, k)
			if err != nil {
				t.Fatal(err)
			}
			got, res, err := ex.TopK(ctx, seed, k)
			if err != nil {
				t.Fatal(err)
			}
			sameTopKSet(t, fmt.Sprintf("seed %d k %d early=%v", seed, k, res.EarlyStopped), want, got)
		}
	}
	m := ex.Metrics()
	if m.TopKSolves == 0 {
		t.Fatal("no bounded top-k solves counted — TopK is not routing to the bounded path")
	}
	if m.EarlyStops == 0 {
		t.Fatal("no early stops on a skewed graph — the certificate never fired")
	}
}

// TestTopKCacheHitAnyK is the regression for the cache interaction: a
// cached full score vector must satisfy a TopK for ANY k — including a k
// larger than any previously requested — with a rank only, no re-solve.
func TestTopKCacheHitAnyK(t *testing.T) {
	e := skewedEng(t)
	ex := New(e, Config{})
	defer ex.Close()
	ctx := context.Background()
	const seed = 3
	full, err := ex.Query(ctx, seed)
	if err != nil {
		t.Fatal(err)
	}
	if full.Cached {
		t.Fatal("first query cannot be a cache hit")
	}
	executed := ex.Metrics().Executed

	top, res, err := ex.TopK(ctx, seed, 5)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Cached {
		t.Fatal("TopK after Query must be served from the cached full vector")
	}
	want := core.RankTopK(full.Scores, 5, seed)
	sameTopKSet(t, "k=5", want, top)

	// Larger k than anything asked before: still a hit, still no solve.
	top, res, err = ex.TopK(ctx, seed, 50)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Cached {
		t.Fatal("larger-k TopK must still rank the cached full vector, not re-solve")
	}
	want = core.RankTopK(full.Scores, 50, seed)
	sameTopKSet(t, "k=50", want, top)

	if m := ex.Metrics(); m.Executed != executed {
		t.Fatalf("cache-served TopK ran a solve: executed %d -> %d", executed, m.Executed)
	}
	if m := ex.Metrics(); m.TopKSolves != 0 {
		t.Fatalf("cache-served TopK counted %d bounded solves", m.TopKSolves)
	}
}

// TestTopKEarlyStopNotCached pins the cache policy: an early-stopped score
// vector is exact only as a set, so only its ranking is remembered, under
// (seed, k) — a Query on the same seed afterwards must solve, not hit.
func TestTopKEarlyStopNotCached(t *testing.T) {
	e := skewedEng(t)
	ex := New(e, Config{})
	defer ex.Close()
	ctx := context.Background()
	var earlySeed = -1
	for seed := 0; seed < 32; seed++ {
		_, res, err := ex.TopK(ctx, seed, 10)
		if err != nil {
			t.Fatal(err)
		}
		if res.EarlyStopped {
			earlySeed = seed
			break
		}
	}
	if earlySeed < 0 {
		t.Fatal("no early stop across 32 seeds on a skewed graph")
	}
	res, err := ex.Query(ctx, earlySeed)
	if err != nil {
		t.Fatal(err)
	}
	if res.Cached {
		t.Fatal("early-stopped top-k vector leaked into the full-vector cache")
	}
}

// TestTopKParallelCoalesce races many TopK calls — identical (seed, k)
// twins that miss together and each solve or hit, plus mixed k-classes and
// full-vector queries interleaved — under the race detector.
func TestTopKParallelCoalesce(t *testing.T) {
	e := skewedEng(t)
	ex := New(e, Config{})
	defer ex.Close()
	ctx := context.Background()
	want, err := e.TopK(11, 10)
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	errCh := make(chan error, 64)
	for w := 0; w < 12; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			switch w % 3 {
			case 0: // identical bounded twins
				top, _, err := ex.TopK(ctx, 11, 10)
				if err != nil {
					errCh <- err
					return
				}
				if !sameSet(want, top) {
					errCh <- fmt.Errorf("worker %d: got %v, want the set %v", w, top, want)
				}
			case 1: // different k-class member on another seed
				if _, _, err := ex.TopK(ctx, (w*37)%e.N(), 5); err != nil {
					errCh <- err
				}
			default: // full-vector traffic interleaved
				if _, err := ex.Query(ctx, (w*53)%e.N()); err != nil {
					errCh <- err
				}
			}
		}(w)
	}
	wg.Wait()
	close(errCh)
	for err := range errCh {
		t.Fatal(err)
	}
}
