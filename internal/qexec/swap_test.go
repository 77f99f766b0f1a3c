package qexec

import (
	"context"
	"errors"
	"runtime"
	"sync"
	"testing"
	"time"

	"bepi/internal/core"
	"bepi/internal/gen"
)

// freshEngine preprocesses a private engine (distinct from the shared one in
// eng) so tests can attach hooks or swap without disturbing other tests.
func freshEngine(t testing.TB, scale, ef int, seed int64) *core.Engine {
	t.Helper()
	g := gen.RMAT(gen.DefaultRMAT(scale, ef, seed))
	e, err := core.Preprocess(g, core.Options{})
	if err != nil {
		t.Fatalf("preprocess: %v", err)
	}
	return e
}

// TestSwapEngineInvalidatesCache is the acceptance check that no stale
// cached score survives an engine swap: a seed cached against generation 1
// must be re-solved on the new engine after SwapEngine, and the scores must
// match the new engine, not the old one.
func TestSwapEngineInvalidatesCache(t *testing.T) {
	e1 := freshEngine(t, 8, 6, 5)
	e2 := freshEngine(t, 8, 6, 99) // same N, different edges → different scores
	if e1.N() != e2.N() {
		t.Fatalf("test setup: engines differ in size: %d vs %d", e1.N(), e2.N())
	}
	ex := New(e1, Config{})
	defer ex.Close()

	const seed = 17
	first, err := ex.Query(context.Background(), seed)
	if err != nil {
		t.Fatal(err)
	}
	if g := ex.Generation(); g != 1 {
		t.Fatalf("initial generation = %d, want 1", g)
	}

	ex.SwapEngine(e2)
	if g := ex.Generation(); g != 2 {
		t.Fatalf("generation after swap = %d, want 2", g)
	}
	if m := ex.Metrics(); m.CacheEntries != 0 {
		t.Fatalf("cache holds %d entries after swap, want 0", m.CacheEntries)
	}

	second, err := ex.Query(context.Background(), seed)
	if err != nil {
		t.Fatal(err)
	}
	if second.Cached {
		t.Fatal("query after swap served a stale cache hit")
	}
	want, _, err := e2.Query(seed)
	if err != nil {
		t.Fatal(err)
	}
	if d := maxAbsDiff(second.Scores, want); d > 1e-12 {
		t.Fatalf("post-swap scores diverge from new engine by %g", d)
	}
	if d := maxAbsDiff(first.Scores, second.Scores); d == 0 {
		t.Fatal("post-swap scores identical to old engine's — swap had no effect")
	}
	// And the post-swap result is cached under the new generation.
	third, err := ex.Query(context.Background(), seed)
	if err != nil {
		t.Fatal(err)
	}
	if !third.Cached {
		t.Fatal("repeat query after swap should hit the new-generation cache")
	}
}

// TestSwapEngineSamePointerNoop checks swapping in the engine already being
// served neither bumps the generation nor purges the cache.
func TestSwapEngineSamePointerNoop(t *testing.T) {
	e1 := freshEngine(t, 7, 5, 3)
	ex := New(e1, Config{})
	defer ex.Close()
	if _, err := ex.Query(context.Background(), 4); err != nil {
		t.Fatal(err)
	}
	ex.SwapEngine(e1)
	if g := ex.Generation(); g != 1 {
		t.Fatalf("same-pointer swap bumped generation to %d", g)
	}
	res, err := ex.Query(context.Background(), 4)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Cached {
		t.Fatal("same-pointer swap purged the cache")
	}
}

// TestSwapDoesNotCoalesceAcrossGenerations stalls a solve on the old
// engine, swaps mid-solve, and checks a new query for the same seed is not
// blocked behind the stalled old-generation solve: it must be solved on the
// new engine and return the new engine's scores.
func TestSwapDoesNotCoalesceAcrossGenerations(t *testing.T) {
	e1 := freshEngine(t, 8, 6, 5)
	e2 := freshEngine(t, 8, 6, 99)

	ex := New(e1, Config{CacheEntries: -1, Workers: 2})
	defer ex.Close()

	// Stall every solve on e1 until released. Installed after New because
	// the executor attaches its own telemetry hook at construction.
	release := make(chan struct{})
	var releaseOnce sync.Once
	releaseStall := func() { releaseOnce.Do(func() { close(release) }) }
	defer releaseStall() // unblock the stalled solve even if the test fatals
	var stallOnce sync.Once
	started := make(chan struct{})
	e1.SetIterHook(func(int, float64) {
		stallOnce.Do(func() { close(started) })
		<-release
	})
	defer e1.SetIterHook(nil)

	const seed = 11
	type out struct {
		res Result
		err error
	}
	oldDone := make(chan out, 1)
	go func() {
		r, err := ex.Query(context.Background(), seed)
		oldDone <- out{r, err}
	}()
	<-started // the old-generation solve is running and stalled

	ex.SwapEngine(e2)

	// Same seed on the new generation: must not wait for the stalled solve.
	newDone := make(chan out, 1)
	go func() {
		r, err := ex.Query(context.Background(), seed)
		newDone <- out{r, err}
	}()

	var got out
	select {
	case got = <-newDone:
	case <-time.After(30 * time.Second):
		t.Fatal("post-swap query blocked behind the old-generation solve")
	}
	if got.err != nil {
		t.Fatal(got.err)
	}
	want, _, err := e2.Query(seed)
	if err != nil {
		t.Fatal(err)
	}
	if d := maxAbsDiff(got.res.Scores, want); d > 1e-12 {
		t.Fatalf("post-swap query diverges from new engine by %g", d)
	}

	releaseStall() // let the old solve finish; it must not poison anything
	old := <-oldDone
	if old.err != nil {
		t.Fatalf("old-generation query failed: %v", old.err)
	}
	// A fresh query still works and still reflects the new engine.
	again, err := ex.Query(context.Background(), seed)
	if err != nil {
		t.Fatal(err)
	}
	if d := maxAbsDiff(again.Scores, want); d > 1e-12 {
		t.Fatalf("late old-generation completion corrupted serving state: diverges by %g", d)
	}
}

// iteratingSeed returns a seed whose Schur solve runs at least two
// iterations, for tests that inject through the per-iteration solver hook:
// spoke/dead-end seeds can finish in zero iterations and never reach the
// hook, and a context that ends while the hook holds the first iteration is
// seen by the solver only at the second.
func iteratingSeed(t *testing.T, e *core.Engine) int {
	t.Helper()
	for s := 0; s < e.N(); s++ {
		if _, st, err := e.Query(s); err == nil && st.Iterations >= 2 {
			return s
		}
	}
	t.Skip("no seed on this graph exercises the iterative solver")
	return -1
}

// TestSolvePanicFailsFlight injects a panic into the engine's iteration
// hook and checks the solve's panic barrier: every query on the seed, each
// solving in turn through the one slot, gets ErrSolvePanicked instead of
// hanging or killing the process, and the executor keeps serving.
func TestSolvePanicFailsFlight(t *testing.T) {
	e := freshEngine(t, 8, 6, 7)
	seed := iteratingSeed(t, e)
	ex := New(e, Config{Workers: 1})
	defer ex.Close()

	// Installed after New: the executor attaches its own hook at
	// construction and would overwrite one set earlier.
	var panicking sync.Map
	e.SetIterHook(func(int, float64) {
		if _, ok := panicking.Load("arm"); ok {
			panic("injected solver fault")
		}
	})
	defer e.SetIterHook(nil)

	panicking.Store("arm", true)
	const N = 6
	var wg sync.WaitGroup
	errs := make([]error, N)
	wg.Add(N)
	for i := 0; i < N; i++ {
		go func(i int) {
			defer wg.Done()
			_, errs[i] = ex.Query(context.Background(), seed)
		}(i)
	}
	done := make(chan struct{})
	go func() { wg.Wait(); close(done) }()
	select {
	case <-done:
	case <-time.After(30 * time.Second):
		t.Fatal("queries hung after a solve panic — a slot was never released")
	}
	for i, err := range errs {
		if !errors.Is(err, ErrSolvePanicked) {
			t.Fatalf("query %d: got %v, want ErrSolvePanicked", i, err)
		}
	}
	if m := ex.Metrics(); m.SolvePanics == 0 {
		t.Fatal("panic barrier fired but SolvePanics counter is zero")
	}

	// The executor survived, and the engine dropped the workspace the panic
	// left behind: it still answers once the fault clears.
	panicking.Delete("arm")
	res, err := ex.Query(context.Background(), seed)
	if err != nil {
		t.Fatalf("executor dead after panic recovery: %v", err)
	}
	want, _, err := e.Query(seed)
	if err != nil {
		t.Fatal(err)
	}
	if d := maxAbsDiff(res.Scores, want); d > 1e-12 {
		t.Fatalf("post-panic solve diverges by %g", d)
	}
}

// TestCachedScoresSharedByDefault documents the zero-copy contract: a cache
// hit returns the executor's own slice, so a caller mutation would be visible
// to the next hit. The test detects mutation leaking through the cache.
func TestCachedScoresSharedByDefault(t *testing.T) {
	e := eng(t)
	ex := New(e, Config{})
	defer ex.Close()
	if _, err := ex.Query(context.Background(), 31); err != nil {
		t.Fatal(err)
	}
	hit1, err := ex.Query(context.Background(), 31)
	if err != nil {
		t.Fatal(err)
	}
	if !hit1.Cached {
		t.Fatal("expected a cache hit")
	}
	hit1.Scores[0] = 12345 // caller violates the read-only contract
	hit2, err := ex.Query(context.Background(), 31)
	if err != nil {
		t.Fatal(err)
	}
	if !hit2.Cached {
		t.Fatal("expected a cache hit")
	}
	if hit2.Scores[0] != 12345 {
		t.Fatal("cache hits should share the cached slice (zero-copy); mutation did not propagate — did the contract change? update Result.Scores docs")
	}
}

// TestQueuedRequestSolvesOnCapturedEngine: a query still waiting for a
// solve slot when SwapEngine replaces the serving engine solves on the engine
// it captured past the cache — here one of a different size, so a mix-up could
// not go unnoticed — and is tagged with that engine's generation, while the
// next query solves on the new engine.
func TestQueuedRequestSolvesOnCapturedEngine(t *testing.T) {
	e1 := freshEngine(t, 8, 6, 5)
	e2 := freshEngine(t, 7, 6, 99)
	ex := New(e1, Config{Workers: 1, CacheEntries: -1})
	defer ex.Close()

	// Park the only solve slot inside a first solve on e1.
	parkSeed := iteratingSeed(t, e1)
	release := make(chan struct{})
	started := make(chan struct{})
	var startOnce sync.Once
	e1.SetIterHook(func(int, float64) {
		startOnce.Do(func() { close(started) })
		<-release
	})
	defer e1.SetIterHook(nil)
	parked := make(chan error, 1)
	go func() {
		_, err := ex.Query(context.Background(), parkSeed)
		parked <- err
	}()
	<-started

	const seed = 11
	type out struct {
		res Result
		err error
	}
	oldDone := make(chan out, 1)
	go func() {
		r, err := ex.Query(context.Background(), seed)
		oldDone <- out{r, err}
	}()
	for ex.Metrics().Queued < 1 {
		runtime.Gosched()
	}
	ex.SwapEngine(e2)
	newDone := make(chan out, 1)
	go func() {
		r, err := ex.Query(context.Background(), seed)
		newDone <- out{r, err}
	}()
	for ex.Metrics().Queued < 2 {
		runtime.Gosched()
	}
	close(release)
	if err := <-parked; err != nil {
		t.Fatal(err)
	}

	for _, c := range []struct {
		name string
		done chan out
		eng  *core.Engine
		gen  uint64
	}{{"queued before the swap", oldDone, e1, 1}, {"submitted after the swap", newDone, e2, 2}} {
		got := <-c.done
		if got.err != nil {
			t.Fatalf("%s: %v", c.name, got.err)
		}
		want, _, err := c.eng.Query(seed)
		if err != nil {
			t.Fatal(err)
		}
		if len(got.res.Scores) != len(want) || maxAbsDiff(got.res.Scores, want) > 1e-12 {
			t.Errorf("%s: scores are not its own engine's (%d nodes, want %d)", c.name, len(got.res.Scores), len(want))
		}
		if got.res.Generation != c.gen {
			t.Errorf("%s: generation %d, want %d", c.name, got.res.Generation, c.gen)
		}
	}
}
