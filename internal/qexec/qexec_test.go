package qexec

import (
	"context"
	"errors"
	"math"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"bepi/internal/core"
	"bepi/internal/gen"
)

var (
	testEngOnce sync.Once
	testEngine  *core.Engine
)

// eng returns a shared small preprocessed engine (256-node R-MAT graph).
func eng(t testing.TB) *core.Engine {
	t.Helper()
	testEngOnce.Do(func() {
		g := gen.RMAT(gen.DefaultRMAT(8, 6, 5))
		e, err := core.Preprocess(g, core.Options{})
		if err != nil {
			t.Fatalf("preprocess: %v", err)
		}
		testEngine = e
	})
	return testEngine
}

func maxAbsDiff(a, b []float64) float64 {
	var d float64
	for i := range a {
		d = math.Max(d, math.Abs(a[i]-b[i]))
	}
	return d
}

func TestQueryMatchesEngine(t *testing.T) {
	e := eng(t)
	ex := New(e, Config{})
	defer ex.Close()
	for _, seed := range []int{0, 7, 100} {
		res, err := ex.Query(context.Background(), seed)
		if err != nil {
			t.Fatal(err)
		}
		want, _, err := e.Query(seed)
		if err != nil {
			t.Fatal(err)
		}
		if d := maxAbsDiff(res.Scores, want); d > 1e-12 {
			t.Fatalf("seed %d: executor diverges from engine by %g", seed, d)
		}
	}
}

func TestPersonalizedMatchesEngine(t *testing.T) {
	e := eng(t)
	ex := New(e, Config{})
	defer ex.Close()
	q := make([]float64, e.N())
	q[3], q[9] = 0.5, 0.5
	res, err := ex.Personalized(context.Background(), q)
	if err != nil {
		t.Fatal(err)
	}
	want, _, err := e.QueryVector(q)
	if err != nil {
		t.Fatal(err)
	}
	if d := maxAbsDiff(res.Scores, want); d > 1e-12 {
		t.Fatalf("personalized diverges by %g", d)
	}
}

func TestSeedValidation(t *testing.T) {
	e := eng(t)
	ex := New(e, Config{})
	defer ex.Close()
	if _, err := ex.Query(context.Background(), -1); err == nil {
		t.Fatal("negative seed should fail")
	}
	if _, err := ex.Query(context.Background(), e.N()); err == nil {
		t.Fatal("out-of-range seed should fail")
	}
	if _, err := ex.Personalized(context.Background(), make([]float64, 3)); err == nil {
		t.Fatal("wrong-length vector should fail")
	}
}

// TestCacheHitSkipsSolver is the acceptance check that a repeated hot seed
// costs no solve: the second query must be served from the cache, visible
// both on the result and in the hit counter, with the executed-queries
// counter unchanged.
func TestCacheHitSkipsSolver(t *testing.T) {
	e := eng(t)
	ex := New(e, Config{})
	defer ex.Close()
	first, err := ex.Query(context.Background(), 42)
	if err != nil {
		t.Fatal(err)
	}
	if first.Cached {
		t.Fatal("first query cannot be a cache hit")
	}
	executed := ex.Metrics().Executed
	second, err := ex.Query(context.Background(), 42)
	if err != nil {
		t.Fatal(err)
	}
	if !second.Cached {
		t.Fatal("repeat query should hit the cache")
	}
	if second.Stats.Iterations != 0 {
		t.Fatal("cache hit must not run the iterative solver")
	}
	m := ex.Metrics()
	if m.CacheHits != 1 {
		t.Fatalf("cache hits = %d, want 1", m.CacheHits)
	}
	if m.Executed != executed {
		t.Fatalf("cache hit ran a solve: executed %d -> %d", executed, m.Executed)
	}
	if d := maxAbsDiff(first.Scores, second.Scores); d != 0 {
		t.Fatalf("cached scores differ by %g", d)
	}
}

// TestLRUEviction: the entry cap evicts the least recently used of the
// answers that were hit, once probation holds only the newest answer.
func TestLRUEviction(t *testing.T) {
	e := eng(t)
	ex := New(e, Config{CacheEntries: 2})
	defer ex.Close()
	ctx := context.Background()
	for _, s := range []int{1, 2, 3} { // each hit once; 1 is evicted by 3
		for i := 0; i < 2; i++ {
			if _, err := ex.Query(ctx, s); err != nil {
				t.Fatal(err)
			}
		}
	}
	if m := ex.Metrics(); m.CacheEntries != 2 || m.CacheHits != 3 {
		t.Fatalf("cache entries = %d, hits = %d; want 2, 3", m.CacheEntries, m.CacheHits)
	}
	res, err := ex.Query(ctx, 1)
	if err != nil {
		t.Fatal(err)
	}
	if res.Cached {
		t.Fatal("seed 1 should have been evicted")
	}
	res, err = ex.Query(ctx, 3)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Cached {
		t.Fatal("seed 3 should still be cached")
	}
}

// TestQueuedMissCompletesAfterOwnSolve: a query that waited behind another
// for the one solve slot completes when its own solve ends, not when the
// solves queued after it do, and its Stats.Duration covers that one solve.
// The slot is parked inside a first solve while two distinct-seed misses
// queue behind it; once released, the first of the two must return while the
// second is still held inside its solve.
func TestQueuedMissCompletesAfterOwnSolve(t *testing.T) {
	e := freshEngine(t, 8, 6, 7)
	var seeds []int
	for s := 0; s < e.N() && len(seeds) < 3; s++ {
		if _, st, err := e.Query(s); err == nil && st.Iterations > 0 {
			seeds = append(seeds, s)
		}
	}
	if len(seeds) < 3 {
		t.Skip("fewer than three seeds on this graph exercise the iterative solver")
	}
	ex := New(e, Config{Workers: 1, CacheEntries: -1})
	defer ex.Close()

	// Installed after New (the executor attaches its own hook there). Every
	// solve's first iteration reports iter == 1; solves 1 and 3 park on it.
	var solves atomic.Int32
	gates := map[int32]chan struct{}{1: make(chan struct{}), 3: make(chan struct{})}
	thirdStarted := make(chan struct{})
	e.SetIterHook(func(iter int, _ float64) {
		if iter != 1 {
			return
		}
		n := solves.Add(1)
		if n == 3 {
			close(thirdStarted)
		}
		if gate := gates[n]; gate != nil {
			<-gate
		}
	})
	defer e.SetIterHook(nil)

	type out struct {
		res Result
		err error
	}
	done := make([]chan out, 3)
	for i, seed := range seeds {
		done[i] = make(chan out, 1)
		go func(i, seed int) {
			r, err := ex.Query(context.Background(), seed)
			done[i] <- out{r, err}
		}(i, seed)
		// Queue them in order: the first is parked in its solve (nothing
		// queued), the next two wait behind it.
		for solves.Load() < 1 || ex.Metrics().Queued < i {
			runtime.Gosched()
		}
	}
	released := time.Now()
	close(gates[1])
	var first out
	select {
	case first = <-done[1]:
	case <-time.After(10 * time.Second):
		close(gates[3])
		t.Fatal("the first queued miss did not return while the one behind it was still solving")
	}
	if first.err != nil {
		t.Fatal(first.err)
	}
	select {
	case <-thirdStarted:
	case <-time.After(10 * time.Second):
		t.Fatal("the second queued miss never started its solve")
	}
	if d, wall := first.res.Stats.Duration, time.Since(released); d <= 0 || d > wall {
		t.Fatalf("Stats.Duration = %v, want one solve's time within the %v since the slot was released", d, wall)
	}
	close(gates[3])
	for _, i := range []int{0, 2} {
		if o := <-done[i]; o.err != nil {
			t.Fatalf("seed %d: %v", seeds[i], o.err)
		}
	}
}

// parkSolves makes every solve on e wait in its first solver iteration
// until release is called, and returns a channel closed once a solve is
// parked there. Install it after New, which attaches a hook of its own, and
// defer release after deferring Close, so a failing test does not leave
// Close waiting on a parked solve.
func parkSolves(e *core.Engine) (parked <-chan struct{}, release func()) {
	gate, started := make(chan struct{}), make(chan struct{})
	var startOnce, releaseOnce sync.Once
	e.SetIterHook(func(int, float64) {
		startOnce.Do(func() { close(started) })
		<-gate
	})
	return started, func() { releaseOnce.Do(func() { close(gate) }) }
}

// waitQueued spins until n callers wait for a solve slot.
func waitQueued(ex *Executor, n int) {
	for ex.Metrics().Queued < n {
		runtime.Gosched()
	}
}

// TestAdmissionControlSheds parks the only solve slot of a deliberately
// tiny executor, fills its depth-1 queue with one waiting caller, and then
// floods it with distinct seeds, the parked and the waiting one among them:
// every one of them must be shed rather than queued (a miss on a seed being
// solved is a miss like any other), and the two accepted queries still
// complete once the slot frees.
func TestAdmissionControlSheds(t *testing.T) {
	e := freshEngine(t, 8, 6, 7)
	parkSeed := iteratingSeed(t, e)
	ex := New(e, Config{
		Workers:      1,
		QueueDepth:   1,
		CacheEntries: -1,
	})
	defer ex.Close()
	parked, release := parkSolves(e)
	defer release()

	ctx := context.Background()
	accepted := make(chan error, 2)
	go func() { _, err := ex.Query(ctx, parkSeed); accepted <- err }()
	<-parked
	waitSeed := (parkSeed + 1) % e.N()
	go func() { _, err := ex.Query(ctx, waitSeed); accepted <- err }()
	waitQueued(ex, 1)

	const N = 128
	var shedSeen int64
	for i := 0; i < N; i++ {
		_, err := ex.Query(ctx, i%e.N())
		switch {
		case errors.Is(err, ErrOverloaded):
			shedSeen++
		case err != nil:
			t.Fatalf("query %d: %v", i, err)
		default:
			t.Fatalf("query %d was solved while the only slot was parked", i)
		}
	}
	if shedSeen == 0 {
		t.Fatal("flooding a queue of depth 1 shed nothing")
	}
	if got := ex.Metrics().Shed; got != shedSeen {
		t.Fatalf("shed counter %d, callers saw %d", got, shedSeen)
	}
	// The accepted queries still complete.
	release()
	for i := 0; i < 2; i++ {
		if err := <-accepted; err != nil {
			t.Fatalf("accepted query failed: %v", err)
		}
	}
}

// TestNewStartsNoGoroutine: an executor solves on its callers' goroutines,
// so neither New nor a query through it leaves a goroutine running.
func TestNewStartsNoGoroutine(t *testing.T) {
	e := eng(t)
	before := runtime.NumGoroutine()
	ex := New(e, Config{})
	defer ex.Close()
	if _, err := ex.Query(context.Background(), 17); err != nil {
		t.Fatal(err)
	}
	// Kernel goroutines of the solve may still be exiting: wait for them.
	for deadline := time.Now().Add(10 * time.Second); runtime.NumGoroutine() > before; {
		if time.Now().After(deadline) {
			t.Fatalf("%d goroutines after New and a query, %d before", runtime.NumGoroutine(), before)
		}
		time.Sleep(time.Millisecond)
	}
}

// TestWaitingCallerLeavesOnCancel: a caller waiting for a solve slot whose
// context is cancelled returns context.Canceled while the slot is still
// taken, leaves the wait, and solves nothing.
func TestWaitingCallerLeavesOnCancel(t *testing.T) {
	e := freshEngine(t, 8, 6, 7)
	parkSeed := iteratingSeed(t, e)
	ex := New(e, Config{Workers: 1, CacheEntries: -1})
	defer ex.Close()
	parked, release := parkSolves(e)
	defer release()

	parkedErr := make(chan error, 1)
	go func() { _, err := ex.Query(context.Background(), parkSeed); parkedErr <- err }()
	<-parked
	executed := ex.Metrics().Executed

	ctx, cancel := context.WithCancel(context.Background())
	waitErr := make(chan error, 1)
	go func() { _, err := ex.Query(ctx, (parkSeed+1)%e.N()); waitErr <- err }()
	waitQueued(ex, 1)
	cancel()
	select {
	case err := <-waitErr:
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("waiting caller: got %v, want context.Canceled", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("a cancelled caller kept waiting for the parked slot")
	}
	if m := ex.Metrics(); m.Queued != 0 || m.Executed != executed {
		t.Fatalf("after the cancel: queued %d, executed %d; want 0, %d", m.Queued, m.Executed, executed)
	}
	release()
	if err := <-parkedErr; err != nil {
		t.Fatal(err)
	}
}

// TestCloseLetsAdmittedQueriesFinish: Close while one solve is parked and
// one caller waits for the slot refuses new solves at once, returns only
// after both admitted queries complete, and leaves every later cache miss
// refused with ErrClosed.
func TestCloseLetsAdmittedQueriesFinish(t *testing.T) {
	e := freshEngine(t, 8, 6, 7)
	parkSeed := iteratingSeed(t, e)
	ex := New(e, Config{Workers: 1, QueueDepth: 1, CacheEntries: -1})
	parked, release := parkSolves(e)
	defer release()

	ctx := context.Background()
	admitted := make(chan error, 2)
	go func() { _, err := ex.Query(ctx, parkSeed); admitted <- err }()
	<-parked
	go func() { _, err := ex.Query(ctx, (parkSeed+1)%e.N()); admitted <- err }()
	waitQueued(ex, 1)

	closed := make(chan struct{})
	go func() { ex.Close(); close(closed) }()
	// With the queue full, a miss is shed until Close has begun, then
	// refused.
	miss := (parkSeed + 2) % e.N()
	for {
		_, err := ex.Query(ctx, miss)
		if errors.Is(err, ErrClosed) {
			break
		}
		if !errors.Is(err, ErrOverloaded) {
			t.Fatalf("miss before Close began: got %v, want ErrOverloaded", err)
		}
		runtime.Gosched()
	}
	select {
	case <-closed:
		t.Fatal("Close returned while a solve was parked and a caller waited")
	default:
	}
	release()
	for i := 0; i < 2; i++ {
		if err := <-admitted; err != nil {
			t.Fatalf("admitted query failed across Close: %v", err)
		}
	}
	select {
	case <-closed:
	case <-time.After(10 * time.Second):
		t.Fatal("Close did not return after the admitted queries finished")
	}
	if _, err := ex.Query(ctx, miss); !errors.Is(err, ErrClosed) {
		t.Fatalf("cache miss after Close: got %v, want ErrClosed", err)
	}
}

// TestDeadline checks the per-query timeout propagates as
// context.DeadlineExceeded.
func TestDeadline(t *testing.T) {
	e := eng(t)
	ex := New(e, Config{Timeout: time.Nanosecond, CacheEntries: -1})
	defer ex.Close()
	_, err := ex.Query(context.Background(), 9)
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("want DeadlineExceeded, got %v", err)
	}
}

func TestClose(t *testing.T) {
	e := eng(t)
	ex := New(e, Config{})
	if _, err := ex.Query(context.Background(), 1); err != nil {
		t.Fatal(err)
	}
	ex.Close()
	ex.Close() // idempotent
	if _, err := ex.Personalized(context.Background(), make([]float64, e.N())); !errors.Is(err, ErrClosed) {
		t.Fatalf("want ErrClosed after shutdown, got %v", err)
	}
}

// TestConcurrencyStress hammers the executor from many goroutines with
// mixed single-seed and personalized traffic, verifying every response
// against the exact per-query engine answer, then shuts down cleanly. Run
// under -race this exercises the pooled workspaces, the admission
// semaphore and the cache.
func TestConcurrencyStress(t *testing.T) {
	e := eng(t)
	const seeds = 12
	want := make([][]float64, seeds)
	for s := 0; s < seeds; s++ {
		r, _, err := e.Query(s)
		if err != nil {
			t.Fatal(err)
		}
		want[s] = r
	}
	wantPPR := make([][]float64, seeds)
	for s := 0; s < seeds; s++ {
		q := make([]float64, e.N())
		q[s], q[(s+13)%e.N()] = 0.5, 0.5
		r, _, err := e.QueryVector(q)
		if err != nil {
			t.Fatal(err)
		}
		wantPPR[s] = r
	}

	ex := New(e, Config{CacheEntries: 8})
	const workers = 16
	const opsEach = 40
	var wg sync.WaitGroup
	wg.Add(workers)
	for w := 0; w < workers; w++ {
		go func(w int) {
			defer wg.Done()
			for op := 0; op < opsEach; op++ {
				s := (w*7 + op) % seeds
				if (w+op)%3 == 0 {
					q := make([]float64, e.N())
					q[s], q[(s+13)%e.N()] = 0.5, 0.5
					res, err := ex.Personalized(context.Background(), q)
					if err != nil {
						t.Errorf("personalized %d: %v", s, err)
						return
					}
					if d := maxAbsDiff(res.Scores, wantPPR[s]); d > 1e-12 {
						t.Errorf("personalized %d diverges by %g", s, d)
						return
					}
				} else {
					res, err := ex.Query(context.Background(), s)
					if err != nil {
						t.Errorf("query %d: %v", s, err)
						return
					}
					if d := maxAbsDiff(res.Scores, want[s]); d > 1e-12 {
						t.Errorf("query %d diverges by %g", s, d)
						return
					}
				}
			}
		}(w)
	}
	wg.Wait()
	ex.Close()
	m := ex.Metrics()
	if m.Executed+m.CacheHits < workers*opsEach {
		t.Fatalf("accounting hole: executed %d + hits %d < %d ops",
			m.Executed, m.CacheHits, workers*opsEach)
	}
	if m.CacheHits == 0 {
		t.Fatal("hot-seed traffic produced no cache hits")
	}
}
