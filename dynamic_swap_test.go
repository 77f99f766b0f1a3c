package bepi

import (
	"math/rand"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// TestDynamicNoopUpdatesCancelAtBufferTime checks that updates with no net
// effect never reach the buffer: inserting an edge that already exists,
// deleting one that does not, and an insert/delete pair of the same new
// edge all leave Pending at zero.
func TestDynamicNoopUpdatesCancelAtBufferTime(t *testing.T) {
	d, err := NewDynamic(dynGraph(t)) // edges include {0,1}; {0,3} absent
	if err != nil {
		t.Fatal(err)
	}
	if err := d.AddEdge(0, 1); err != nil { // already present
		t.Fatal(err)
	}
	if p := d.Pending(); p != 0 {
		t.Fatalf("inserting an existing edge buffered %d updates, want 0", p)
	}
	if err := d.RemoveEdge(0, 3); err != nil { // already absent
		t.Fatal(err)
	}
	if p := d.Pending(); p != 0 {
		t.Fatalf("deleting an absent edge buffered %d updates, want 0", p)
	}
	if err := d.AddEdge(0, 3); err != nil { // real work...
		t.Fatal(err)
	}
	if p := d.Pending(); p != 1 {
		t.Fatalf("pending = %d, want 1", p)
	}
	if err := d.RemoveEdge(0, 3); err != nil { // ...undone before any flush
		t.Fatal(err)
	}
	if p := d.Pending(); p != 0 {
		t.Fatalf("insert+delete of the same edge left %d pending, want 0", p)
	}
}

// TestDynamicNoopFlushKeepsGeneration checks a flush with only canceled
// no-ops in its past neither rebuilds nor swaps: same engine pointer, same
// generation, and the rebuild handle reports itself as a no-op.
func TestDynamicNoopFlushKeepsGeneration(t *testing.T) {
	d, err := NewDynamic(dynGraph(t))
	if err != nil {
		t.Fatal(err)
	}
	engBefore, genBefore := d.Engine(), d.Generation()
	if err := d.AddEdge(0, 1); err != nil { // no-op: exists
		t.Fatal(err)
	}
	if err := d.RemoveEdge(4, 2); err != nil { // no-op: absent
		t.Fatal(err)
	}
	r := d.StartFlush()
	if err := r.Wait(); err != nil {
		t.Fatal(err)
	}
	st := r.Status()
	if !st.NoOp {
		t.Fatalf("flush of canceled no-ops rebuilt anyway: %+v", st)
	}
	if st.State != RebuildDone {
		t.Fatalf("state = %q, want %q", st.State, RebuildDone)
	}
	if g := d.Generation(); g != genBefore {
		t.Fatalf("no-op flush bumped generation %d -> %d", genBefore, g)
	}
	if d.Engine() != engBefore {
		t.Fatal("no-op flush replaced the engine")
	}
}

// TestDynamicFlushDoesNotBlockQueries is the acceptance check for the
// background-rebuild rework: while a flush is rebuilding a graph big
// enough to take real time, queries against the old index must keep
// completing in a small fraction of the rebuild duration — latency bounded
// by the atomic swap, not by preprocessing.
func TestDynamicFlushDoesNotBlockQueries(t *testing.T) {
	if testing.Short() {
		t.Skip("rebuild-timing test needs a non-trivial graph")
	}
	g := RMAT(15, 8, 42)
	d, err := NewDynamic(g)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := d.Query(0); err != nil { // warm: the steady-state cost
		t.Fatal(err)
	}
	steadyStart := time.Now()
	if _, err := d.Query(1); err != nil {
		t.Fatal(err)
	}
	steady := time.Since(steadyStart)

	// Real buffered work: a brand-new node with edges cannot be a no-op.
	id := d.AddNode()
	if err := d.AddEdge(0, id); err != nil {
		t.Fatal(err)
	}
	if err := d.AddEdge(id, 0); err != nil {
		t.Fatal(err)
	}
	genBefore := d.Generation()

	r := d.StartFlush()
	var worst time.Duration
	queries := 0
	for r.Status().State == RebuildRunning {
		qStart := time.Now()
		if _, err := d.Query(queries % 64); err != nil {
			t.Fatal(err)
		}
		if el := time.Since(qStart); el > worst {
			worst = el
		}
		queries++
	}
	if err := r.Wait(); err != nil {
		t.Fatal(err)
	}
	rebuild := r.Status().Duration
	t.Logf("rebuild %v; %d queries during it, worst %v, steady %v", rebuild, queries, worst, steady)

	if g := d.Generation(); g != genBefore+1 {
		t.Fatalf("generation %d -> %d, want +1", genBefore, g)
	}
	if res, err := d.Query(id); err != nil || res[0] <= 0 {
		t.Fatalf("new node not reflected after background flush: res[0]=%v err=%v", res[0], err)
	}
	if queries == 0 || rebuild < 50*time.Millisecond {
		t.Skipf("rebuild too fast to measure blocking (%v, %d queries)", rebuild, queries)
	}
	// A stop-the-world flush would stall one query for ~the whole rebuild.
	// Allow generous slack for scheduler noise and the query's own solve
	// cost: the worst in-rebuild query must still be far from rebuild-long.
	if worst > rebuild/2 {
		t.Fatalf("query blocked %v during a %v rebuild — flush is stop-the-world again", worst, rebuild)
	}
}

// TestDynamicRaceStress hammers one dynamic index from concurrent
// queriers, updaters, and flushers. Run under -race it checks the
// snapshot/swap protocol publishes the engine safely: no torn engine, no
// failed query, and the generation only ever moves forward.
func TestDynamicRaceStress(t *testing.T) {
	g := RMAT(8, 6, 7)
	d, err := NewDynamic(g)
	if err != nil {
		t.Fatal(err)
	}
	n := d.N()
	stop := make(chan struct{})
	var firstErr atomic.Value
	fail := func(err error) {
		if err != nil {
			firstErr.CompareAndSwap(nil, err)
		}
	}
	var lastGen atomic.Uint64
	lastGen.Store(d.Generation())

	var wg sync.WaitGroup
	for w := 0; w < 4; w++ { // queriers
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(w)))
			for {
				select {
				case <-stop:
					return
				default:
				}
				if w%2 == 0 {
					res, err := d.Query(rng.Intn(n))
					fail(err)
					if err == nil && len(res) < n {
						t.Error("torn engine: score vector shorter than the initial graph")
						return
					}
				} else {
					_, err := d.TopK(rng.Intn(n), 5)
					fail(err)
				}
				// Generations move forward only.
				for {
					prev := lastGen.Load()
					gen := d.Generation()
					if gen < prev {
						t.Errorf("generation went backwards: %d -> %d", prev, gen)
						return
					}
					if gen == prev || lastGen.CompareAndSwap(prev, gen) {
						break
					}
				}
			}
		}(w)
	}
	for w := 0; w < 2; w++ { // updaters
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(100 + w)))
			for {
				select {
				case <-stop:
					return
				default:
				}
				if rng.Intn(2) == 0 {
					fail(d.AddEdge(rng.Intn(n), rng.Intn(n)))
				} else {
					fail(d.RemoveEdge(rng.Intn(n), rng.Intn(n)))
				}
			}
		}(w)
	}
	wg.Add(1)
	go func() { // flusher
		defer wg.Done()
		for {
			select {
			case <-stop:
				return
			default:
			}
			fail(d.StartFlush().Wait())
			time.Sleep(time.Millisecond)
		}
	}()

	time.Sleep(500 * time.Millisecond)
	close(stop)
	wg.Wait()
	if err := firstErr.Load(); err != nil {
		t.Fatal(err)
	}
	// Settle: one final flush must leave a consistent index.
	if err := d.Flush(); err != nil {
		t.Fatal(err)
	}
	if _, err := d.Query(0); err != nil {
		t.Fatal(err)
	}
}

// TestDynamicOnRebuildGetsIdentifiedEngine: a flush started with an
// OnRebuild hook registered identifies the new engine beside its
// calibration, before it takes the lock, so the hook (an executor's
// SwapEngine) reads no index bytes under Dynamic's lock. A flush with no
// hook identifies nothing.
func TestDynamicOnRebuildGetsIdentifiedEngine(t *testing.T) {
	identified := func(e *Engine) bool { // see qexec's identified
		defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		e.Internal().IndexHash()
		runtime.ReadMemStats(&after)
		return after.Mallocs == before.Mallocs
	}
	for _, hooked := range []bool{true, false} {
		d, err := NewDynamic(dynGraph(t))
		if err != nil {
			t.Fatal(err)
		}
		var handed []bool
		if hooked {
			d.OnRebuild(func(_ RebuildStatus, swapped *Engine) {
				if swapped != nil {
					handed = append(handed, identified(swapped))
				}
			})
		}
		if err := d.AddEdge(0, 3); err != nil {
			t.Fatal(err)
		}
		if err := d.Flush(); err != nil {
			t.Fatal(err)
		}
		if hooked && (len(handed) != 1 || !handed[0]) {
			t.Fatalf("OnRebuild was handed engines identified %v; want one, identified", handed)
		}
		if !hooked && identified(d.Engine()) {
			t.Fatal("a flush no hook follows identified its engine")
		}
	}
}
