package bepi

import (
	"fmt"
	"io"
	"math"
	"math/rand"
	"runtime"
	"strings"
	"testing"
	"time"

	"bepi/internal/qexec"
	"bepi/internal/vec"
)

// TestDynamicPendingAfterAddNodeCountsGrowth is the regression test for the
// AddNode bookkeeping bug: a node added with no buffered edges is pending
// work — the next flush must rebuild to make it queryable — but Pending
// reported 0, so callers gating Flush on Pending() > 0 never flushed.
func TestDynamicPendingAfterAddNodeCountsGrowth(t *testing.T) {
	d, err := NewDynamic(dynGraph(t))
	if err != nil {
		t.Fatal(err)
	}
	id := d.AddNode()
	if got := d.Pending(); got == 0 {
		t.Fatal("Pending() = 0 after AddNode; node growth is unflushed work")
	} else if got != 1 {
		t.Fatalf("Pending() = %d after one AddNode, want 1", got)
	}
	if err := d.Flush(); err != nil {
		t.Fatal(err)
	}
	if got := d.Pending(); got != 0 {
		t.Fatalf("Pending() = %d after flush, want 0", got)
	}
	if d.Engine().N() != 7 {
		t.Fatalf("engine covers %d nodes after flush, want 7", d.Engine().N())
	}
	// Pure node growth reuses the ordering: the cheap delta path, exactly.
	st := d.LastRebuild().Status()
	if st.Mode != RebuildModeDeltaSpoke {
		t.Fatalf("growth-only flush mode = %q, want %q", st.Mode, RebuildModeDeltaSpoke)
	}
	r, err := d.Query(id)
	if err != nil {
		t.Fatal(err)
	}
	if r[id] <= 0 {
		t.Fatal("new node got no restart mass")
	}
}

// TestDynamicRunningStatusGeneration is the regression test for the
// generation-sentinel bug: RebuildStatus used Generation == 0 to mean
// "still running", so pollers could not tell which index was serving their
// queries mid-rebuild. A running status must report the generation the
// rebuild started from, with State — not a zero sentinel — carrying the
// lifecycle phase.
func TestDynamicRunningStatusGeneration(t *testing.T) {
	d, err := NewDynamic(dynGraph(t))
	if err != nil {
		t.Fatal(err)
	}
	gate := make(chan struct{})
	d.testRebuildGate = gate
	if err := d.AddEdge(0, 5); err != nil {
		t.Fatal(err)
	}
	r := d.StartFlush()
	st := r.Status()
	if st.State != RebuildRunning {
		t.Fatalf("state = %q, want running", st.State)
	}
	if st.Generation != 1 {
		t.Fatalf("running status Generation = %d, want the serving generation 1", st.Generation)
	}
	if st.Mode != "" {
		t.Fatalf("running status Mode = %q, want empty until settled", st.Mode)
	}
	close(gate)
	if err := r.Wait(); err != nil {
		t.Fatal(err)
	}
	st = r.Status()
	if st.State != RebuildDone || st.Generation != 2 {
		t.Fatalf("settled status = %+v, want done at generation 2", st)
	}
	if st.Mode == "" || st.Mode == RebuildModeNoop {
		t.Fatalf("settled status Mode = %q, want a rebuild mode", st.Mode)
	}
}

// TestDynamicRunningStatusApplied: a running rebuild's status counts the
// buffered updates it folds in, as the settled one does, so the answer to
// a flush (taken while the rebuild runs) does not read 0.
func TestDynamicRunningStatusApplied(t *testing.T) {
	d, err := NewDynamic(dynGraph(t))
	if err != nil {
		t.Fatal(err)
	}
	gate := make(chan struct{})
	d.testRebuildGate = gate
	if err := d.AddEdge(0, 5); err != nil {
		t.Fatal(err)
	}
	r := d.StartFlush()
	st := r.Status()
	close(gate)
	if st.State != RebuildRunning || st.Applied != 1 {
		t.Fatalf("running status = %+v, want running with Applied 1", st)
	}
	if err := r.Wait(); err != nil {
		t.Fatal(err)
	}
	if st := r.Status(); st.Applied != 1 {
		t.Fatalf("settled status Applied = %d, want 1", st.Applied)
	}
}

// TestDynamicFailedRebuildRenormalizesBuffer pins the failure path: when a
// rebuild fails, the consumed buffer is restored (newer mid-rebuild ops
// winning) and then re-normalized against the still-serving edge set, so
// no-op updates buffered during the doomed rebuild cannot linger as
// phantom pending work.
func TestDynamicFailedRebuildRenormalizesBuffer(t *testing.T) {
	d, err := NewDynamic(dynGraph(t))
	if err != nil {
		t.Fatal(err)
	}
	// Make the next full rebuild fail. The op below is a new node with an
	// out-edge — structurally impossible for the delta path — so the flush
	// must take the full pipeline and hit the absurd budget.
	d.opts = append(d.opts, WithMemoryBudget(1))
	id := d.AddNode()
	if err := d.AddEdge(id, 0); err != nil {
		t.Fatal(err)
	}
	gate := make(chan struct{})
	d.testRebuildGate = gate
	r := d.StartFlush()
	// Mid-rebuild: buffer a no-op (edge 0→1 already serves). The in-flight
	// rebuild suppresses buffer-time cancellation, so only the settle-time
	// re-normalization can clear it.
	if err := d.AddEdge(0, 1); err != nil {
		t.Fatal(err)
	}
	close(gate)
	if err := r.Wait(); err == nil {
		t.Fatal("rebuild with 1-byte budget succeeded; want failure")
	}
	if d.Generation() != 1 {
		t.Fatalf("generation = %d after failed rebuild, want 1", d.Generation())
	}
	d.mu.RLock()
	_, phantom := d.pending[[2]int{0, 1}]
	_, restored := d.pending[[2]int{id, 0}]
	d.mu.RUnlock()
	if phantom {
		t.Fatal("no-op buffered mid-rebuild survived the failure re-normalization")
	}
	if !restored {
		t.Fatal("real op consumed by the failed rebuild was not restored")
	}
	// One real edge op plus one unflushed node.
	if got := d.Pending(); got != 2 {
		t.Fatalf("Pending() = %d after failed rebuild, want 2", got)
	}
	// Recovery: lift the budget and flush for real.
	d.opts = d.opts[:len(d.opts)-1]
	d.testRebuildGate = nil
	if err := d.Flush(); err != nil {
		t.Fatal(err)
	}
	if _, err := d.Query(id); err != nil {
		t.Fatal(err)
	}
}

// TestDynamicDeltaRebuildModes runs the incremental path end to end through
// Dynamic: edge deletions (whose sources are by construction inside the
// reused ordering) flush via a delta mode and answer identically to a fresh
// engine; a structural change falls back to the full pipeline.
func TestDynamicDeltaRebuildModes(t *testing.T) {
	g := RMAT(7, 5, 3)
	d, err := NewDynamic(g, WithTolerance(1e-10))
	if err != nil {
		t.Fatal(err)
	}
	// Delete three edges whose sources keep at least one out-edge.
	removed := make(map[[2]int]bool)
	for _, e := range g.Edges() {
		if len(removed) == 3 {
			break
		}
		if g.OutDegree(e.Src) >= 2 && !removed[[2]int{e.Src, e.Dst}] {
			removed[[2]int{e.Src, e.Dst}] = true
			if err := d.RemoveEdge(e.Src, e.Dst); err != nil {
				t.Fatal(err)
			}
		}
	}
	if d.Pending() != len(removed) {
		t.Fatalf("Pending() = %d, want %d", d.Pending(), len(removed))
	}
	if err := d.Flush(); err != nil {
		t.Fatal(err)
	}
	st := d.LastRebuild().Status()
	if st.Mode != RebuildModeDeltaSpoke && st.Mode != RebuildModeDeltaHub {
		t.Fatalf("deletion flush mode = %q, want a delta mode", st.Mode)
	}
	if st.Applied != len(removed) || st.Generation != 2 {
		t.Fatalf("status = %+v, want %d applied at generation 2", st, len(removed))
	}

	// The delta-built index must answer like a from-scratch engine.
	var kept []Edge
	for _, e := range g.Edges() {
		if !removed[[2]int{e.Src, e.Dst}] {
			kept = append(kept, e)
		}
	}
	gNew, err := NewGraph(g.N(), kept)
	if err != nil {
		t.Fatal(err)
	}
	fresh, err := New(gNew, WithTolerance(1e-10))
	if err != nil {
		t.Fatal(err)
	}
	for _, seed := range []int{0, 1, g.N() / 2} {
		got, err := d.Query(seed)
		if err != nil {
			t.Fatal(err)
		}
		want, err := fresh.Query(seed)
		if err != nil {
			t.Fatal(err)
		}
		if dist := vec.Dist2(got, want); dist > 1e-7 {
			t.Fatalf("seed %d: delta-flushed index off by %v", seed, dist)
		}
	}
	if st.Fallback != "" {
		t.Fatalf("absorbed delta reports a fallback reason %q", st.Fallback)
	}

	// Re-inserting the same edges rides the delta path too (the entries
	// lived inside the current ordering's blocks before).
	for e := range removed {
		if err := d.AddEdge(e[0], e[1]); err != nil {
			t.Fatal(err)
		}
	}
	if err := d.Flush(); err != nil {
		t.Fatal(err)
	}
	st = d.LastRebuild().Status()
	if st.Mode != RebuildModeDeltaSpoke && st.Mode != RebuildModeDeltaHub {
		t.Fatalf("re-insertion flush mode = %q, want a delta mode", st.Mode)
	}

	// A new node with an out-edge cannot reuse the ordering: full pipeline.
	id := d.AddNode()
	if err := d.AddEdge(id, 0); err != nil {
		t.Fatal(err)
	}
	if err := d.Flush(); err != nil {
		t.Fatal(err)
	}
	if st = d.LastRebuild().Status(); st.Mode != RebuildModeFull || !strings.Contains(st.Fallback, "has out-edges") {
		t.Fatalf("structural flush mode = %q, reason %q; want full because the new node has out-edges", st.Mode, st.Fallback)
	}
	if d.Generation() != 4 {
		t.Fatalf("generation = %d, want 4", d.Generation())
	}
}

// TestDynamicFallbackReason: a flush that falls back to the full pipeline
// says why. A leaf batch with an edge between two H11 blocks reports mode
// full and ApplyDelta's own reason; a hub batch is absorbed and reports
// none.
func TestDynamicFallbackReason(t *testing.T) {
	g := RMAT(8, 6, 17)
	d, err := NewDynamic(g)
	if err != nil {
		t.Fatal(err)
	}
	ord := d.Engine().Internal().Ordering()
	if len(ord.Blocks) < 2 || ord.N2 == 0 {
		t.Fatalf("fixture has %d H11 blocks and %d hubs; want at least 2 and 1", len(ord.Blocks), ord.N2)
	}
	// Spokes are numbered block by block, so the first and the last spoke
	// sit in different blocks.
	u, v := ord.Inv[0], ord.Inv[ord.N1-1]
	if err := d.AddEdge(u, v); err != nil {
		t.Fatal(err)
	}
	if err := d.Flush(); err != nil {
		t.Fatal(err)
	}
	st := d.LastRebuild().Status()
	if st.Mode != RebuildModeFull || !strings.Contains(st.Fallback, "crosses H11 blocks") {
		t.Fatalf("block-crossing batch: mode %q, reason %q; want full with a \"crosses H11 blocks\" reason", st.Mode, st.Fallback)
	}

	// The full rebuild re-ran SlashBurn: pick the hub from the new ordering.
	ord = d.Engine().Internal().Ordering()
	hub := ord.Inv[ord.N1]
	dst := 0
	for d.graph.HasEdge(hub, dst) {
		dst++
	}
	if err := d.AddEdge(hub, dst); err != nil {
		t.Fatal(err)
	}
	if err := d.Flush(); err != nil {
		t.Fatal(err)
	}
	if st = d.LastRebuild().Status(); st.Mode != RebuildModeDeltaHub || st.Fallback != "" {
		t.Fatalf("hub batch: mode %q, reason %q; want delta-hub and no reason", st.Mode, st.Fallback)
	}
}

// TestDynamicFallbackIsDeterministic: a delta with two ops ApplyDelta
// refuses — two new nodes, each with an out-edge — names the same one, the
// smaller source, on every flush. The ops come out of a map; taken in the
// map's order, the named node changed from run to run.
func TestDynamicFallbackIsDeterministic(t *testing.T) {
	g := RMAT(8, 6, 17)
	var first string
	for run := 0; run < 20; run++ {
		d, err := NewDynamic(g)
		if err != nil {
			t.Fatal(err)
		}
		a, b := d.AddNode(), d.AddNode()
		for _, u := range []int{a, b} {
			if err := d.AddEdge(u, 0); err != nil {
				t.Fatal(err)
			}
		}
		if err := d.Flush(); err != nil {
			t.Fatal(err)
		}
		st := d.LastRebuild().Status()
		if st.Mode != RebuildModeFull || !strings.Contains(st.Fallback, fmt.Sprintf("new node %d has out-edges", a)) {
			t.Fatalf("run %d: mode %q, reason %q; want full, naming new node %d", run, st.Mode, st.Fallback, a)
		}
		if run == 0 {
			first = st.Fallback
		} else if st.Fallback != first {
			t.Fatalf("run %d: reason %q, run 0 gave %q", run, st.Fallback, first)
		}
	}
}

// TestDynamicRandomInterleavingMatchesFreshBuild drives Dynamic with a
// seeded random interleaving of AddEdge / RemoveEdge / AddNode / Flush and
// checks, after every flush, that the serving index agrees with a fresh
// bepi.New of a naively maintained edge set (L1 ≤ 1e-6, equal top-10 sets)
// and can be saved — whatever mix of delta and full rebuilds led to it.
func TestDynamicRandomInterleavingMatchesFreshBuild(t *testing.T) {
	g := RMAT(7, 5, 3)
	d, err := NewDynamic(g)
	if err != nil {
		t.Fatal(err)
	}
	edges := make(map[Edge]bool, g.M())
	for _, e := range g.Edges() {
		edges[e] = true
	}
	n := g.N()
	rng := rand.New(rand.NewSource(20170514))
	modes := map[RebuildMode]int{}
	check := func(step int) {
		t.Helper()
		if err := d.Flush(); err != nil {
			t.Fatalf("step %d: flush: %v", step, err)
		}
		modes[d.LastRebuild().Status().Mode]++
		list := make([]Edge, 0, len(edges))
		for e := range edges {
			list = append(list, e)
		}
		gNow, err := NewGraph(n, list)
		if err != nil {
			t.Fatal(err)
		}
		fresh, err := New(gNow)
		if err != nil {
			t.Fatal(err)
		}
		for _, seed := range []int{0, rng.Intn(n), n - 1} {
			got, err := d.Query(seed)
			if err != nil {
				t.Fatalf("step %d seed %d: %v", step, seed, err)
			}
			want, err := fresh.Query(seed)
			if err != nil {
				t.Fatal(err)
			}
			var l1 float64
			for i := range want {
				l1 += math.Abs(got[i] - want[i])
			}
			if l1 > 1e-6 {
				t.Fatalf("step %d seed %d: L1 distance to a fresh build %v", step, seed, l1)
			}
			top, err := d.TopK(seed, 10)
			if err != nil {
				t.Fatal(err)
			}
			wantTop, err := fresh.TopK(seed, 10)
			if err != nil {
				t.Fatal(err)
			}
			in := make(map[int]bool, len(wantTop))
			for _, r := range wantTop {
				in[r.Node] = true
			}
			for _, r := range top {
				if !in[r.Node] {
					t.Fatalf("step %d seed %d: top-10 %v, a fresh build ranks %v", step, seed, top, wantTop)
				}
			}
		}
		if err := d.Engine().Save(io.Discard); err != nil {
			t.Fatalf("step %d: Save: %v", step, err)
		}
	}
	for step := 0; step < 40; step++ {
		switch op := rng.Intn(10); {
		case op < 4:
			e := Edge{Src: rng.Intn(n), Dst: rng.Intn(n)}
			if err := d.AddEdge(e.Src, e.Dst); err != nil {
				t.Fatal(err)
			}
			edges[e] = true
		case op < 7:
			u := rng.Intn(n)
			if u >= d.graph.N() || d.graph.OutDegree(u) == 0 {
				continue
			}
			nbrs := d.graph.OutNeighbors(u)
			e := Edge{Src: u, Dst: nbrs[rng.Intn(len(nbrs))]}
			if err := d.RemoveEdge(e.Src, e.Dst); err != nil {
				t.Fatal(err)
			}
			delete(edges, e)
		case op < 8:
			d.AddNode()
			n++
		default:
			check(step)
		}
	}
	check(40)
	if modes[RebuildModeFull] == 0 || modes[RebuildModeDeltaSpoke]+modes[RebuildModeDeltaHub] == 0 {
		t.Fatalf("rebuild modes %v: the interleaving should exercise both the delta path and the full fallback", modes)
	}
}

// TestDynamicParallelismLeaksNoGoroutines: an index built WithParallelism(4)
// and an executor serving it go through ten full rebuilds and ten engine
// swaps without the process gaining goroutines — dedicated
// pools hold none between kernel calls.
func TestDynamicParallelismLeaksNoGoroutines(t *testing.T) {
	d, err := NewDynamic(RMAT(7, 5, 3), WithParallelism(4))
	if err != nil {
		t.Fatal(err)
	}
	x := qexec.New(d.Engine().Internal(), qexec.Config{Workers: 1})
	defer x.Close()
	before := runtime.NumGoroutine()
	for i := 0; i < 10; i++ {
		// A new node with an out-edge cannot reuse the ordering: full rebuild.
		id := d.AddNode()
		if err := d.AddEdge(id, 0); err != nil {
			t.Fatal(err)
		}
		if err := d.Flush(); err != nil {
			t.Fatal(err)
		}
		if mode := d.LastRebuild().Status().Mode; mode != RebuildModeFull {
			t.Fatalf("flush %d took mode %q, want full", i, mode)
		}
		x.SwapEngine(d.Engine().Internal())
	}
	// A settled rebuild's goroutine may still be returning.
	after := runtime.NumGoroutine()
	for deadline := time.Now().Add(2 * time.Second); after > before && time.Now().Before(deadline); after = runtime.NumGoroutine() {
		time.Sleep(10 * time.Millisecond)
	}
	if after > before {
		t.Fatalf("goroutines grew from %d to %d over ten rebuilds and swaps", before, after)
	}
}
