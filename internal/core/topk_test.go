package core

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"slices"
	"sync"
	"testing"

	"bepi/internal/gen"
	"bepi/internal/graph"
)

// assertSameTopKSet fails unless bounded and full name the same node set.
// Order must match too: both paths rank with the same (score desc, id asc)
// total order, and the ordering among the exact set is part of the
// contract for full-tolerance results; for early-stopped results only the
// set is guaranteed, so order is checked just when requested.
func assertSameTopKSet(t *testing.T, tag string, full, bounded []Ranked, checkOrder bool) {
	t.Helper()
	if len(full) != len(bounded) {
		t.Fatalf("%s: size mismatch: full %d, bounded %d", tag, len(full), len(bounded))
	}
	fullSet := make(map[int]bool, len(full))
	for _, r := range full {
		fullSet[r.Node] = true
	}
	for _, r := range bounded {
		if !fullSet[r.Node] {
			t.Fatalf("%s: bounded returned node %d not in the full solve's top-k %v vs %v",
				tag, r.Node, bounded, full)
		}
	}
	if checkOrder {
		for i := range full {
			if full[i].Node != bounded[i].Node {
				t.Fatalf("%s: order mismatch at %d: full %v, bounded %v", tag, i, full, bounded)
			}
		}
	}
}

// TestTopKBoundedEquivalence is the exactness property test: on a skewed
// RMAT graph and on pathological near-uniform graphs (regular ring
// lattices, where scores tie and the bound can never separate them), the
// bounded search must return the identical top-k node set as Engine.TopK
// for every k in {1, 10, 100}, across seeds. Both are also held to the
// exact answer (ExactDense) through the full solve's proof radius ρ
// (proofRadius): a node whose exact score clears the exact k/(k+1)
// boundary by more than 2ρ must fall on the same side of it in the bounded
// set; a node within 2ρ is a real tie and may fall on either side. A seed
// whose restart never reaches the hubs has ρ = 0 and no Schur solve to stop
// early, so the skewed case moves each of its seeds to the first id at or
// after it whose reduced right-hand side q̃2 is nonzero (reachesHubs), and
// holds every one of them to ρ > 0.
func TestTopKBoundedEquivalence(t *testing.T) {
	cases := []struct {
		name    string
		g       *graph.Graph
		seeds   []int
		hubMass bool // move each seed to the first id at or after it that reachesHubs
	}{
		{name: "skewed-rmat", g: gen.RMAT(gen.DefaultRMAT(9, 8, 42)), seeds: []int{0, 7, 123, 400}, hubMass: true},
		// beta=0 Watts-Strogatz is a regular ring lattice: every node is
		// symmetric, scores are near-uniform with massive tie classes — the
		// adversarial case for a gap test.
		{name: "near-uniform-ring", g: gen.WattsStrogatz(300, 6, 0, 7), seeds: []int{0, 149}},
	}

	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			e, err := Preprocess(tc.g, Options{Variant: VariantFull, HubRatio: 0.2})
			if err != nil {
				t.Fatalf("Preprocess: %v", err)
			}
			if err := e.CalibrateBound(); err != nil {
				t.Fatalf("CalibrateBound: %v", err)
			}
			sawEarlyStop, ties := false, 0
			var used []int
			for _, seed := range tc.seeds {
				for tc.hubMass && !reachesHubs(e, seed) {
					seed++
				}
				used = append(used, seed)
				exact, err := ExactDense(tc.g, DefaultC, seed)
				if err != nil {
					t.Fatal(err)
				}
				r, _, err := e.Query(seed)
				if err != nil {
					t.Fatal(err)
				}
				rho := proofRadius(e, seed, r)
				if tc.hubMass && !(rho > 0) {
					t.Fatalf("seed %d: proof radius %v, want > 0 — its solve checks no bounded stop", seed, rho)
				}
				for _, k := range []int{1, 10, 100} {
					full, err := e.TopK(seed, k)
					if err != nil {
						t.Fatalf("TopK(%d,%d): %v", seed, k, err)
					}
					bounded, stats, err := e.TopKBounded(seed, k)
					if err != nil {
						t.Fatalf("TopKBounded(%d,%d): %v", seed, k, err)
					}
					tag := fmt.Sprintf("seed %d k %d (early=%v checks=%d bound=%.3g gap=%.3g)",
						seed, k, stats.EarlyStopped, stats.BoundChecks, stats.Bound, stats.Gap)
					assertSameTopKSet(t, tag, full, bounded, !stats.EarlyStopped)
					if !stats.EarlyStopped {
						// A fallback solve runs the identical arithmetic as
						// the full path: scores must match bitwise.
						for i := range full {
							if math.Float64bits(full[i].Score) != math.Float64bits(bounded[i].Score) {
								t.Fatalf("%s: fallback score differs at %d: %v vs %v",
									tag, i, full[i], bounded[i])
							}
						}
					}
					ties += assertExactSides(t, tag, exact, bounded, seed, k, 2*rho+1e-12)
					sawEarlyStop = sawEarlyStop || stats.EarlyStopped
				}
			}
			t.Logf("seeds %v: %d nodes within 2ρ of a k/(k+1) boundary, unreached zero-score nodes included", used, ties)
			if tc.name == "skewed-rmat" && !sawEarlyStop {
				t.Fatalf("bounded search never early-stopped on the skewed graph — the fast path is dead")
			}
		})
	}
}

// reachesHubs reports whether a unit restart at seed puts mass on the hubs:
// whether its reduced right-hand side q̃2 = q2 − H21·H11⁻¹·q1, which the
// Schur solve starts from, has a nonzero entry.
func reachesHubs(e *Engine, seed int) bool {
	ws := e.newWorkspace()
	e.permute(ws, ws.unitQuery(seed))
	e.forward(ws)
	for _, v := range ws.qt2 {
		if v != 0 {
			return true
		}
	}
	return false
}

// assertExactSides fails unless every node (seed excluded) whose exact
// score clears the exact k/(k+1) boundary by more than margin falls on the
// same side of it in the bounded set. It returns how many nodes lie within
// margin — real ties, accepted on either side.
func assertExactSides(t *testing.T, tag string, exact []float64, bounded []Ranked, seed, k int, margin float64) int {
	t.Helper()
	top := RankTopK(exact, k+1, seed)
	if len(top) <= k {
		return 0
	}
	kth, next := top[k-1].Score, top[k].Score
	in := make(map[int]bool, len(bounded))
	for _, r := range bounded {
		in[r.Node] = true
	}
	ties := 0
	for u, x := range exact {
		switch {
		case u == seed:
		case x-next > margin && !in[u]:
			t.Fatalf("%s: node %d scores %.6g, above the (k+1)-th exact score %.6g by more than %.3g, yet is not in the bounded set",
				tag, u, x, next, margin)
		case kth-x > margin && in[u]:
			t.Fatalf("%s: node %d scores %.6g, below the k-th exact score %.6g by more than %.3g, yet is in the bounded set",
				tag, u, x, kth, margin)
		case x-next <= margin && kth-x <= margin:
			ties++
		}
	}
	return ties
}

// TestTopKBoundedParallelPool runs bounded queries concurrently on a
// pooled engine — the -race configuration the serving path uses, with the
// lazily calibrated bound factor racing across goroutines on purpose.
func TestTopKBoundedParallelPool(t *testing.T) {
	g := gen.RMAT(gen.DefaultRMAT(8, 6, 23))
	e, err := Preprocess(g, Options{Variant: VariantFull, HubRatio: 0.2, Parallelism: 4})
	if err != nil {
		t.Fatalf("Preprocess: %v", err)
	}
	var wg sync.WaitGroup
	errCh := make(chan error, 64)
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 4; i++ {
				seed := (w*31 + i*7) % e.N()
				k := []int{1, 10, 100}[i%3]
				full, err := e.TopK(seed, k)
				if err != nil {
					errCh <- err
					return
				}
				bounded, _, err := e.TopKBounded(seed, k)
				if err != nil {
					errCh <- err
					return
				}
				if len(full) != len(bounded) {
					errCh <- fmt.Errorf("seed %d k %d: %d vs %d results", seed, k, len(full), len(bounded))
					return
				}
				set := map[int]bool{}
				for _, r := range full {
					set[r.Node] = true
				}
				for _, r := range bounded {
					if !set[r.Node] {
						errCh <- fmt.Errorf("seed %d k %d: node %d not in full top-k", seed, k, r.Node)
						return
					}
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

// TestRankTopKTieBreak pins the deterministic tie order: equal scores
// rank by ascending node id, regardless of heap internals or input size.
func TestRankTopKTieBreak(t *testing.T) {
	scores := []float64{0.5, 0.9, 0.5, 0.9, 0.5, 0.1, 0.9}
	got := RankTopK(scores, 5, -1)
	want := []Ranked{{1, 0.9}, {3, 0.9}, {6, 0.9}, {0, 0.5}, {2, 0.5}}
	if len(got) != len(want) {
		t.Fatalf("got %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("position %d: got %v, want %v", i, got[i], want[i])
		}
	}
	// The exported comparator must agree with the ranking order.
	for i := 0; i+1 < len(got); i++ {
		if !got[i].Outranks(got[i+1]) {
			t.Fatalf("Outranks disagrees with ranking at %d: %v vs %v", i, got[i], got[i+1])
		}
		if got[i+1].Outranks(got[i]) {
			t.Fatalf("Outranks not antisymmetric at %d", i)
		}
	}
}

// TestTopKBoundedStats sanity-checks the reported stats: an early stop
// must carry a positive certified bound, a larger gap, and a savings
// estimate; iteration counts must undercut the full solve.
func TestTopKBoundedStats(t *testing.T) {
	g := gen.RMAT(gen.DefaultRMAT(9, 8, 99))
	e, err := Preprocess(g, Options{Variant: VariantFull, HubRatio: 0.2})
	if err != nil {
		t.Fatalf("Preprocess: %v", err)
	}
	if err := e.CalibrateBound(); err != nil {
		t.Fatalf("CalibrateBound: %v", err)
	}
	var early *TopKStats
	var earlySeed int
	for seed := 0; seed < 32 && early == nil; seed++ {
		_, stats, err := e.TopKBounded(seed, 10)
		if err != nil {
			t.Fatalf("TopKBounded(%d): %v", seed, err)
		}
		if stats.EarlyStopped {
			s := stats
			early, earlySeed = &s, seed
		}
	}
	if early == nil {
		t.Fatalf("no early stop across 32 seeds on a skewed graph")
	}
	if early.Bound <= 0 || early.Gap <= 2*early.Bound {
		t.Fatalf("early stop without a valid certificate: bound=%v gap=%v", early.Bound, early.Gap)
	}
	if early.BoundChecks <= 0 {
		t.Fatalf("early stop with zero bound checks")
	}
	if early.SavedIters <= 0 {
		t.Fatalf("early stop reports no saved iterations")
	}
	_, fullStats, qerr := e.Query(earlySeed)
	if qerr != nil {
		t.Fatalf("Query: %v", qerr)
	}
	if early.Iterations >= fullStats.Iterations {
		t.Fatalf("early stop used %d iterations, full solve %d", early.Iterations, fullStats.Iterations)
	}
}

// TestCalibrationAllocBudget pins what one calibration allocates on the
// scale-12 hybrid fixture once the engine has a workspace on its free list
// (the one Query leaves there): the reference scores and the captured
// iterates' coefficients; the solver's bookkeeping and the Krylov images
// the iterates are assembled from live in the workspace. It used to
// allocate 1.70 MB in 299 objects here, 11.2 MB in 731 at scale 15: a fresh
// workspace, two n-vectors, and two copies of each of ≈ 40 captured
// iterates (the solver's assembly and the probe's own); then 544 KB in 170
// objects while GMRES allocated its bookkeeping per solve; then 245 KB in
// 50 while it copied each captured iterate into a store. The budgets are
// the measured 48 KB / 7 objects plus about 15%; the best of five runs is
// taken, so a collection mid-run does not count.
func TestCalibrationAllocBudget(t *testing.T) {
	e, err := Preprocess(gen.Hybrid(gen.DefaultHybrid(12, 14, 1)), Options{})
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := e.Query(0); err != nil {
		t.Fatal(err)
	}
	want, err := e.computeTopKFactor()
	if err != nil {
		t.Fatal(err)
	}
	objects, bytes := ^uint64(0), ^uint64(0)
	for run := 0; run < 5; run++ {
		var before, after runtime.MemStats
		runtime.GC()
		runtime.ReadMemStats(&before)
		f, err := e.computeTopKFactor()
		runtime.ReadMemStats(&after)
		if err != nil || math.Float64bits(f) != math.Float64bits(want) {
			t.Fatalf("run %d: factor %v (%v), the first run's %v", run, f, err, want)
		}
		objects = min(objects, after.Mallocs-before.Mallocs)
		bytes = min(bytes, after.TotalAlloc-before.TotalAlloc)
	}
	t.Logf("calibration: %d objects, %d B (n = %d, n2 = %d)", objects, bytes, e.n, e.ord.n2)
	if bytes > 54<<10 {
		t.Errorf("calibration allocated %d B, budget 54 KiB", bytes)
	}
	if objects > 8 {
		t.Errorf("calibration allocated %d objects, budget 8", objects)
	}
}

// TestPatchedEngineCalibratesItself: ApplyDelta's engine carries no factor
// from its parent — it reports itself uncalibrated until it calibrates —
// and once calibrated it answers TopKBounded bit-identically, iterations
// included, to a fresh build of the same graph under the same ordering.
func TestPatchedEngineCalibratesItself(t *testing.T) {
	g := gen.Hybrid(gen.DefaultHybrid(11, 14, 1))
	e, err := Preprocess(g, Options{HubRatio: 0.2})
	if err != nil {
		t.Fatal(err)
	}
	if e.BoundCalibrated() {
		t.Fatal("a fresh build reports its bound calibrated")
	}
	if err := e.CalibrateBound(); err != nil || !e.BoundCalibrated() {
		t.Fatalf("CalibrateBound: %v, calibrated %v", err, e.BoundCalibrated())
	}
	ops := genHubDeltaOps(rand.New(rand.NewSource(5)), g, e, 4)
	gNew := applyOpsToGraph(g, g.N(), ops)
	ne, st, err := e.ApplyDelta(gNew, ops)
	if err != nil || st.Class != DeltaHub {
		t.Fatalf("ApplyDelta: class %v, %v", st.Class, err)
	}
	if ne.BoundCalibrated() {
		t.Fatal("the patched engine reports the parent's calibration as its own")
	}
	ref, err := PreprocessWithOrdering(gNew, ne.opts, ne.Ordering())
	if err != nil {
		t.Fatal(err)
	}
	for _, x := range []*Engine{ne, ref} {
		if err := x.CalibrateBound(); err != nil {
			t.Fatal(err)
		}
	}
	if math.Float64bits(ne.tkFactor) != math.Float64bits(ref.tkFactor) {
		t.Fatalf("factor %v, a fresh build under the same ordering %v", ne.tkFactor, ref.tkFactor)
	}
	early := 0
	for seed := 0; seed < g.N(); seed += 97 {
		got, gs, err := ne.TopKBounded(seed, 10)
		if err != nil {
			t.Fatal(err)
		}
		want, ws, err := ref.TopKBounded(seed, 10)
		if err != nil {
			t.Fatal(err)
		}
		if !slices.Equal(got, want) || gs.Iterations != ws.Iterations || gs.EarlyStopped != ws.EarlyStopped {
			t.Fatalf("seed %d: patched %v (%d iterations, early %v), fresh %v (%d, %v)",
				seed, got, gs.Iterations, gs.EarlyStopped, want, ws.Iterations, ws.EarlyStopped)
		}
		if gs.EarlyStopped {
			early++
		}
	}
	if early == 0 {
		t.Fatal("test setup: no seed stopped early, so the factor went unused")
	}
}

// TestEarlyStopRunsOneHalfPass reads the kernel counters of bounded solves
// on the scale-12 fixture. A probed solve keeps every basis vector's image
// Û⁻¹·v_j, so each operator application streams 8·n2 bytes more than
// MulVec's. An early-stopped one returns the iterate its resolving check
// assembled from those images and runs one half-pass, Left; a solve that
// runs to tolerance still maps its answer through Û⁻¹ (Right), and a
// query without a probe keeps no images.
func TestEarlyStopRunsOneHalfPass(t *testing.T) {
	e, err := Preprocess(gen.Hybrid(gen.DefaultHybrid(12, 14, 1)), Options{})
	if err != nil {
		t.Fatal(err)
	}
	if err := e.CalibrateBound(); err != nil {
		t.Fatal(err)
	}
	mulB, leftB, rightB := e.ilu.Eisenstat().TrafficBytes()
	image := int64(8 * e.ord.n2)
	early, full := 0, 0
	for seed := 0; seed < e.n && (early < 6 || full < 2); seed++ {
		_, st, err := e.TopKBounded(seed, [2]int{10, 1000}[seed%2])
		if err != nil {
			t.Fatal(err)
		}
		if st.Iterations == 0 {
			continue // a dead end: nothing is solved
		}
		want := KernelStats{SchurApplies: st.Iterations, PrecondApplies: 2,
			Bytes: int64(st.Iterations)*(mulB+image) + leftB + rightB}
		if st.EarlyStopped {
			want.PrecondApplies, want.Bytes = 1, want.Bytes-rightB
			early++
		} else {
			full++
		}
		got := st.Kernels
		got.SchurTime, got.PrecondTime = 0, 0
		if got != want {
			t.Fatalf("seed %d (early stop %v, %d iterations): kernel counters %+v, want %+v",
				seed, st.EarlyStopped, st.Iterations, got, want)
		}
	}
	if early == 0 || full == 0 {
		t.Fatalf("%d early-stopped and %d full-tolerance bounded solves: the fixture must show both", early, full)
	}
	_, st, err := e.Query(100)
	if err != nil {
		t.Fatal(err)
	}
	if want := int64(st.Iterations)*mulB + leftB + rightB; st.Kernels.Bytes != want || st.Kernels.PrecondApplies != 2 {
		t.Fatalf("a query streamed %d B in %d half-passes, want %d B in 2: it keeps no images",
			st.Kernels.Bytes, st.Kernels.PrecondApplies, want)
	}
}

// TestTopKBoundedRanksFromCheck: an early-stopped search ranks from its
// resolving check's candidates, and returns exactly what RankTopK over the
// unpermuted score vector returns — nodes, order and score bits — both
// through TopKBounded and through TopKBoundedWS, whose vector it is, on a
// split solve, which keeps its Krylov images, and on an unpreconditioned
// one, which keeps none.
func TestTopKBoundedRanksFromCheck(t *testing.T) {
	for _, v := range []Variant{VariantFull, VariantB} {
		e, err := Preprocess(gen.Hybrid(gen.DefaultHybrid(11, 14, 1)), Options{Variant: v})
		if err != nil {
			t.Fatal(err)
		}
		q := make([]float64, e.n)
		early := 0
		for seed := 0; seed < e.n && early < 20; seed += 7 {
			for _, k := range []int{1, 10, 50} {
				got, st, err := e.TopKBounded(seed, k)
				if err != nil {
					t.Fatal(err)
				}
				q[seed] = 1
				gotWS, r, wst, err := e.TopKBoundedWS(context.Background(), q, seed, k)
				q[seed] = 0
				if err != nil {
					t.Fatal(err)
				}
				if st.EarlyStopped != wst.EarlyStopped || st.Iterations != wst.Iterations {
					t.Fatalf("%v seed %d k %d: TopKBounded stopped early %v after %d iterations, TopKBoundedWS %v after %d",
						v, seed, k, st.EarlyStopped, st.Iterations, wst.EarlyStopped, wst.Iterations)
				}
				want := RankTopK(r, k, seed)
				if !slices.Equal(got, want) || !slices.Equal(gotWS, want) {
					t.Fatalf("%v seed %d k %d (early stop %v): TopKBounded %v, TopKBoundedWS %v, RankTopK over its vector %v",
						v, seed, k, st.EarlyStopped, got, gotWS, want)
				}
				if st.EarlyStopped {
					early++
				}
			}
		}
		if early == 0 {
			t.Fatalf("%v: no bounded search stopped early: the check's ranking went untested", v)
		}
	}
}
