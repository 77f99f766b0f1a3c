package core

import (
	"context"
	"errors"
	"math"
	"math/rand"
	"testing"
	"testing/quick"
	"time"

	"bepi/internal/gen"
	"bepi/internal/graph"
	"bepi/internal/solver"
	"bepi/internal/vec"
)

// randGraph builds a random directed graph with some deadends.
func randGraph(rng *rand.Rand, n int) *graph.Graph {
	m := n + rng.Intn(4*n)
	edges := make([]graph.Edge, m)
	for i := range edges {
		edges[i] = graph.Edge{Src: rng.Intn(n), Dst: rng.Intn(n)}
	}
	// Force a few deadends by dropping out-edges of the last nodes.
	dead := 1 + n/10
	kept := edges[:0]
	for _, e := range edges {
		if e.Src < n-dead {
			kept = append(kept, e)
		}
	}
	return graph.MustNew(n, kept)
}

func engineFor(t *testing.T, g *graph.Graph, v Variant, k float64) *Engine {
	t.Helper()
	e, err := Preprocess(g, Options{Variant: v, HubRatio: k, Tol: 1e-11})
	if err != nil {
		t.Fatalf("Preprocess(%v): %v", v, err)
	}
	return e
}

func TestAllVariantsMatchExactDense(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for trial := 0; trial < 8; trial++ {
		n := 20 + rng.Intn(80)
		g := randGraph(rng, n)
		seed := rng.Intn(n)
		want, err := ExactDense(g, DefaultC, seed)
		if err != nil {
			t.Fatalf("trial %d: exact: %v", trial, err)
		}
		for _, v := range []Variant{VariantB, VariantS, VariantFull} {
			e := engineFor(t, g, v, 0.2)
			got, stats, err := e.Query(seed)
			if err != nil {
				t.Fatalf("trial %d %v: %v", trial, v, err)
			}
			if d := vec.Dist2(got, want); d > 1e-7 {
				t.Fatalf("trial %d %v: distance to exact %v (iters=%d)", trial, v, d, stats.Iterations)
			}
		}
	}
}

func TestBePIMatchesPowerIteration(t *testing.T) {
	g := gen.RMAT(gen.DefaultRMAT(9, 6, 5))
	e := engineFor(t, g, VariantFull, 0.2)
	at := RowNormalizedAdjacencyT(g)
	rng := rand.New(rand.NewSource(2))
	for trial := 0; trial < 5; trial++ {
		seed := rng.Intn(g.N())
		got, _, err := e.Query(seed)
		if err != nil {
			t.Fatal(err)
		}
		q := make([]float64, g.N())
		q[seed] = 1
		want, _, err := solver.PowerIteration(at, q, DefaultC, solver.PowerOptions{Tol: 1e-12, MaxIter: 5000})
		if err != nil {
			t.Fatal(err)
		}
		if d := vec.Dist2(got, want); d > 1e-7 {
			t.Fatalf("trial %d: BePI vs power distance %v", trial, d)
		}
	}
}

func TestPreconditioningReducesIterations(t *testing.T) {
	g := gen.RMAT(gen.DefaultRMAT(10, 8, 3))
	plain := engineFor(t, g, VariantS, 0.2)
	cond := engineFor(t, g, VariantFull, 0.2)
	rng := rand.New(rand.NewSource(3))
	var itPlain, itCond int
	for trial := 0; trial < 5; trial++ {
		seed := rng.Intn(g.N())
		_, sp, err := plain.Query(seed)
		if err != nil {
			t.Fatal(err)
		}
		_, sc, err := cond.Query(seed)
		if err != nil {
			t.Fatal(err)
		}
		itPlain += sp.Iterations
		itCond += sc.Iterations
	}
	if itCond >= itPlain {
		t.Fatalf("preconditioned iterations %d >= plain %d", itCond, itPlain)
	}
}

func TestQueryVectorMultiSeedPPR(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	g := randGraph(rng, 60)
	e := engineFor(t, g, VariantFull, 0.2)
	// PPR with two seeds = average of the two single-seed solutions
	// (linearity of H r = c q).
	s1, s2 := 3, 41
	q := make([]float64, g.N())
	q[s1], q[s2] = 0.5, 0.5
	got, _, err := e.QueryVector(q)
	if err != nil {
		t.Fatal(err)
	}
	r1, _, err := e.Query(s1)
	if err != nil {
		t.Fatal(err)
	}
	r2, _, err := e.Query(s2)
	if err != nil {
		t.Fatal(err)
	}
	for i := range got {
		want := 0.5*r1[i] + 0.5*r2[i]
		if math.Abs(got[i]-want) > 1e-8 {
			t.Fatalf("PPR[%d] = %v, want %v", i, got[i], want)
		}
	}
}

func TestQueryErrors(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	g := randGraph(rng, 30)
	e := engineFor(t, g, VariantFull, 0.2)
	if _, _, err := e.Query(-1); err == nil {
		t.Fatal("expected error for negative seed")
	}
	if _, _, err := e.Query(g.N()); err == nil {
		t.Fatal("expected error for out-of-range seed")
	}
	if _, _, err := e.QueryVector(make([]float64, 3)); err == nil {
		t.Fatal("expected error for wrong-length query vector")
	}
}

// TestQueryContextCancel checks the caller's context reaches the query — a
// canceled one carries its context error — and that a refused query (wrong
// length, canceled) leaves the workspace fit for the next one.
func TestQueryContextCancel(t *testing.T) {
	g := gen.RMAT(gen.DefaultRMAT(7, 5, 13))
	e, err := Preprocess(g, Options{})
	if err != nil {
		t.Fatal(err)
	}
	q := make([]float64, e.N())
	q[1] = 1
	ws := e.newWorkspace()
	query := func(ctx context.Context, q []float64) ([]float64, error) {
		r, _, err := e.queryOn(ws, q, solver.GMRESOptions{Ctx: ctx})
		return r, err
	}
	want, err := query(context.Background(), q)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if r, err := query(ctx, q); !errors.Is(err, context.Canceled) || r != nil {
		t.Fatalf("canceled query returned (%v, %v), want its context error", r != nil, err)
	}
	if r, _, err := e.QueryVectorWS(ctx, q); !errors.Is(err, context.Canceled) || r != nil {
		t.Fatalf("canceled QueryVectorWS returned (%v, %v), want its context error", r != nil, err)
	}
	if r, err := query(context.Background(), make([]float64, e.N()+3)); err == nil || r != nil {
		t.Fatal("length-mismatched query should fail")
	}
	got, err := query(context.Background(), q)
	if err != nil {
		t.Fatal(err)
	}
	if !bitsEqual(got, want) {
		t.Fatal("a refused query changed the next answer on its workspace")
	}
}

func TestRWRScoresAreProbabilityLike(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	g := randGraph(rng, 100)
	e := engineFor(t, g, VariantFull, 0.2)
	r, _, err := e.Query(7)
	if err != nil {
		t.Fatal(err)
	}
	sum := 0.0
	for i, v := range r {
		if v < -1e-12 {
			t.Fatalf("negative score r[%d] = %v", i, v)
		}
		sum += v
	}
	if sum <= 0 || sum > 1+1e-9 {
		t.Fatalf("score mass %v outside (0, 1]", sum)
	}
	if r[7] <= 0 {
		t.Fatal("seed's own score should be positive")
	}
}

func TestFigure2Ranking(t *testing.T) {
	g := gen.Figure2()
	e := engineFor(t, g, VariantFull, 0.3)
	r, _, err := e.Query(0) // u1
	if err != nil {
		t.Fatal(err)
	}
	// Qualitative shape from the paper's Figure 2: the seed u1 ranks first;
	// u8 (connected to u1 via both u4 and u5) outranks u6 and u7; u4 and u5
	// tie by symmetry, as do u6 and u7.
	if vec.ArgMax(r) != 0 {
		t.Fatalf("seed not top-ranked: %v", r)
	}
	if r[7] <= r[5] || r[7] <= r[6] {
		t.Fatalf("u8 (%v) should outrank u6 (%v)/u7 (%v)", r[7], r[5], r[6])
	}
	if math.Abs(r[3]-r[4]) > 1e-9 || math.Abs(r[5]-r[6]) > 1e-9 {
		t.Fatalf("symmetry broken: u4=%v u5=%v u6=%v u7=%v", r[3], r[4], r[5], r[6])
	}
}

func TestRankTopK(t *testing.T) {
	scores := []float64{0.1, 0.9, 0.5, 0.9, 0.2}
	top := RankTopK(scores, 3, 1) // exclude node 1
	if len(top) != 3 {
		t.Fatalf("len = %d", len(top))
	}
	if top[0].Node != 3 || top[1].Node != 2 || top[2].Node != 4 {
		t.Fatalf("order = %+v", top)
	}
	if got := RankTopK(scores, 0, -1); got != nil {
		t.Fatal("k=0 should return nil")
	}
	all := RankTopK(scores, 10, -1)
	if len(all) != 5 || all[0].Node != 1 || all[1].Node != 3 {
		t.Fatalf("ties should break on lower id: %+v", all)
	}
}

// TestRankTopKHugeK: a k far beyond the node count — a request's topk
// reaches RankTopK unchanged — ranks every node. The heap used to be sized
// by k, and k = 2⁴⁰ died with an uncatchable out-of-memory.
func TestRankTopKHugeK(t *testing.T) {
	scores := []float64{0.1, 0.9, 0.5, 0.9, 0.2, 0, 0.3, 0.7, 0.4, 0.6}
	all := RankTopK(scores, len(scores), 3)
	got := RankTopK(scores, 1<<40, 3)
	if len(got) != len(scores)-1 || len(all) != len(got) {
		t.Fatalf("k = 2⁴⁰ over %d scores: %d entries, want %d", len(scores), len(got), len(scores)-1)
	}
	for i := range got {
		if got[i] != all[i] {
			t.Fatalf("rank %d: %+v, want %+v", i, got[i], all[i])
		}
	}
}

func TestTopK(t *testing.T) {
	g := gen.Figure2()
	e := engineFor(t, g, VariantFull, 0.3)
	top, err := e.TopK(0, 3)
	if err != nil {
		t.Fatal(err)
	}
	if len(top) != 3 {
		t.Fatalf("len = %d", len(top))
	}
	for _, rk := range top {
		if rk.Node == 0 {
			t.Fatal("seed must be excluded")
		}
	}
	if top[0].Score < top[1].Score || top[1].Score < top[2].Score {
		t.Fatal("not sorted")
	}
}

func TestMemoryBudgetGuard(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	g := randGraph(rng, 200)
	_, err := Preprocess(g, Options{MemoryBudget: 64})
	if err == nil {
		t.Fatal("expected memory budget error")
	}
}

func TestDeadlineGuard(t *testing.T) {
	g := gen.RMAT(gen.DefaultRMAT(10, 8, 9))
	_, err := Preprocess(g, Options{Deadline: time.Nanosecond})
	if err == nil {
		t.Fatal("expected deadline error")
	}
}

func TestBuildHColumnDominance(t *testing.T) {
	// H must be strictly column diagonally dominant with margin ≥ c, the
	// property that justifies pivot-free factorizations (§3.6).
	rng := rand.New(rand.NewSource(8))
	g := randGraph(rng, 80)
	c := 0.05
	h := BuildH(g, nil, c)
	ht := h.Transpose() // rows of Hᵀ are columns of H
	colIdx := ht.ColIdx()
	vals := ht.Values()
	for j := 0; j < ht.Rows(); j++ {
		s, e := ht.RowRange(j)
		var diag, off float64
		for p := s; p < e; p++ {
			if colIdx[p] == j {
				diag += vals[p]
			} else {
				off += math.Abs(vals[p])
			}
		}
		if diag-off < c-1e-12 {
			t.Fatalf("column %d dominance margin %v < c", j, diag-off)
		}
	}
}

func TestProfileSchurAndChooseHubRatio(t *testing.T) {
	g := gen.RMAT(gen.DefaultRMAT(9, 6, 11))
	p, err := ProfileSchur(g, 0.2, DefaultC)
	if err != nil {
		t.Fatal(err)
	}
	if p.SchurNNZ > p.H22NNZ+p.CrossNNZ {
		t.Fatalf("|S| = %d exceeds |H22| + |cross| = %d", p.SchurNNZ, p.H22NNZ+p.CrossNNZ)
	}
	if p.N1+p.N2+p.N3 != g.N() {
		t.Fatal("partition sizes wrong")
	}
	cands := []float64{0.1, 0.3}
	best, profiles, err := ChooseHubRatio(g, cands, DefaultC)
	if err != nil {
		t.Fatal(err)
	}
	if len(profiles) != 2 {
		t.Fatalf("profiles = %d", len(profiles))
	}
	found := false
	for _, k := range cands {
		if best == k {
			found = true
		}
	}
	if !found {
		t.Fatalf("best k %v not among candidates", best)
	}
	// The winner must have the smallest measured |S|.
	for _, p := range profiles {
		if p.K == best {
			for _, o := range profiles {
				if o.SchurNNZ < p.SchurNNZ {
					t.Fatal("ChooseHubRatio did not minimize |S|")
				}
			}
		}
	}
}

// proofRadius returns ‖q̃2 − S·r2‖₁ / c for a score vector r of the seed's
// query, r2 its hub block and S read off the DILU triangles. With r1 and r3
// rebuilt from r2, the full system's residual is H·r − c·q =
// (0, S·r2 − q̃2, 0); H's columns are diagonally dominant with margin c, so
// ‖H⁻¹‖₁ ≤ 1/c and ‖r − r*‖₁ ≤ proofRadius, up to rounding.
func proofRadius(e *Engine, seed int, r []float64) float64 {
	n1, n2 := e.ord.n1, e.ord.n2
	if n2 == 0 {
		return 0
	}
	ws := e.newWorkspace()
	e.permute(ws, ws.unitQuery(seed))
	e.forward(ws)
	r2, sr2 := make([]float64, n2), make([]float64, n2)
	for old, p := range e.ord.perm {
		if i := int(p) - n1; i >= 0 && i < n2 {
			r2[i] = r[old]
		}
	}
	e.ilu.MulVec(sr2, r2)
	var rho float64
	for i, v := range sr2 {
		rho += math.Abs(ws.qt2[i] - v)
	}
	return rho / e.opts.C
}

// TestAccuracyBoundHolds checks the a-posteriori bound every iterate of
// the Schur solve carries, ‖r − r*‖₁ ≤ proofRadius. The bound is exact, not
// estimated: it is asserted with no cushion beyond rounding, on every
// iterate of every variant at three tolerances.
func TestAccuracyBoundHolds(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	worst, iterates := 0.0, 0
	for trial := 0; trial < 12; trial++ {
		n := 30 + rng.Intn(50)
		g := randGraph(rng, n)
		seed := rng.Intn(n)
		want, err := ExactDense(g, DefaultC, seed)
		if err != nil {
			t.Fatal(err)
		}
		for _, v := range []Variant{VariantB, VariantS, VariantFull} {
			for _, tol := range []float64{1e-3, 1e-6, 1e-9} {
				e, err := Preprocess(g, Options{Variant: v, HubRatio: 0.2, Tol: tol})
				if err != nil {
					t.Fatal(err)
				}
				check := func(iter int, r []float64) {
					var errNorm float64
					for i := range r {
						errNorm += math.Abs(r[i] - want[i])
					}
					bound := proofRadius(e, seed, r)
					if errNorm > bound+1e-12 {
						t.Fatalf("trial %d %v tol %g iteration %d: ‖r − r*‖₁ = %.3g exceeds ‖q̃2 − S·r2‖₁/c = %.3g",
							trial, v, tol, iter, errNorm, bound)
					}
					if bound > 0 {
						worst = math.Max(worst, errNorm/bound)
					}
					iterates++
				}
				r, _, err := e.QueryWithCallback(seed, check)
				if err != nil {
					t.Fatal(err)
				}
				check(-1, r)
			}
		}
	}
	t.Logf("%d iterates; largest error-to-bound ratio %.3f", iterates, worst)
}

// TestRelabelEquivariance: RWR does not depend on node names. An engine
// built on g.Relabel(π) — which SlashBurn orders differently — must give
// node π(u) the score an engine on g gives u, for the seed moved with it,
// within the two solves' proof radii.
func TestRelabelEquivariance(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	for trial := 0; trial < 6; trial++ {
		n := 40 + rng.Intn(60)
		g := randGraph(rng, n)
		perm := rng.Perm(n)
		h := g.Relabel(perm)
		seed := rng.Intn(n)
		for _, v := range []Variant{VariantB, VariantS, VariantFull} {
			eg := engineFor(t, g, v, 0.2)
			eh := engineFor(t, h, v, 0.2)
			rg, _, err := eg.Query(seed)
			if err != nil {
				t.Fatal(err)
			}
			rh, _, err := eh.Query(perm[seed])
			if err != nil {
				t.Fatal(err)
			}
			radius := proofRadius(eg, seed, rg) + proofRadius(eh, perm[seed], rh) + 1e-12
			for u := range rg {
				if d := math.Abs(rh[perm[u]] - rg[u]); d > radius {
					t.Fatalf("trial %d %v: score of node %d differs by %.3g after relabelling, radius %.3g",
						trial, v, u, d, radius)
				}
			}
		}
	}
}

func TestQueryWithCallbackConverges(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	g := randGraph(rng, 60)
	e := engineFor(t, g, VariantFull, 0.2)
	seed := 3
	want, err := ExactDense(g, DefaultC, seed)
	if err != nil {
		t.Fatal(err)
	}
	var lastErr float64 = math.Inf(1)
	fired := 0
	got, _, err := e.QueryWithCallback(seed, func(iter int, r []float64) {
		fired++
		lastErr = vec.Dist2(r, want)
	})
	if err != nil {
		t.Fatal(err)
	}
	if fired == 0 {
		t.Fatal("callback never fired")
	}
	if lastErr > 1e-7 {
		t.Fatalf("last callback error %v", lastErr)
	}
	if d := vec.Dist2(got, want); d > 1e-7 {
		t.Fatalf("final distance %v", d)
	}
}

// Property: BePI agrees with the exact dense solution on arbitrary random
// graphs, seeds and variants.
func TestQuickBePIMatchesExact(t *testing.T) {
	f := func(s int64) bool {
		rng := rand.New(rand.NewSource(s))
		n := 10 + rng.Intn(40)
		g := randGraph(rng, n)
		seed := rng.Intn(n)
		variant := Variant(rng.Intn(3))
		k := 0.05 + 0.4*rng.Float64()
		e, err := Preprocess(g, Options{Variant: variant, HubRatio: k, Tol: 1e-11})
		if err != nil {
			return false
		}
		got, _, err := e.Query(seed)
		if err != nil {
			return false
		}
		want, err := ExactDense(g, DefaultC, seed)
		if err != nil {
			return false
		}
		return vec.Dist2(got, want) < 1e-7
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Fatal(err)
	}
}

func TestPrepStatsPopulated(t *testing.T) {
	g := gen.RMAT(gen.DefaultRMAT(8, 5, 13))
	e := engineFor(t, g, VariantFull, 0.2)
	st := e.PrepStats()
	if st.N != g.N() || st.M != g.M() {
		t.Fatal("graph sizes not recorded")
	}
	if st.N1+st.N2+st.N3 != g.N() {
		t.Fatal("partition sizes wrong")
	}
	if st.SchurNNZ != e.Schur().NNZ() {
		t.Fatal("schur nnz wrong")
	}
	if st.Total <= 0 {
		t.Fatal("total time not recorded")
	}
	if e.MemoryBytes() <= 0 {
		t.Fatal("memory accounting empty")
	}
	if !e.Preconditioned() {
		t.Fatal("full variant must be preconditioned")
	}
}
