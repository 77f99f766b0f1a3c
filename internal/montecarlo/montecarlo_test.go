package montecarlo

import (
	"math"
	"math/rand"
	"testing"

	"bepi/internal/core"
	"bepi/internal/gen"
	"bepi/internal/graph"
	"bepi/internal/vec"
)

func TestEstimatorValidation(t *testing.T) {
	g := graph.MustNew(3, []graph.Edge{{Src: 0, Dst: 1}})
	if _, err := New(g, 0, 1); err == nil {
		t.Fatal("expected error for c=0")
	}
	if _, err := New(g, 1, 1); err == nil {
		t.Fatal("expected error for c=1")
	}
	e, err := New(g, 0.1, 1)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := e.Query(-1, 10); err == nil {
		t.Fatal("expected error for bad seed")
	}
	if _, err := e.Query(0, 0); err == nil {
		t.Fatal("expected error for zero walks")
	}
}

func TestEstimatesConvergeToExact(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	n := 40
	edges := make([]graph.Edge, 0, 200)
	for i := 0; i < 200; i++ {
		edges = append(edges, graph.Edge{Src: rng.Intn(n), Dst: rng.Intn(n)})
	}
	g := graph.MustNew(n, edges)
	seed := 3
	exact, err := core.ExactDense(g, core.DefaultC, seed)
	if err != nil {
		t.Fatal(err)
	}
	est, err := New(g, core.DefaultC, 11)
	if err != nil {
		t.Fatal(err)
	}
	small, err := est.Query(seed, 2_000)
	if err != nil {
		t.Fatal(err)
	}
	big, err := est.Query(seed, 200_000)
	if err != nil {
		t.Fatal(err)
	}
	errSmall := vec.Dist2(small, exact)
	errBig := vec.Dist2(big, exact)
	if errBig >= errSmall {
		t.Fatalf("more walks did not reduce error: %v vs %v", errBig, errSmall)
	}
	// 100× more walks should cut the L2 error roughly 10×; allow slack.
	if errBig > errSmall/3 {
		t.Fatalf("error only improved %v → %v over 100× walks", errSmall, errBig)
	}
	// The estimate mass must be a probability-like quantity.
	if s := vec.Sum(big); s < 0 || s > 1+1e-12 {
		t.Fatalf("estimate mass %v", s)
	}
}

func TestTopKOverlapWithBePI(t *testing.T) {
	g := gen.RMAT(gen.DefaultRMAT(9, 6, 9))
	seedNode := -1
	for u := 0; u < g.N(); u++ {
		if g.OutDegree(u) > 2 {
			seedNode = u
			break
		}
	}
	if seedNode < 0 {
		t.Fatal("no suitable seed")
	}
	eng, err := core.Preprocess(g, core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	exactTop, err := eng.TopK(seedNode, 10)
	if err != nil {
		t.Fatal(err)
	}
	est, err := New(g, core.DefaultC, 12)
	if err != nil {
		t.Fatal(err)
	}
	mcScores, err := est.Query(seedNode, 300_000)
	if err != nil {
		t.Fatal(err)
	}
	mcTop := core.RankTopK(mcScores, 10, seedNode)
	want := map[int]bool{}
	for _, r := range exactTop {
		want[r.Node] = true
	}
	overlap := 0
	for _, r := range mcTop {
		if want[r.Node] {
			overlap++
		}
	}
	if overlap < 5 {
		t.Fatalf("top-10 overlap with exact only %d/10", overlap)
	}
}

func TestDeadendSeedLosesMass(t *testing.T) {
	// From a deadend seed, every non-restart step dies immediately, so the
	// estimate is a point mass ≈ c at the seed.
	g := graph.MustNew(2, []graph.Edge{{Src: 1, Dst: 0}})
	est, err := New(g, 0.2, 3)
	if err != nil {
		t.Fatal(err)
	}
	r, err := est.Query(0, 100_000)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(r[0]-0.2) > 0.01 || r[1] != 0 {
		t.Fatalf("deadend estimate %v, want ≈[0.2 0]", r)
	}
}
