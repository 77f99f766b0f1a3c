package reorder

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"bepi/internal/gen"
	"bepi/internal/graph"
)

// blockOf maps a spoke new-id to its block index given block sizes.
func blockOf(blocks []int, n1 int) []int {
	of := make([]int, n1)
	pos := 0
	for b, size := range blocks {
		for i := 0; i < size; i++ {
			of[pos] = b
			pos++
		}
	}
	return of
}

// checkOrdering asserts every structural invariant of a BePI ordering on g.
func checkOrdering(t *testing.T, g *graph.Graph, o *Ordering) {
	t.Helper()
	if err := o.Validate(); err != nil {
		t.Fatal(err)
	}
	n := g.N()
	if len(o.Perm) != n {
		t.Fatalf("perm length %d want %d", len(o.Perm), n)
	}
	// Deadends must occupy exactly the tail [N1+N2, n).
	deadStart := o.N1 + o.N2
	for u := 0; u < n; u++ {
		isDead := g.OutDegree(u) == 0
		if isDead != (o.Perm[u] >= deadStart) {
			t.Fatalf("node %d (dead=%v) mapped to %d, deadStart=%d", u, isDead, o.Perm[u], deadStart)
		}
	}
	// No edge (in either direction) may connect two different spoke blocks:
	// that is exactly the H11 block-diagonality invariant.
	of := blockOf(o.Blocks, o.N1)
	for u := 0; u < n; u++ {
		pu := o.Perm[u]
		for _, v := range g.OutNeighbors(u) {
			pv := o.Perm[v]
			if pu < o.N1 && pv < o.N1 && of[pu] != of[pv] {
				t.Fatalf("edge (%d,%d) crosses spoke blocks %d and %d", u, v, of[pu], of[pv])
			}
		}
	}
}

func TestHubAndSpokeOnRMAT(t *testing.T) {
	g := gen.RMAT(gen.DefaultRMAT(9, 6, 1))
	o := HubAndSpoke(g, 0.2)
	checkOrdering(t, g, o)
	if o.N1 == 0 {
		t.Fatal("expected some spokes on a power-law graph")
	}
	if o.N2 == 0 {
		t.Fatal("expected some hubs")
	}
	if o.N3 == 0 {
		t.Fatal("expected deadends (injected by generator)")
	}
}

func TestHubAndSpokeSmallKProducesMoreSpokes(t *testing.T) {
	// A smaller hub ratio slashes fewer nodes per iteration, so the spoke
	// region grows more slowly but the hub count at the end should be
	// smaller (the paper's Table 2: n2 grows with k).
	g := gen.RMAT(gen.DefaultRMAT(10, 6, 2))
	small := HubAndSpoke(g, 0.01)
	large := HubAndSpoke(g, 0.3)
	checkOrdering(t, g, small)
	checkOrdering(t, g, large)
	if small.N2 >= large.N2 {
		t.Fatalf("n2 with k=0.01 (%d) should be below n2 with k=0.3 (%d)", small.N2, large.N2)
	}
}

func TestHubAndSpokeStarGraph(t *testing.T) {
	// Star: node 0 is the hub; removing it disconnects all leaves.
	var edges []graph.Edge
	n := 50
	for v := 1; v < n; v++ {
		edges = append(edges, graph.Edge{Src: 0, Dst: v}, graph.Edge{Src: v, Dst: 0})
	}
	g := graph.MustNew(n, edges)
	o := HubAndSpoke(g, 0.02) // one hub per iteration
	checkOrdering(t, g, o)
	if o.Perm[0] != n-1 {
		t.Fatalf("star center should be the last hub, got new id %d", o.Perm[0])
	}
	// 48 leaves burn as singleton spokes; the final GCC (one leaf) joins the
	// hub region per SlashBurn's termination rule, so n2 = 2.
	if o.N1 != n-2 || len(o.Blocks) != n-2 || o.N2 != 2 {
		t.Fatalf("got n1=%d blocks=%d n2=%d, want n1=%d blocks=%d n2=2", o.N1, len(o.Blocks), o.N2, n-2, n-2)
	}
}

func TestHubAndSpokeAllDeadends(t *testing.T) {
	g := graph.MustNew(5, nil)
	o := HubAndSpoke(g, 0.3)
	checkOrdering(t, g, o)
	if o.N3 != 5 || o.N1 != 0 || o.N2 != 0 {
		t.Fatalf("got n1=%d n2=%d n3=%d", o.N1, o.N2, o.N3)
	}
}

func TestHubAndSpokeInvalidK(t *testing.T) {
	g := graph.MustNew(2, []graph.Edge{{Src: 0, Dst: 1}, {Src: 1, Dst: 0}})
	for _, k := range []float64{0, 1, -0.5, 2, math.NaN()} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("k=%v: expected panic", k)
				}
			}()
			HubAndSpoke(g, k)
		}()
	}
}

func TestByDegree(t *testing.T) {
	g := graph.MustNew(4, []graph.Edge{
		{Src: 0, Dst: 1}, {Src: 0, Dst: 2}, {Src: 0, Dst: 3},
		{Src: 1, Dst: 0}, {Src: 2, Dst: 0}, {Src: 3, Dst: 0},
	})
	perm := ByDegree(g)
	// Node 0 has degree 6, all others 2; node 0 must come last.
	if perm[0] != 3 {
		t.Fatalf("highest-degree node mapped to %d, want 3", perm[0])
	}
	seen := make([]bool, 4)
	for _, p := range perm {
		if seen[p] {
			t.Fatal("ByDegree not a bijection")
		}
		seen[p] = true
	}
}

// Property: HubAndSpoke produces a valid ordering with the block-diagonality
// invariant on arbitrary random graphs.
func TestQuickHubAndSpokeInvariants(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		n := 2 + r.Intn(60)
		m := r.Intn(4 * n)
		edges := make([]graph.Edge, m)
		for i := range edges {
			edges[i] = graph.Edge{Src: r.Intn(n), Dst: r.Intn(n)}
		}
		g := graph.MustNew(n, edges)
		k := 0.05 + 0.4*r.Float64()
		o := HubAndSpoke(g, k)
		if o.Validate() != nil {
			return false
		}
		of := blockOf(o.Blocks, o.N1)
		deadStart := o.N1 + o.N2
		for u := 0; u < n; u++ {
			if (g.OutDegree(u) == 0) != (o.Perm[u] >= deadStart) {
				return false
			}
			pu := o.Perm[u]
			for _, v := range g.OutNeighbors(u) {
				pv := o.Perm[v]
				if pu < o.N1 && pv < o.N1 && of[pu] != of[pv] {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 80}); err != nil {
		t.Fatal(err)
	}
}

func TestHubAndSpokeIterationCap(t *testing.T) {
	g := gen.RMAT(gen.DefaultRMAT(10, 6, 2))
	one := HubAndSpokeIters(g, 0.05, 1)
	checkOrdering(t, g, one)
	full := HubAndSpokeIters(g, 0.05, 0)
	checkOrdering(t, g, full)
	// One-shot ordering dumps the residual GCC into the hub region, so it
	// must have strictly more hubs (and fewer spokes) than full SlashBurn.
	if one.N2 <= full.N2 {
		t.Fatalf("capped n2=%d should exceed full n2=%d", one.N2, full.N2)
	}
	if one.N1 >= full.N1 {
		t.Fatalf("capped n1=%d should be below full n1=%d", one.N1, full.N1)
	}
}

func TestHubAndSpokeDeterministic(t *testing.T) {
	g := gen.RMAT(gen.DefaultRMAT(8, 5, 3))
	a := HubAndSpoke(g, 0.2)
	b := HubAndSpoke(g, 0.2)
	for i := range a.Perm {
		if a.Perm[i] != b.Perm[i] {
			t.Fatal("HubAndSpoke is nondeterministic")
		}
	}
}

var orderingSink *Ordering

// BenchmarkHubAndSpoke times the reordering of the hybrid scale-13 graph at
// the engine's default hub ratio; with -benchmem, B/op is what the
// undirected view and SlashBurn's state allocate.
func BenchmarkHubAndSpoke(b *testing.B) {
	g := gen.Hybrid(gen.DefaultHybrid(13, 14, 1))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		orderingSink = HubAndSpoke(g, 0.2)
	}
}
