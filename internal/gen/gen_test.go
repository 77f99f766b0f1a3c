package gen

import (
	"sort"
	"testing"

	"bepi/internal/graph"
)

func TestRMATDeterministic(t *testing.T) {
	cfg := DefaultRMAT(8, 8, 7)
	a := RMAT(cfg)
	b := RMAT(cfg)
	if a.N() != b.N() || a.M() != b.M() {
		t.Fatal("same seed produced different graphs")
	}
	for u := 0; u < a.N(); u++ {
		la, lb := a.OutNeighbors(u), b.OutNeighbors(u)
		if len(la) != len(lb) {
			t.Fatalf("node %d: neighbor count differs", u)
		}
		for i := range la {
			if la[i] != lb[i] {
				t.Fatalf("node %d: neighbor differs", u)
			}
		}
	}
	c := RMAT(DefaultRMAT(8, 8, 8))
	if c.M() == a.M() && func() bool {
		for u := 0; u < a.N(); u++ {
			if len(a.OutNeighbors(u)) != len(c.OutNeighbors(u)) {
				return false
			}
		}
		return true
	}() {
		t.Fatal("different seeds produced identical graphs (suspicious)")
	}
}

func TestRMATShape(t *testing.T) {
	cfg := DefaultRMAT(10, 8, 1)
	g := RMAT(cfg)
	if g.N() != 1024 {
		t.Fatalf("N = %d", g.N())
	}
	if g.M() == 0 || g.M() > 8*1024 {
		t.Fatalf("M = %d out of range", g.M())
	}
	// Deadend fraction should be at least the injected fraction.
	if frac := float64(len(g.Deadends())) / float64(g.N()); frac < cfg.DeadendFrac*0.9 {
		t.Fatalf("deadend fraction %.3f < injected %.3f", frac, cfg.DeadendFrac)
	}
}

func TestRMATPowerLaw(t *testing.T) {
	// A power-law graph must have a heavy tail: the max in-degree should be
	// far above the average in-degree.
	g := RMAT(DefaultRMAT(11, 16, 3))
	maxIn, sumIn := 0, 0
	for u := 0; u < g.N(); u++ {
		d := g.InDegree(u)
		sumIn += d
		if d > maxIn {
			maxIn = d
		}
	}
	avg := float64(sumIn) / float64(g.N())
	if float64(maxIn) < 10*avg {
		t.Fatalf("max in-degree %d not heavy-tailed vs avg %.2f", maxIn, avg)
	}
}

func TestHybridStructure(t *testing.T) {
	cfg := DefaultHybrid(10, 8, 4)
	g := Hybrid(cfg)
	if g.N() != 1024 {
		t.Fatalf("N = %d", g.N())
	}
	// Overlay adds edges beyond plain R-MAT.
	plain := RMAT(cfg.RMAT)
	if g.M() <= plain.M()/2 {
		t.Fatalf("hybrid M=%d vs plain M=%d", g.M(), plain.M())
	}
	// Deadend share is applied after the overlay.
	if frac := float64(len(g.Deadends())) / float64(g.N()); frac < cfg.DeadendFrac*0.9 {
		t.Fatalf("deadend fraction %.3f < %.3f", frac, cfg.DeadendFrac)
	}
	// Deterministic.
	h2 := Hybrid(cfg)
	if h2.M() != g.M() {
		t.Fatal("hybrid not deterministic")
	}
	// Heavy tail survives the overlay.
	maxIn, sumIn := 0, 0
	for u := 0; u < g.N(); u++ {
		d := g.InDegree(u)
		sumIn += d
		if d > maxIn {
			maxIn = d
		}
	}
	if float64(maxIn) < 5*float64(sumIn)/float64(g.N()) {
		t.Fatalf("max in-degree %d not heavy-tailed", maxIn)
	}
}

func TestErdosRenyi(t *testing.T) {
	g := ErdosRenyi(100, 500, 1)
	if g.N() != 100 {
		t.Fatalf("N = %d", g.N())
	}
	if g.M() == 0 || g.M() > 500 {
		t.Fatalf("M = %d", g.M())
	}
	// ER graphs should NOT be heavy tailed: max degree near average.
	maxOut := 0
	for u := 0; u < g.N(); u++ {
		if d := g.OutDegree(u); d > maxOut {
			maxOut = d
		}
	}
	if maxOut > 30 {
		t.Fatalf("ER max out-degree %d too large", maxOut)
	}
}

func TestBarabasiAlbert(t *testing.T) {
	g := BarabasiAlbert(500, 3, 2)
	if g.N() != 500 {
		t.Fatalf("N = %d", g.N())
	}
	if len(g.Deadends()) != 0 {
		t.Fatal("BA graph should have no deadends (symmetric edges)")
	}
	// Symmetry.
	for u := 0; u < g.N(); u++ {
		for _, v := range g.OutNeighbors(u) {
			if !g.HasEdge(int(v), u) {
				t.Fatalf("asymmetric edge (%d,%d)", u, v)
			}
		}
	}
	// Preferential attachment should concentrate degree.
	degs := make([]int, g.N())
	for u := range degs {
		degs[u] = g.OutDegree(u)
	}
	sort.Sort(sort.Reverse(sort.IntSlice(degs)))
	if degs[0] < 3*degs[len(degs)/2] {
		t.Fatalf("BA top degree %d vs median %d not skewed", degs[0], degs[len(degs)/2])
	}
}

// reachedUndirected counts the nodes a BFS from s reaches over
// g.Undirected(nil, nil): s's undirected component.
func reachedUndirected(g *graph.Graph, s int) int {
	und := g.Undirected(nil, nil)
	seen := make([]bool, g.N())
	seen[s] = true
	queue := []int{s}
	for head := 0; head < len(queue); head++ {
		out, inOnly := und.Neighbors(queue[head])
		for _, list := range [2][]uint32{out, inOnly} {
			for _, v := range list {
				if !seen[v] {
					seen[v] = true
					queue = append(queue, int(v))
				}
			}
		}
	}
	return len(queue)
}

func TestWattsStrogatz(t *testing.T) {
	g := WattsStrogatz(241, 4, 0.1, 5)
	if g.N() != 241 {
		t.Fatalf("N = %d", g.N())
	}
	if len(g.Deadends()) != 0 {
		t.Fatal("WS graph should have no deadends")
	}
	if reached := reachedUndirected(g, 0); reached != g.N() {
		t.Fatalf("WS graph should be connected at beta=0.1, node 0 reaches %d of %d nodes", reached, g.N())
	}
}

func TestFigure2(t *testing.T) {
	g := Figure2()
	if g.N() != 8 || g.M() != 16 {
		t.Fatalf("Figure2 = %v", g)
	}
	// u8 (index 7) is connected to u4 and u5 (indexes 3 and 4), as the
	// paper's discussion requires.
	if !g.HasEdge(7, 3) || !g.HasEdge(7, 4) || g.HasEdge(7, 0) {
		t.Fatal("Figure2 structure wrong")
	}
}
