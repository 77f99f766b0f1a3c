package graph

import (
	"math/rand"
	"reflect"
	"sort"
	"testing"

	"bepi/internal/par"
)

// undirectedRef builds the same view with a set per node and a sort: the
// obvious construction the builder is checked against.
func undirectedRef(g *Graph, nodes []int) [][]int {
	if nodes == nil {
		for u := 0; u < g.N(); u++ {
			nodes = append(nodes, u)
		}
	}
	local := map[int]int{}
	for i, u := range nodes {
		local[u] = i
	}
	sets := make([]map[int]bool, len(nodes))
	for i := range sets {
		sets[i] = map[int]bool{}
	}
	for i, u := range nodes {
		for _, v := range g.OutNeighbors(u) {
			if j, ok := local[int(v)]; ok && j != i {
				sets[i][j], sets[j][i] = true, true
			}
		}
	}
	out := make([][]int, len(nodes))
	for i, s := range sets {
		out[i] = []int{}
		for j := range s {
			out[i] = append(out[i], j)
		}
		sort.Ints(out[i])
	}
	return out
}

// TestUndirectedMatchesReference: on random graphs with reciprocal edges,
// self-loops and isolated nodes, over the whole graph and over random
// induced subsets, every node's out- and in-only lists together hold the
// reference's neighbour set, each neighbour once, in local ids, and its
// degree is that set's size; no in-only entry is also an out-neighbour and
// no list holds the node itself.
func TestUndirectedMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for trial := 0; trial < 200; trial++ {
		n := 1 + rng.Intn(60)
		var edges []Edge
		for i := rng.Intn(4 * n); i > 0; i-- {
			u, v := rng.Intn(n), rng.Intn(n)
			if rng.Intn(6) == 0 {
				v = u
			}
			edges = append(edges, Edge{u, v})
			if rng.Intn(3) == 0 {
				edges = append(edges, Edge{v, u})
			}
		}
		g := MustNew(n, edges)
		var nodes []int // nil on even trials: the whole graph
		if trial%2 == 1 {
			nodes = []int{}
			for u := 0; u < n; u++ {
				if rng.Intn(3) > 0 {
					nodes = append(nodes, u)
				}
			}
		}
		und, want := g.Undirected(nodes, nil), undirectedRef(g, nodes)
		if len(und.outPtr) != len(want)+1 || len(und.inPtr) != len(want)+1 {
			t.Fatalf("trial %d: %d/%d rows, want %d", trial, len(und.outPtr)-1, len(und.inPtr)-1, len(want))
		}
		for i := range want {
			out, inOnly := und.Neighbors(i)
			isOut := map[uint32]bool{}
			for _, v := range out {
				isOut[v] = true
			}
			var got []int
			for _, v := range inOnly {
				if isOut[v] {
					t.Fatalf("trial %d: node %d has %d as an out- and an in-only neighbour", trial, i, v)
				}
			}
			for _, v := range append(append([]uint32{}, out...), inOnly...) {
				if int(v) == i {
					t.Fatalf("trial %d: node %d lists itself", trial, i)
				}
				got = append(got, int(v))
			}
			sort.Ints(got)
			if !reflect.DeepEqual(append([]int{}, got...), want[i]) || und.Degree(i) != len(want[i]) {
				t.Fatalf("trial %d: node %d has neighbors %v (degree %d), want %v", trial, i, got, und.Degree(i), want[i])
			}
		}
	}
}

func TestUndirectedRejectsUnsortedNodes(t *testing.T) {
	g := MustNew(4, []Edge{{0, 1}, {2, 3}})
	for _, nodes := range [][]int{{2, 1}, {1, 1}} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("nodes %v accepted", nodes)
				}
			}()
			g.Undirected(nodes, nil)
		}()
	}
}

// TestUndirectedWorkerCounts builds the undirected view of random graphs —
// reciprocal pairs, self-loops, subsets — on 1, 2, 3 and 7 workers and
// requires the one-worker view list for list: each worker counts, buckets
// and compacts a contiguous range of nodes, and every in-list keeps its
// tails in ascending order at any worker count. The 3-node graph has more
// workers than nodes.
func TestUndirectedWorkerCounts(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for trial := 0; trial < 30; trial++ {
		n := 3
		if trial > 0 {
			n = 2 + rng.Intn(300)
		}
		var edges []Edge
		for u := 0; u < n; u++ {
			for k := rng.Intn(6); k > 0; k-- {
				v := rng.Intn(n)
				if rng.Intn(8) == 0 {
					v = u
				}
				edges = append(edges, Edge{u, v})
				if rng.Intn(3) == 0 {
					edges = append(edges, Edge{v, u})
				}
			}
		}
		g := MustNew(n, edges)
		var nodes []int // nil on even trials: the whole graph
		if trial%2 == 1 {
			for u := 0; u < n; u++ {
				if rng.Intn(4) > 0 {
					nodes = append(nodes, u)
				}
			}
		}
		want := g.Undirected(nodes, nil)
		for _, workers := range []int{1, 2, 3, 7} {
			got := g.Undirected(nodes, par.NewPool(workers))
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("trial %d (n=%d): the view on %d workers differs from the serial one", trial, n, workers)
			}
		}
	}
}
