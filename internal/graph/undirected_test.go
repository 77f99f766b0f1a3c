package graph

import (
	"math/rand"
	"reflect"
	"sort"
	"testing"
)

// undirectedRef builds the same view with a set per node and a sort: the
// obvious construction the counting-pass builder replaces.
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
			if j, ok := local[v]; ok && j != i {
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
// induced subsets, every neighbor list is the reference's — sorted, each
// neighbor once, no self-loop, in local ids.
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
		und, want := g.Undirected(nodes), undirectedRef(g, nodes)
		if len(und.ptr) != len(want)+1 {
			t.Fatalf("trial %d: %d rows, want %d", trial, len(und.ptr)-1, len(want))
		}
		for i := range want {
			if got := und.Neighbors(i); !reflect.DeepEqual(append([]int{}, got...), want[i]) || und.Degree(i) != len(want[i]) {
				t.Fatalf("trial %d: node %d has neighbors %v, want %v", trial, i, got, want[i])
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
			g.Undirected(nodes)
		}()
	}
}
