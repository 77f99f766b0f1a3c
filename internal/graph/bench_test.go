package graph_test

import (
	"fmt"
	"slices"
	"testing"

	"bepi/internal/gen"
	"bepi/internal/graph"
	"bepi/internal/par"
)

var graphSink *graph.Graph

// BenchmarkNewGraph builds the scale-13 hybrid graph from its edge list:
// B/op is the row pointers, the 32-bit adjacency and the 32-bit in-degrees,
// 4 bytes an edge plus 12 a node.
func BenchmarkNewGraph(b *testing.B) {
	g := gen.Hybrid(gen.DefaultHybrid(13, 14, 1))
	edges := g.Edges()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		var err error
		if graphSink, err = graph.New(g.N(), edges); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkWithEdgeDeltas patches the scale-13 hybrid graph with a
// 64-insert, 64-delete delta in (Src, Dst) order, the graph a Dynamic flush
// builds: B/op is one graph in the 32-bit layout at exactly its new edge
// count, in 4 allocations — the changes are walked with a cursor, not
// gathered per row.
func BenchmarkWithEdgeDeltas(b *testing.B) {
	g := gen.Hybrid(gen.DefaultHybrid(13, 14, 1))
	var add, del []graph.Edge
	for u := 0; len(del) < 64; u++ {
		if nbrs := g.OutNeighbors(u); len(nbrs) > 1 {
			del = append(del, graph.Edge{Src: u, Dst: int(nbrs[0])})
		}
	}
	for u := g.N() - 1; len(add) < 64; u-- {
		if v := (u * 31) % g.N(); !g.HasEdge(u, v) {
			add = append(add, graph.Edge{Src: u, Dst: v})
		}
	}
	slices.Reverse(add) // a Dynamic flush passes its changes sorted
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		var err error
		if graphSink, err = g.WithEdgeDeltas(g.N(), add, del); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkUndirected builds SlashBurn's undirected view of the scale-15
// hybrid graph's non-deadend nodes on 1 and 2 workers: the counting sort of
// the in-lists runs on the pool, and the view is the same at both.
func BenchmarkUndirected(b *testing.B) {
	g := gen.Hybrid(gen.DefaultHybrid(15, 14, 1))
	var nodes []int
	for u := 0; u < g.N(); u++ {
		if g.OutDegree(u) > 0 {
			nodes = append(nodes, u)
		}
	}
	for _, workers := range []int{1, 2} {
		b.Run(fmt.Sprintf("workers=%d", workers), func(b *testing.B) {
			pool := par.NewPool(workers)
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				undirectedSink = g.Undirected(nodes, pool)
			}
		})
	}
}

var undirectedSink *graph.Undirected
