package graph_test

import (
	"testing"

	"bepi/internal/gen"
	"bepi/internal/graph"
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
// 64-insert, 64-delete delta, the graph a Dynamic flush builds: B/op is one
// graph in the 32-bit layout at exactly its new edge count, plus the
// delta's row lists.
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
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		var err error
		if graphSink, err = g.WithEdgeDeltas(g.N(), add, del); err != nil {
			b.Fatal(err)
		}
	}
}
