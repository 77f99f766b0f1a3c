package bepi_test

import (
	"reflect"
	"slices"
	"testing"

	"bepi/internal/graph"
)

// layoutBytes is the graph layout's footprint with n nodes and m distinct
// edges: n+1 row pointers of 8 bytes, m 32-bit neighbour ids and n 32-bit
// in-degrees. With 64-bit neighbour ids the scale-16 benchmark graph took
// 12.36 MB (8.75 B/edge); in this layout it takes 4 B/edge plus 12 B/node.
func layoutBytes(n, m int) int64 { return int64(8*(n+1) + 4*m + 4*n) }

// retainedBytes is what the arrays a graph.Graph holds take: each slice
// field's capacity times its element size, read by reflection, so that a
// wider element or a slack capacity shows whatever the fields are called.
func retainedBytes(g *graph.Graph) int64 {
	v := reflect.ValueOf(g).Elem()
	var b int64
	for i := 0; i < v.NumField(); i++ {
		if f := v.Field(i); f.Kind() == reflect.Slice {
			b += int64(f.Cap()) * int64(f.Type().Elem().Size())
		}
	}
	return b
}

// checkLayout fails unless g retains exactly layoutBytes(g.N(), g.M()).
func checkLayout(t *testing.T, what string, g *graph.Graph) {
	t.Helper()
	got, want := retainedBytes(g), layoutBytes(g.N(), g.M())
	t.Logf("%s: n %d, m %d, %d B (%.2f B/edge)", what, g.N(), g.M(), got, float64(got)/float64(max(g.M(), 1)))
	if got != want {
		t.Errorf("%s retains %d B, want %d B: 8·(n+1) row pointers + 4·m neighbour ids + 4·n in-degrees", what, got, want)
	}
}

// TestGraphRetainsThe32BitLayout is the exact byte gate on the graph every
// build reads and a Dynamic holds beside its index: graph.New and
// WithEdgeDeltas on the scale-12 fixture keep the 32-bit layout's bytes and
// nothing more, including when New collapses duplicate edges and when a
// delta deletes more than it adds.
func TestGraphRetainsThe32BitLayout(t *testing.T) {
	g := costFixture(t).Internal()
	checkLayout(t, "New", g)

	// Every edge twice: the duplicates collapse, and the adjacency keeps m
	// entries, not len(edges).
	edges := g.Edges()
	dup, err := graph.New(g.N(), slices.Concat(edges, edges))
	if err != nil {
		t.Fatal(err)
	}
	if dup.M() != g.M() {
		t.Fatalf("half-duplicate edge list: m = %d, want %d", dup.M(), g.M())
	}
	checkLayout(t, "New over a half-duplicate edge list", dup)

	// A delete-heavy delta: every other edge gone, one new edge per 64
	// nodes, ten new nodes.
	var add, del []graph.Edge
	for i, e := range edges {
		if i%2 == 0 {
			del = append(del, e)
		}
	}
	n := g.N() + 10
	for u := 0; u < g.N(); u += 64 {
		if v := n - 1 - u%10; !g.HasEdge(u, v) {
			add = append(add, graph.Edge{Src: u, Dst: v})
		}
	}
	patched, err := g.WithEdgeDeltas(n, add, del)
	if err != nil {
		t.Fatal(err)
	}
	if want := g.M() + len(add) - len(del); patched.M() != want {
		t.Fatalf("delta: m = %d, want %d", patched.M(), want)
	}
	checkLayout(t, "WithEdgeDeltas deleting half the edges", patched)

	// An insert-only delta, the shape of most flushes.
	grown, err := g.WithEdgeDeltas(n, add, nil)
	if err != nil {
		t.Fatal(err)
	}
	checkLayout(t, "WithEdgeDeltas inserting", grown)
}
