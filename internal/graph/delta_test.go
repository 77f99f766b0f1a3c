package graph

import (
	"math/rand"
	"reflect"
	"slices"
	"testing"
)

// TestWithEdgeDeltasMatchesNew patches random graphs with random edge
// deltas (including node growth) and checks the result is structurally
// identical to a from-scratch New over the merged edge list.
func TestWithEdgeDeltasMatchesNew(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 60; trial++ {
		n := 1 + rng.Intn(40)
		var edges []Edge
		for u := 0; u < n; u++ {
			for v := 0; v < n; v++ {
				if rng.Float64() < 0.15 {
					edges = append(edges, Edge{u, v})
				}
			}
		}
		g := MustNew(n, edges)

		have := map[Edge]bool{}
		for _, e := range g.Edges() {
			have[e] = true
		}
		var add, del []Edge
		deleted := map[Edge]bool{}
		for e := range have {
			if rng.Float64() < 0.2 {
				del = append(del, e)
				deleted[e] = true
				delete(have, e)
			}
		}
		n2 := n
		if rng.Float64() < 0.3 {
			n2 += 1 + rng.Intn(3)
		}
		for i := 0; i < rng.Intn(8); i++ {
			// Re-inserting an edge deleted in the same batch is refused (the
			// batch is not a sequential log), so the generator avoids it.
			e := Edge{rng.Intn(n2), rng.Intn(n2)}
			if !have[e] && !deleted[e] {
				have[e] = true
				add = append(add, e)
			}
		}

		got, err := g.WithEdgeDeltas(n2, add, del)
		if err != nil {
			t.Fatal(err)
		}
		merged := make([]Edge, 0, len(have))
		for e := range have {
			merged = append(merged, e)
		}
		want := MustNew(n2, merged)
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("trial %d: patched graph differs from rebuilt graph\n got %v\nwant %v", trial, got, want)
		}
	}
}

func TestWithEdgeDeltasErrors(t *testing.T) {
	g := MustNew(3, []Edge{{0, 1}, {1, 2}})
	cases := []struct {
		name     string
		n        int
		add, del []Edge
	}{
		{"shrink", 2, nil, nil},
		{"add out of range", 3, []Edge{{0, 3}}, nil},
		{"del out of range", 3, nil, []Edge{{3, 0}}},
		{"insert existing", 3, []Edge{{0, 1}}, nil},
		{"delete missing", 3, nil, []Edge{{0, 2}}},
		{"delete missing past row end", 3, nil, []Edge{{1, 0}}},
		{"duplicate insert", 3, []Edge{{0, 2}, {0, 2}}, nil},
		{"duplicate delete", 3, nil, []Edge{{0, 1}, {0, 1}}},
	}
	for _, tc := range cases {
		if _, err := g.WithEdgeDeltas(tc.n, tc.add, tc.del); err == nil {
			t.Errorf("%s: no error", tc.name)
		}
	}
	// The receiver survives every failed patch untouched.
	if g.M() != 2 || !g.HasEdge(0, 1) || !g.HasEdge(1, 2) {
		t.Fatal("receiver mutated by failed patches")
	}
}

// TestWithEdgeDeltasWalksSortedChanges patches a graph with changes in
// (Src, Dst) order, as a Dynamic flush passes them, and requires the patch
// to allocate the graph alone — row pointers, adjacency, in-degrees and
// the header, 4 allocations — and the same changes in reverse order to
// give the same graph without reordering the caller's lists.
func TestWithEdgeDeltasWalksSortedChanges(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	n := 300
	var edges []Edge
	for u := 0; u < n; u++ {
		for k := 0; k < 6; k++ {
			edges = append(edges, Edge{u, rng.Intn(n)})
		}
	}
	g := MustNew(n, edges)
	var add, del []Edge
	for u := 0; u < n; u += 3 {
		if nbrs := g.OutNeighbors(u); len(nbrs) > 0 {
			del = append(del, Edge{u, int(nbrs[0])})
		}
		if v := (u * 7) % (n + 5); v >= n || !g.HasEdge(u, v) {
			add = append(add, Edge{u, v})
		}
	}
	want, err := g.WithEdgeDeltas(n+5, add, del)
	if err != nil {
		t.Fatal(err)
	}
	if allocs := testing.AllocsPerRun(10, func() { _, _ = g.WithEdgeDeltas(n+5, add, del) }); allocs > 4 {
		t.Errorf("a patch with sorted changes made %v allocations, want 4", allocs)
	}
	revAdd, revDel := slices.Clone(add), slices.Clone(del)
	slices.Reverse(revAdd)
	slices.Reverse(revDel)
	keepAdd, keepDel := slices.Clone(revAdd), slices.Clone(revDel)
	got, err := g.WithEdgeDeltas(n+5, revAdd, revDel)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatal("changes in reverse order gave a different graph")
	}
	if !slices.Equal(revAdd, keepAdd) || !slices.Equal(revDel, keepDel) {
		t.Fatal("the caller's change lists were reordered")
	}
}
