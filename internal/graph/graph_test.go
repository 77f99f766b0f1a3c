package graph

import (
	"bytes"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"runtime"
	"strings"
	"testing"
	"testing/quick"
)

func testGraph(t *testing.T) *Graph {
	t.Helper()
	g, err := New(6, []Edge{
		{0, 1}, {0, 2}, {1, 2}, {2, 0}, {3, 4},
		{0, 1}, // duplicate, must collapse
	})
	if err != nil {
		t.Fatal(err)
	}
	return g
}

func TestNewBasics(t *testing.T) {
	g := testGraph(t)
	if g.N() != 6 {
		t.Fatalf("N = %d", g.N())
	}
	if g.M() != 5 {
		t.Fatalf("M = %d (duplicate not collapsed?)", g.M())
	}
	if got := g.OutNeighbors(0); len(got) != 2 || got[0] != 1 || got[1] != 2 {
		t.Fatalf("OutNeighbors(0) = %v", got)
	}
	if g.OutDegree(5) != 0 || g.InDegree(2) != 2 {
		t.Fatal("degree accounting wrong")
	}
	if !g.HasEdge(2, 0) || g.HasEdge(0, 3) {
		t.Fatal("HasEdge wrong")
	}
}

func TestNewRejectsOutOfRange(t *testing.T) {
	if _, err := New(2, []Edge{{0, 2}}); err == nil {
		t.Fatal("expected error")
	}
	if _, err := New(-1, nil); err == nil {
		t.Fatal("expected error for negative n")
	}
}

// TestNodeCountRefusedBeforeAllocating: the node ids are 32-bit, so 2³² − 1
// nodes is the most a graph holds, and New and WithEdgeDeltas refuse more
// before the row pointers (8 bytes a node) are allocated. They are called
// with no edges and with counts whose arrays could not be allocated at all,
// so that without the check they panic at once instead of reserving and
// walking tens of gigabytes.
func TestNodeCountRefusedBeforeAllocating(t *testing.T) {
	if err := checkNodeCount(math.MaxUint32); err != nil {
		t.Errorf("2³² − 1 nodes refused: %v", err)
	}
	if err := checkNodeCount(math.MaxUint32 + 1); err == nil {
		t.Error("2³² nodes accepted")
	}
	small := MustNew(2, []Edge{{Src: 0, Dst: 1}})
	for _, c := range []struct {
		name  string
		build func(n int) error
	}{
		{"New", func(n int) error { _, err := New(n, nil); return err }},
		{"WithEdgeDeltas", func(n int) error { _, err := small.WithEdgeDeltas(n, nil, nil); return err }},
	} {
		for _, n := range []int{1 << 60, math.MaxInt} {
			// The least of five calls, so that a runtime-internal
			// allocation in the window does not count against it.
			least := ^uint64(0)
			for run := 0; run < 5; run++ {
				var before, after runtime.MemStats
				runtime.ReadMemStats(&before)
				err := c.build(n)
				runtime.ReadMemStats(&after)
				if err == nil {
					t.Fatalf("%s(%d nodes) accepted a count past 2³² − 1", c.name, n)
				}
				least = min(least, after.TotalAlloc-before.TotalAlloc)
			}
			if least > 4<<10 {
				t.Errorf("%s(%d nodes) allocated %d B before refusing", c.name, n, least)
			}
		}
	}
}

func TestDeadends(t *testing.T) {
	g := testGraph(t)
	d := g.Deadends()
	if len(d) != 2 || d[0] != 4 || d[1] != 5 {
		t.Fatalf("Deadends = %v", d)
	}
}

func TestAdjacency(t *testing.T) {
	g := testGraph(t)
	a := g.Adjacency()
	if a.Rows() != 6 || a.NNZ() != 5 {
		t.Fatalf("adjacency %v", a)
	}
	if a.At(0, 1) != 1 || a.At(1, 0) != 0 {
		t.Fatal("adjacency entries wrong")
	}
}

// components labels the undirected connected components of g by BFS over
// g.Undirected(nil, nil), ids in discovery order from node 0 upward, and returns
// every node's id and the components' sizes.
func components(g *Graph) (compOf []int, sizes []int) {
	und := g.Undirected(nil, nil)
	compOf = make([]int, g.N())
	for i := range compOf {
		compOf[i] = -1
	}
	var queue []int
	for s := range compOf {
		if compOf[s] >= 0 {
			continue
		}
		id := len(sizes)
		queue = append(queue[:0], s)
		compOf[s] = id
		for head := 0; head < len(queue); head++ {
			out, inOnly := und.Neighbors(queue[head])
			for _, list := range [2][]uint32{out, inOnly} {
				for _, v := range list {
					if compOf[v] < 0 {
						compOf[v] = id
						queue = append(queue, int(v))
					}
				}
			}
		}
		sizes = append(sizes, len(queue))
	}
	return compOf, sizes
}

func TestUndirectedComponents(t *testing.T) {
	g := testGraph(t)
	comp, sizes := components(g)
	if len(sizes) != 3 {
		t.Fatalf("components = %d, want 3 (sizes %v)", len(sizes), sizes)
	}
	if comp[0] != comp[1] || comp[0] != comp[2] {
		t.Fatal("0,1,2 should share a component")
	}
	if comp[3] != comp[4] || comp[3] == comp[0] {
		t.Fatal("3,4 should be their own component")
	}
	if comp[5] == comp[0] || comp[5] == comp[3] {
		t.Fatal("5 should be isolated")
	}
	total := 0
	for _, s := range sizes {
		total += s
	}
	if total != g.N() {
		t.Fatalf("component sizes sum to %d, want %d", total, g.N())
	}
}

func TestNodePrefix(t *testing.T) {
	g := testGraph(t)
	sub := g.NodePrefix(3)
	if sub.N() != 3 {
		t.Fatalf("N = %d", sub.N())
	}
	// Edges among {0,1,2}: (0,1),(0,2),(1,2),(2,0).
	if sub.M() != 4 {
		t.Fatalf("M = %d", sub.M())
	}
	if !sub.HasEdge(2, 0) || sub.HasEdge(0, 3) {
		t.Fatal("NodePrefix edges wrong")
	}
	if g.NodePrefix(0).N() != 0 {
		t.Fatal("empty prefix")
	}
	full := g.NodePrefix(g.N())
	if full.M() != g.M() {
		t.Fatal("full prefix should keep all edges")
	}
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for out-of-range prefix")
		}
	}()
	g.NodePrefix(g.N() + 1)
}

func TestRelabel(t *testing.T) {
	g := testGraph(t)
	perm := []int{5, 4, 3, 2, 1, 0}
	r := g.Relabel(perm)
	if r.M() != g.M() {
		t.Fatal("relabel changed edge count")
	}
	for u := 0; u < g.N(); u++ {
		for _, v := range g.OutNeighbors(u) {
			if !r.HasEdge(perm[u], perm[v]) {
				t.Fatalf("edge (%d,%d) missing after relabel", perm[u], perm[v])
			}
		}
	}
}

func TestReadWriteEdgeList(t *testing.T) {
	in := `# a comment
% another comment
0 1
1	2
2 0

3 3
`
	g, err := ReadEdgeList(strings.NewReader(in))
	if err != nil {
		t.Fatal(err)
	}
	if g.N() != 4 || g.M() != 4 {
		t.Fatalf("parsed %v", g)
	}
	var buf bytes.Buffer
	if err := g.WriteEdgeList(&buf); err != nil {
		t.Fatal(err)
	}
	back, err := ReadEdgeList(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if back.N() != g.N() || back.M() != g.M() {
		t.Fatal("edge list round trip changed graph")
	}
	for u := 0; u < g.N(); u++ {
		for _, v := range g.OutNeighbors(u) {
			if !back.HasEdge(u, int(v)) {
				t.Fatalf("edge (%d,%d) lost in round trip", u, v)
			}
		}
	}
}

// TestEdgeListKeepsTrailingIsolatedNodes round-trips a 5-node graph whose
// two edges name only nodes 0–2: the "# nodes=5" header WriteEdgeList
// writes keeps nodes 3 and 4, which sizing by the largest id lost.
func TestEdgeListKeepsTrailingIsolatedNodes(t *testing.T) {
	g := MustNew(5, []Edge{{0, 1}, {1, 2}})
	var buf bytes.Buffer
	if err := g.WriteEdgeList(&buf); err != nil {
		t.Fatal(err)
	}
	back, err := ReadEdgeList(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(back, g) {
		t.Fatalf("round trip gave %v, want %v", back, g)
	}
	if _, err := ReadEdgeList(strings.NewReader("# nodes=2\n0 2\n")); err == nil {
		t.Error("an edge past the header's node count was accepted")
	}
}

// TestReadEdgeListRefusesUnjustifiedNodeCount feeds inputs of a few bytes
// that name a node near 2³² (or one past 2²⁰ + 64 per byte): each is refused with a *NodeCountError that
// states the bound, before the graph's arrays — 12 bytes a node, 48 GiB
// here — are allocated.
func TestReadEdgeListRefusesUnjustifiedNodeCount(t *testing.T) {
	for _, in := range []string{"4294967294 0\n", "# nodes=4294967295\n", "0 1\n" + strings.Repeat("%\n", 100) + "9000000 1\n"} {
		var before, after runtime.MemStats
		runtime.GC()
		runtime.ReadMemStats(&before)
		_, err := ReadEdgeList(strings.NewReader(in))
		runtime.ReadMemStats(&after)
		var nc *NodeCountError
		if !errors.As(err, &nc) {
			t.Fatalf("input %q: error %v, want a *NodeCountError", in, err)
		}
		if want := maxNodesBase + maxNodesPerByte*int64(len(in)); nc.Bound != want || nc.InputBytes != int64(len(in)) {
			t.Errorf("input %q: bound %d from %d bytes, want %d from %d", in, nc.Bound, nc.InputBytes, want, len(in))
		}
		if !strings.Contains(err.Error(), fmt.Sprint(nc.Bound)) {
			t.Errorf("input %q: error %q does not state the bound %d", in, err, nc.Bound)
		}
		if got := after.TotalAlloc - before.TotalAlloc; got >= 1<<20 {
			t.Errorf("input %q: refusing it allocated %d B", in, got)
		}
	}
	// At the bound an input is read.
	in := fmt.Sprintf("# nodes=%d\n", maxNodesBase)
	if g, err := ReadEdgeList(strings.NewReader(in)); err != nil || g.N() != maxNodesBase {
		t.Fatalf("header of %d nodes: %v", maxNodesBase, err)
	}
}

func TestMatrixMarketGraphRoundTrip(t *testing.T) {
	g := testGraph(t)
	var buf bytes.Buffer
	if err := g.WriteMatrixMarket(&buf); err != nil {
		t.Fatal(err)
	}
	back, err := ReadMatrixMarketGraph(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if back.N() != g.N() || back.M() != g.M() {
		t.Fatalf("round trip: n=%d m=%d want n=%d m=%d", back.N(), back.M(), g.N(), g.M())
	}
	for u := 0; u < g.N(); u++ {
		for _, v := range g.OutNeighbors(u) {
			if !back.HasEdge(u, int(v)) {
				t.Fatalf("edge (%d,%d) lost", u, v)
			}
		}
	}
}

func TestReadMatrixMarketGraphSymmetric(t *testing.T) {
	in := `%%MatrixMarket matrix coordinate pattern symmetric
3 3 2
2 1
3 2
`
	g, err := ReadMatrixMarketGraph(strings.NewReader(in))
	if err != nil {
		t.Fatal(err)
	}
	if g.M() != 4 {
		t.Fatalf("M = %d, want 4 (symmetric expansion)", g.M())
	}
	if !g.HasEdge(0, 1) || !g.HasEdge(1, 0) {
		t.Fatal("symmetric edges missing")
	}
}

func TestReadEdgeListErrors(t *testing.T) {
	cases := []string{"0", "a b", "0 b", "-1 2"}
	for _, in := range cases {
		if _, err := ReadEdgeList(strings.NewReader(in)); err == nil {
			t.Errorf("input %q: expected error", in)
		}
	}
}

// Property: component ids partition the nodes and edges never cross
// components (in the undirected sense).
func TestQuickComponentsArePartition(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		n := 1 + r.Intn(40)
		m := r.Intn(3 * n)
		edges := make([]Edge, m)
		for i := range edges {
			edges[i] = Edge{r.Intn(n), r.Intn(n)}
		}
		g := MustNew(n, edges)
		comp, sizes := components(g)
		count := make([]int, len(sizes))
		for _, c := range comp {
			if c < 0 || c >= len(sizes) {
				return false
			}
			count[c]++
		}
		for i := range sizes {
			if count[i] != sizes[i] {
				return false
			}
		}
		for u := 0; u < n; u++ {
			for _, v := range g.OutNeighbors(u) {
				if comp[u] != comp[v] {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}
