package core

import (
	"bytes"
	"strconv"
	"testing"

	"bepi/internal/gen"
	"bepi/internal/graph"
	"bepi/internal/lu"
	"bepi/internal/par"
	"bepi/internal/reorder"
	"bepi/internal/sparse"
)

// referenceSchur is S built the way preprocessing built it before the
// shared assembly: the cross term (referenceCross) added to H22 by CSR.Add.
func referenceSchur(h22, h21T, h12T *sparse.CSR, f *lu.BlockLU) *sparse.CSR {
	return h22.Add(referenceCross(h22.Rows(), h21T, h12T, f))
}

// referenceCross is the cross term −H21·H11⁻¹·H12 of an n2×n2 S, every
// column's entries collected as triplets and summed into a CSR by
// COO.ToCSR.
func referenceCross(n2 int, h21T, h12T *sparse.CSR, f *lu.BlockLU) *sparse.CSR {
	w := newSchurScratch(n2, f)
	coo := sparse.NewCOO(n2, n2)
	for j := 0; j < n2; j++ {
		w.column(j, h21T, h12T, f)
		for _, i := range w.touched {
			coo.Add(i, j, w.acc[i])
		}
	}
	return coo.ToCSR()
}

// csrH22 is the H22 column source of a CSR H22: column j is row j of its
// transpose.
func csrH22(h22 *sparse.CSR) func(j int, col []colEntry) []colEntry {
	h22T := h22.Transpose()
	return func(j int, col []colEntry) []colEntry {
		s, e := h22T.RowRange(j)
		vals := h22T.Values()
		for p, i := range h22T.ColIdx()[s:e] {
			col = append(col, colEntry{i, vals[s+p]})
		}
		return col
	}
}

// referenceBuild is preprocessing of g under ord the way it ran before H's
// blocks were built from the graph: BuildH → Partition → FactorBlockDiag →
// referenceSchur. engine stores its result for a variant.
type referenceBuild struct {
	g                  *graph.Graph
	ord                *reorder.Ordering
	h11LU              *lu.BlockLU
	h12, h21, h31, h32 *sparse.CSR
	s                  *sparse.CSR
}

func newReferenceBuild(t *testing.T, g *graph.Graph, ord *reorder.Ordering) *referenceBuild {
	t.Helper()
	n1, l := ord.N1, ord.N1+ord.N2
	blocks := BuildH(g, ord.Perm, DefaultC).Partition([]int{0, n1, l, g.N()}, []int{0, n1, l})
	f, err := lu.FactorBlockDiag(blocks[0][0], ord.Blocks)
	if err != nil {
		t.Fatal(err)
	}
	return &referenceBuild{
		g: g, ord: ord, h11LU: f,
		h12: blocks[0][1], h21: blocks[1][0], h31: blocks[2][0], h32: blocks[2][1],
		s: referenceSchur(blocks[1][1], blocks[1][0].Transpose(), blocks[0][1].Transpose(), f),
	}
}

// engine stores the reference build as variant v's engine: the blocks'
// patterns and weights, and S as FactorDILU's factors, whatever v.
func (r *referenceBuild) engine(t *testing.T, v Variant) *Engine {
	t.Helper()
	l := r.ord.N1 + r.ord.N2
	e := &Engine{
		opts: Options{Variant: v}.withDefaults(), n: r.g.N(), ord: servedOrder(r.ord), h11LU: r.h11LU,
		h12: sparse.PatternOf(r.h12), h21: sparse.PatternOf(r.h21),
		h31: sparse.PatternOf(r.h31), h32: sparse.PatternOf(r.h32),
		hw: make([]float64, l),
	}
	// A column's weight is the value of its every entry in the four blocks,
	// 0 where they hold none.
	for _, b := range []struct {
		m   *sparse.CSR
		off int
	}{{r.h21, 0}, {r.h31, 0}, {r.h12, r.ord.N1}, {r.h32, r.ord.N1}} {
		vals := b.m.Values()
		for p, j := range b.m.ColIdx() {
			e.hw[b.off+j] = vals[p]
		}
	}
	var err error
	if e.ilu, err = lu.FactorDILU(r.s); err != nil {
		t.Fatal(err)
	}
	return e
}

// requireDILUBitsEqual compares two DILU factorizations bit for bit: the
// matrix they hold (L̂'s and Û's strict parts and D_S, by Matrix), and the
// pivots through M⁻¹·x for an x with no zero entry (by Apply: both sweeps
// divide by every pivot).
func requireDILUBitsEqual(t *testing.T, name string, got, want *lu.ILU) {
	t.Helper()
	matBitsEqual(t, name+" S", sparse.Compact(got.Matrix()), sparse.Compact(want.Matrix()))
	x := make([]float64, got.N())
	for i := range x {
		x[i] = 1 + float64(i%7)
	}
	gx, wx := make([]float64, len(x)), make([]float64, len(x))
	got.Apply(gx, x)
	want.Apply(wx, x)
	if !bitsEqual(gx, wx) {
		t.Fatalf("%s: the pivots differ (M⁻¹·x differs by Float64bits)", name)
	}
}

// boundaryGraph is a graph with an identity ordering of n1 spokes (blocks
// of four), n2 hubs and four deadends: spokes point inside their block and
// at hubs, hubs at the next hub, every 97th at a spoke and a deadend, and
// self-loops sit on spokes and on hubs.
func boundaryGraph(n1, n2 int) (*graph.Graph, *reorder.Ordering) {
	const dead = 4
	n := n1 + n2 + dead
	var edges []graph.Edge
	add := func(u, v int) { edges = append(edges, graph.Edge{Src: u, Dst: v}) }
	for s := 0; s < n1; s++ {
		add(s, s/4*4+(s+1)%4)
		add(s, n1+(s*7919)%n2)
		add(s, n1+n2+s%dead)
		if s%3 == 0 {
			add(s, s)
		}
	}
	for h := 0; h < n2; h++ {
		u := n1 + h
		add(u, n1+(h+1)%n2)
		if h%97 == 0 {
			add(u, h%n1)
			add(u, n1+n2+h%dead)
		}
		if h%5 == 0 {
			add(u, u)
		}
	}
	ord := &reorder.Ordering{Perm: make([]int, n), Inv: make([]int, n), N1: n1, N2: n2, N3: dead}
	for u := range ord.Perm {
		ord.Perm[u], ord.Inv[u] = u, u
	}
	for range n1 / 4 {
		ord.Blocks = append(ord.Blocks, 4)
	}
	return graph.MustNew(n, edges), ord
}

// withSelfLoops adds a self-loop to every seventh node with out-edges.
func withSelfLoops(g *graph.Graph) *graph.Graph {
	edges := g.Edges()
	for u := 0; u < g.N(); u += 7 {
		if g.OutDegree(u) > 0 {
			edges = append(edges, graph.Edge{Src: u, Dst: u})
		}
	}
	return graph.MustNew(g.N(), edges)
}

// stored reports whether m holds an entry at (i, j), an explicit zero
// included.
func stored(m *sparse.CSR, i, j int) bool {
	s, e := m.RowRange(i)
	for _, c := range m.ColIdx()[s:e] {
		if c == j {
			return true
		}
	}
	return false
}

// TestSchurAssemblyMatchesReference holds preprocessing's assembly of S —
// H's blocks built from the graph, every column of S computed once into
// per-worker shards and scattered straight into S's DILU triangles —
// against the reference pipeline it replaced, BuildH → Partition →
// FactorBlockDiag → referenceSchur → FactorDILU, S summed from triplets: L̂,
// Û, D_S, the pivots and the saved bytes agree bit for bit, for all three
// variants at one and at four workers. The graphs hold self-loops on hubs
// and on spokes, and S's dimension n2 takes 65 535, 65 536 and 65 537, so
// the factors are built with 16-bit and with 32-bit columns. Hand-built
// blocks, which no graph's M-matrix can give, cover the merge's two exact
// zeros: a cross term cancelling H22 to zero is kept, a cross entry summing
// to zero is dropped. The 32-bit refusal still fires before the scatter
// allocates.
func TestSchurAssemblyMatchesReference(t *testing.T) {
	type fixture struct {
		name string
		g    *graph.Graph
		ord  *reorder.Ordering
	}
	hybrid := withSelfLoops(gen.Hybrid(gen.DefaultHybrid(10, 8, 3)))
	fixtures := []fixture{{"hybrid", hybrid, reorder.HubAndSpoke(hybrid, 0.2)}}
	for _, n2 := range []int{65535, 65536, 65537} {
		g, ord := boundaryGraph(40, n2)
		fixtures = append(fixtures, fixture{"n2=" + strconv.Itoa(n2), g, ord})
	}
	for _, fx := range fixtures {
		loopHub, loopSpoke := false, false
		for u := range fx.g.N() {
			if fx.g.HasEdge(u, u) {
				p := fx.ord.Perm[u]
				loopSpoke = loopSpoke || p < fx.ord.N1
				loopHub = loopHub || (p >= fx.ord.N1 && p < fx.ord.N1+fx.ord.N2)
			}
		}
		if !loopHub || !loopSpoke {
			t.Fatalf("%s: self-loops on a hub %v, on a spoke %v; the fixture needs both", fx.name, loopHub, loopSpoke)
		}
		rb := newReferenceBuild(t, fx.g, fx.ord)
		for _, v := range []Variant{VariantFull, VariantB, VariantS} {
			ref := rb.engine(t, v)
			want := engineBytes(t, ref)
			for _, workers := range []int{1, 4} {
				name := fx.name + " " + v.String() + " workers=" + strconv.Itoa(workers)
				e, err := PreprocessWithOrdering(fx.g, Options{Variant: v, Parallelism: workers}, fx.ord)
				if err != nil {
					t.Fatalf("%s: %v", name, err)
				}
				if e.prep.SchurNNZ != rb.s.NNZ() {
					t.Fatalf("%s: SchurNNZ %d, reference %d", name, e.prep.SchurNNZ, rb.s.NNZ())
				}
				requireDILUBitsEqual(t, name, e.ilu, ref.ilu)
				if got := engineBytes(t, e); !bytes.Equal(got, want) {
					t.Fatalf("%s: saved index differs from the reference's (%d vs %d bytes)", name, len(got), len(want))
				}
			}
		}
	}

	for _, n2 := range []int{6, 65535, 65536, 65537} {
		h22, h21T, h12T, f := cancellingBlocks(t, n2)
		ref := referenceSchur(h22, h21T, h12T, f)
		if !stored(ref, 1, 0) || ref.At(1, 0) != 0 || stored(ref, 3, 2) {
			t.Fatalf("n2=%d: the reference keeps the cancelled entry %v and drops the zero cross entry %v; the fixture is meant to give both",
				n2, stored(ref, 1, 0), !stored(ref, 3, 2))
		}
		refDILU, err := lu.FactorDILU(ref)
		if err != nil {
			t.Fatal(err)
		}
		for _, workers := range []int{1, 4} {
			name := "cancelling n2=" + strconv.Itoa(n2) + " workers=" + strconv.Itoa(workers)
			pool := par.NewPool(workers)
			in := &schurInputs{h11LU: f, h21T: h21T, h12T: h12T, h22: csrH22(h22)}
			tri, _, err := in.triangles(n2, pool)
			if err != nil {
				t.Fatalf("%s: %v", name, err)
			}
			requireDILUBitsEqual(t, name, lu.FactorTriangles(tri), refDILU)
		}
	}

}

// cancellingBlocks returns Schur inputs with two spokes, each its own 1×1
// block of H11 = I, and n2 ≥ 6 hubs with H22 = I plus H22[1][0] = 0.25:
// column 0's cross term −H21[1][0]·H12[0][0] = −0.5·0.5 cancels H22[1][0]
// to an exact zero, and column 2's cross entry at row 3, 1·0.5 − 1·0.5,
// sums to an exact zero with no H22 entry beside it. The last column
// reaches the last row, so the widest indexes are exercised.
func cancellingBlocks(t *testing.T, n2 int) (h22, h21T, h12T *sparse.CSR, f *lu.BlockLU) {
	t.Helper()
	h22c := sparse.NewCOO(n2, n2)
	for i := range n2 {
		h22c.Add(i, i, 1)
	}
	h22c.Add(1, 0, 0.25)
	h12 := sparse.NewCOO(2, n2) // H12: spoke rows, hub columns
	h12.Add(0, 0, 0.5)
	h12.Add(0, 2, 0.5)
	h12.Add(1, 2, 0.5)
	h12.Add(1, n2-1, 0.25)
	h21 := sparse.NewCOO(n2, 2) // H21: hub rows, spoke columns
	h21.Add(1, 0, 0.5)
	h21.Add(3, 0, 1)
	h21.Add(3, 1, -1)
	h21.Add(n2-1, 1, 0.5)
	f, err := lu.FactorBlockDiag(sparse.Identity(2), []int{1, 1})
	if err != nil {
		t.Fatal(err)
	}
	return h22c.ToCSR(), h21.ToCSR().Transpose(), h12.ToCSR().Transpose(), f
}
