package core

import (
	"bytes"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"strings"
	"testing"

	"bepi/internal/gen"
	"bepi/internal/graph"
	"bepi/internal/sparse"
)

// applyOpsToGraph materializes the updated graph a delta describes.
func applyOpsToGraph(g *graph.Graph, n int, ops []EdgeDelta) *graph.Graph {
	set := make(map[[2]int]bool)
	for _, e := range g.Edges() {
		set[[2]int{e.Src, e.Dst}] = true
	}
	for _, op := range ops {
		if op.Insert {
			set[[2]int{op.Src, op.Dst}] = true
		} else {
			delete(set, [2]int{op.Src, op.Dst})
		}
	}
	edges := make([]graph.Edge, 0, len(set))
	for k := range set {
		edges = append(edges, graph.Edge{Src: k[0], Dst: k[1]})
	}
	return graph.MustNew(n, edges)
}

// genSpokeDeltaOps builds a batch of ops every one of which ApplyDelta can
// absorb exactly: spoke sources, targets confined to the source's own H11
// block or to hubs/deadends.
func genSpokeDeltaOps(rng *rand.Rand, g *graph.Graph, e *Engine, count int) []EdgeDelta {
	ord := e.Ordering()
	n1 := ord.N1
	var spokes []int
	for u := 0; u < g.N(); u++ {
		if ord.Perm[u] < n1 {
			spokes = append(spokes, u)
		}
	}
	if len(spokes) == 0 {
		return nil
	}
	var ops []EdgeDelta
	used := make(map[[2]int]bool)
	for guard := 0; len(ops) < count && guard < 100*count; guard++ {
		u := spokes[rng.Intn(len(spokes))]
		if rng.Intn(2) == 0 && g.OutDegree(u) > 1 {
			nbrs := g.OutNeighbors(u)
			v := int(nbrs[rng.Intn(len(nbrs))])
			if used[[2]int{u, v}] {
				continue
			}
			used[[2]int{u, v}] = true
			ops = append(ops, EdgeDelta{Src: u, Dst: v, Insert: false})
			continue
		}
		b := e.h11LU.BlockOf(ord.Perm[u])
		lo, hi := e.h11LU.BlockRange(b)
		var pv int
		if rng.Intn(2) == 0 {
			pv = lo + rng.Intn(hi-lo)
		} else {
			pv = n1 + rng.Intn(g.N()-n1)
		}
		v := ord.Inv[pv]
		if g.HasEdge(u, v) || used[[2]int{u, v}] {
			continue
		}
		used[[2]int{u, v}] = true
		ops = append(ops, EdgeDelta{Src: u, Dst: v, Insert: true})
	}
	return ops
}

// genHubDeltaOps builds ops whose sources are hubs (targets unconstrained).
func genHubDeltaOps(rng *rand.Rand, g *graph.Graph, e *Engine, count int) []EdgeDelta {
	ord := e.Ordering()
	n1, l := ord.N1, ord.N1+ord.N2
	var hubs []int
	for u := 0; u < g.N(); u++ {
		if p := ord.Perm[u]; p >= n1 && p < l {
			hubs = append(hubs, u)
		}
	}
	if len(hubs) == 0 {
		return nil
	}
	var ops []EdgeDelta
	used := make(map[[2]int]bool)
	for guard := 0; len(ops) < count && guard < 100*count; guard++ {
		u := hubs[rng.Intn(len(hubs))]
		if rng.Intn(2) == 0 && g.OutDegree(u) > 1 {
			nbrs := g.OutNeighbors(u)
			v := int(nbrs[rng.Intn(len(nbrs))])
			if used[[2]int{u, v}] {
				continue
			}
			used[[2]int{u, v}] = true
			ops = append(ops, EdgeDelta{Src: u, Dst: v, Insert: false})
			continue
		}
		v := rng.Intn(g.N())
		if g.HasEdge(u, v) || used[[2]int{u, v}] {
			continue
		}
		used[[2]int{u, v}] = true
		ops = append(ops, EdgeDelta{Src: u, Dst: v, Insert: true})
	}
	return ops
}

// matBitsEqual compares two stored matrices entry-for-entry including the
// exact float bits and the sparsity pattern (explicit zeros included).
func matBitsEqual(t *testing.T, name string, a, b *sparse.CSR32) {
	t.Helper()
	if (a == nil) != (b == nil) {
		t.Fatalf("%s: nil mismatch", name)
	}
	if a == nil {
		return
	}
	aw, bw := a.ToCSR(), b.ToCSR()
	if aw.Rows() != bw.Rows() || aw.Cols() != bw.Cols() || aw.NNZ() != bw.NNZ() {
		t.Fatalf("%s: shape/nnz mismatch %dx%d/%d vs %dx%d/%d",
			name, aw.Rows(), aw.Cols(), aw.NNZ(), bw.Rows(), bw.Cols(), bw.NNZ())
	}
	for i := 0; i < aw.Rows(); i++ {
		as, ae := aw.RowRange(i)
		bs, be := bw.RowRange(i)
		if ae-as != be-bs {
			t.Fatalf("%s: row %d length differs", name, i)
		}
		for k := 0; k < ae-as; k++ {
			if aw.ColIdx()[as+k] != bw.ColIdx()[bs+k] {
				t.Fatalf("%s: row %d pattern differs", name, i)
			}
			av, bv := aw.Values()[as+k], bw.Values()[bs+k]
			if math.Float64bits(av) != math.Float64bits(bv) {
				t.Fatalf("%s: row %d col %d: %v vs %v (bits differ)", name, i, aw.ColIdx()[as+k], av, bv)
			}
		}
	}
}

// requireHBitsEqual compares two engines' stored H blocks as the valued
// matrices they stand for — each pattern times the weights it reads — with
// matBitsEqual, and their weights bit for bit, canonical zeros included.
func requireHBitsEqual(t *testing.T, a, b *Engine) {
	t.Helper()
	av, bv := valuedH(a), valuedH(b)
	for i, name := range []string{"h12", "h21", "h31", "h32"} {
		matBitsEqual(t, name, av[i], bv[i])
	}
	if !bitsEqual(a.hw, b.hw) {
		t.Fatal("H weights differ")
	}
}

// valuedH is an engine's H12, H21, H31 and H32, each pattern expanded with
// the slice of the weights it reads.
func valuedH(e *Engine) [4]*sparse.CSR32 {
	spoke, hub := e.hw[:e.ord.n1], e.hw[e.ord.n1:]
	return [4]*sparse.CSR32{
		sparse.Compact(e.h12.Expand(hub)),
		sparse.Compact(e.h21.Expand(spoke)),
		sparse.Compact(e.h31.Expand(spoke)),
		sparse.Compact(e.h32.Expand(hub)),
	}
}

// requireQueryBitsEqual runs queries on both engines and demands
// bit-identical result vectors — the strongest end-to-end check, covering
// the factors, the ILU, and the solve trajectory.
func requireQueryBitsEqual(t *testing.T, a, b *Engine, seeds []int) {
	t.Helper()
	for _, s := range seeds {
		ra, _, err := a.Query(s)
		if err != nil {
			t.Fatalf("seed %d: delta engine: %v", s, err)
		}
		rb, _, err := b.Query(s)
		if err != nil {
			t.Fatalf("seed %d: reference engine: %v", s, err)
		}
		for i := range ra {
			if math.Float64bits(ra[i]) != math.Float64bits(rb[i]) {
				t.Fatalf("seed %d: result differs at %d: %v vs %v", s, i, ra[i], rb[i])
			}
		}
	}
}

// engineBytes serializes an engine.
func engineBytes(t *testing.T, e *Engine) []byte {
	t.Helper()
	var buf bytes.Buffer
	if _, err := e.WriteTo(&buf); err != nil {
		t.Fatalf("WriteTo: %v", err)
	}
	return buf.Bytes()
}

// reloaded is the engine after a save/load round trip.
func reloaded(t *testing.T, e *Engine) *Engine {
	t.Helper()
	loaded, err := ReadEngine(bytes.NewReader(engineBytes(t, e)))
	if err != nil {
		t.Fatalf("reload: %v", err)
	}
	return loaded
}

// requireSchurStoredOnce checks the engine's storage invariant: S lives in
// one structure, its DILU factors, whatever the variant — PrepStats reports
// their entry count, and MemoryBytes() is the sum of the arrays the engine
// retains, worked out here from their lengths (int32 row pointers and
// 16-bit columns at test sizes): the H blocks as patterns, 2 bytes per
// entry, one weight per non-deadend node, and S at 10 bytes an entry, two
// row-pointer arrays and D_S.
func requireSchurStoredOnce(t *testing.T, e *Engine) {
	t.Helper()
	if e.ilu == nil || e.ilu.N() != e.ord.n2 {
		t.Fatalf("%v engine: S's factors are not held for its %d hubs", e.opts.Variant, e.ord.n2)
	}
	pattern := func(m *sparse.Pattern) int64 { return 2*int64(m.NNZ()) + 4*int64(m.Rows()+1) }
	nnz, n2 := e.ilu.NNZ(), int64(e.ord.n2)
	want := pattern(e.h12) + pattern(e.h21) + pattern(e.h31) + pattern(e.h32) +
		8*int64(e.ord.n1+e.ord.n2) + e.h11LU.MemoryBytes() + 4*int64(e.n) +
		10*int64(nnz) + 2*4*(n2+1) + 8*n2
	if got := e.MemoryBytes(); got != want {
		t.Fatalf("MemoryBytes() = %d, the retained arrays sum to %d", got, want)
	}
	if e.prep.SchurNNZ != nnz {
		t.Fatalf("PrepStats.SchurNNZ = %d, S holds %d entries", e.prep.SchurNNZ, nnz)
	}
}

// requireMatchesFullPreprocess is the one contract every absorbed delta
// has: the engine is bit-identical to PreprocessWithOrdering of the graph it
// serves under its own ordering — the four stored H patterns and their
// weights, S, four seeds' scores, the saved bytes, and MemoryBytes().
func requireMatchesFullPreprocess(t *testing.T, e *Engine, g *graph.Graph) {
	t.Helper()
	ref, err := PreprocessWithOrdering(g, e.opts, e.Ordering())
	if err != nil {
		t.Fatalf("reference preprocess: %v", err)
	}
	requireSchurStoredOnce(t, e)
	requireHBitsEqual(t, e, ref)
	requireDILUBitsEqual(t, "schur", e.ilu, ref.ilu)
	requireQueryBitsEqual(t, e, ref, []int{0, 1, g.N() / 2, g.N() - 1})
	if !bytes.Equal(engineBytes(t, e), engineBytes(t, ref)) {
		t.Fatal("saved bytes differ from the full preprocess's")
	}
	if got, want := e.MemoryBytes(), ref.MemoryBytes(); got != want {
		t.Fatalf("MemoryBytes() = %d, a full preprocess of the same graph occupies %d", got, want)
	}
}

// deltaKind names a shape of delta; every one of them is absorbed exactly.
type deltaKind string

const (
	kindSpoke  deltaKind = "spoke"
	kindHub    deltaKind = "hub"
	kindMixed  deltaKind = "mixed"
	kindGrowth deltaKind = "growth"
)

// genDelta builds one delta of the given kind against the engine's graph
// and returns it with the updated graph. Growth adds two nodes and points a
// spoke and a hub at them, except on a chain's first step (step 0), which
// grows the node set and nothing else.
func genDelta(t *testing.T, rng *rand.Rand, kind deltaKind, step int, g *graph.Graph, e *Engine) ([]EdgeDelta, *graph.Graph) {
	t.Helper()
	var ops []EdgeDelta
	n := g.N()
	switch kind {
	case kindSpoke:
		ops = genSpokeDeltaOps(rng, g, e, 12)
	case kindHub:
		ops = genHubDeltaOps(rng, g, e, 4)
	case kindMixed:
		ops = append(genSpokeDeltaOps(rng, g, e, 8), genHubDeltaOps(rng, g, e, 3)...)
	case kindGrowth:
		n += 2
		if step > 0 {
			// One spoke and one hub each gain an edge to a new (deadend) node.
			n1, l := e.ord.n1, e.ord.n1+e.ord.n2
			if n1 == 0 || l == n1 {
				t.Skip("fixture lacks a spoke or a hub")
			}
			inv := e.ord.inverse()
			ops = []EdgeDelta{
				{Src: int(inv[0]), Dst: g.N(), Insert: true},
				{Src: int(inv[l-1]), Dst: g.N() + 1, Insert: true},
			}
		}
	}
	if len(ops) == 0 && n == g.N() {
		t.Skipf("no %s ops generable", kind)
	}
	return ops, applyOpsToGraph(g, n, ops)
}

// wantClass is the class ApplyDelta must report for a delta.
func wantClass(e *Engine, ops []EdgeDelta) DeltaClass {
	for _, op := range ops {
		if int(e.ord.perm[op.Src]) >= e.ord.n1 {
			return DeltaHub
		}
	}
	return DeltaSpoke
}

// requireBlocksShared checks the copy-on-write contract on H's patterns: a
// delta with spoke sources only leaves H12 and H32, which hold hub columns,
// the receiver's own, and one with hub sources only H21 and H31.
func requireBlocksShared(t *testing.T, e, ne *Engine, kind deltaKind) {
	t.Helper()
	switch {
	case kind == kindSpoke && (ne.h12 != e.h12 || ne.h32 != e.h32):
		t.Fatal("a spoke delta copied H12 or H32")
	case kind == kindHub && (ne.h21 != e.h21 || ne.h31 != e.h31):
		t.Fatal("a hub delta copied H21 or H31")
	}
}

// runDeltaBitIdentical is the core property: chains of three deltas of one
// kind, each link bit-identical to a full preprocess of the updated graph
// under the reused ordering, on an R-MAT graph, a pathological near-uniform
// one and the benchmark's generator, across variants.
func runDeltaBitIdentical(t *testing.T, kind deltaKind) {
	graphs := map[string]*graph.Graph{
		"rmat":      gen.RMAT(gen.DefaultRMAT(8, 6, 17)),
		"ws":        gen.WattsStrogatz(300, 6, 0.05, 3),
		"hybrid-11": gen.Hybrid(gen.DefaultHybrid(11, 14, 1)),
	}
	cases := []struct {
		name string
		opts Options
	}{
		{"full", Options{Variant: VariantFull, HubRatio: 0.2, Tol: 1e-10}},
		{"b", Options{Variant: VariantB, HubRatio: 0.01, Tol: 1e-10}},
	}
	for gname, g := range graphs {
		for _, tc := range cases {
			t.Run(gname+"/"+tc.name, func(t *testing.T) {
				rng := rand.New(rand.NewSource(91))
				e, err := Preprocess(g, tc.opts)
				if err != nil {
					t.Fatal(err)
				}
				g := g
				for step := 0; step < 3; step++ {
					ops, gNew := genDelta(t, rng, kind, step, g, e)
					before := engineBytes(t, e)
					ne, st, err := e.ApplyDelta(gNew, ops)
					if err != nil {
						t.Fatalf("step %d: ApplyDelta: %v", step, err)
					}
					if !bytes.Equal(engineBytes(t, e), before) {
						t.Fatalf("step %d: ApplyDelta changed its receiver", step)
					}
					requireBlocksShared(t, e, ne, kind)
					if want := wantClass(e, ops); st.Class != want {
						t.Fatalf("step %d: class %v, want %v", step, st.Class, want)
					}
					if len(ops) > 0 && st.AffectedColumns == 0 {
						t.Fatalf("step %d: stats %+v: expected affected columns", step, st)
					}
					if kind == kindSpoke && st.TouchedBlocks == 0 {
						t.Fatalf("step %d: stats %+v: expected touched blocks", step, st)
					}
					requireMatchesFullPreprocess(t, ne, gNew)
					e, g = ne, gNew
				}
			})
		}
	}
}

// TestDeltaSpokeBitIdentical: the spoke rows of the property.
func TestDeltaSpokeBitIdentical(t *testing.T) { runDeltaBitIdentical(t, kindSpoke) }

// TestDeltaBitIdentical: the same property for hub-touching, mixed and
// node-growth deltas — one contract for every delta the ordering absorbs.
func TestDeltaBitIdentical(t *testing.T) {
	for _, kind := range []deltaKind{kindHub, kindMixed, kindGrowth} {
		t.Run(string(kind), func(t *testing.T) { runDeltaBitIdentical(t, kind) })
	}
}

// TestDeltaLongHubColumnBitIdentical: a hub's H22 column is as long as the
// hub's out-degree among hubs — thousands of entries for a top hub, not the
// handful the R-MAT fixtures above reach. A star whose centre points at every
// node, with a small clique beside it and nine nodes in ten taken as hubs,
// gives the centre a column of over 2 000 entries; a delta that deletes three
// of its edges and adds its self-loop (the one two-term cell h22Column
// sums) is absorbed exactly, by the built engine and by its reload.
func TestDeltaLongHubColumnBitIdentical(t *testing.T) {
	const n, clique = 2600, 8
	var edges []graph.Edge
	for v := 1; v < n; v++ {
		edges = append(edges, graph.Edge{Src: 0, Dst: v}, graph.Edge{Src: v, Dst: 0})
	}
	for u := 1; u <= clique; u++ {
		for v := 1; v <= clique; v++ {
			if u != v {
				edges = append(edges, graph.Edge{Src: u, Dst: v})
			}
		}
	}
	g := graph.MustNew(n, edges)
	built, err := Preprocess(g, Options{HubRatio: 0.9})
	if err != nil {
		t.Fatal(err)
	}
	ord := built.ord
	if p := int(ord.perm[0]); p < ord.n1 || p >= ord.n1+ord.n2 {
		t.Fatalf("the star's centre is at %d, outside the hub range [%d,%d)", p, ord.n1, ord.n1+ord.n2)
	}
	if d := len(h22Column(g, ord, built.opts.C, int(ord.perm[0])-ord.n1, 0, nil)); d < 2000 {
		t.Fatalf("the centre's H22 column has %d entries, the fixture is meant to give it 2000", d)
	}
	ops := []EdgeDelta{
		{Src: 0, Dst: 0, Insert: true},
		{Src: 0, Dst: 2, Insert: false},
		{Src: 0, Dst: n / 2, Insert: false},
		{Src: 0, Dst: n - 1, Insert: false},
		{Src: 3, Dst: 4, Insert: false},
	}
	gNew := applyOpsToGraph(g, n, ops)
	for name, e := range map[string]*Engine{"built": built, "loaded": reloaded(t, built)} {
		ne, st, err := e.ApplyDelta(gNew, ops)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if st.Class != DeltaHub {
			t.Fatalf("%s: class %v, want %v", name, st.Class, DeltaHub)
		}
		requireMatchesFullPreprocess(t, ne, gNew)
	}
}

// TestDeltaSequentialSpoke chains two spoke deltas and checks the second
// result is still bit-identical to a from-scratch preprocess — patches
// compose without error accumulation.
func TestDeltaSequentialSpoke(t *testing.T) {
	g := gen.RMAT(gen.DefaultRMAT(8, 6, 29))
	opts := Options{Variant: VariantFull, HubRatio: 0.2, Tol: 1e-10}
	e0, err := Preprocess(g, opts)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(5))
	ops1 := genSpokeDeltaOps(rng, g, e0, 6)
	g1 := applyOpsToGraph(g, g.N(), ops1)
	e1, _, err := e0.ApplyDelta(g1, ops1)
	if err != nil {
		t.Fatal(err)
	}
	ops2 := genSpokeDeltaOps(rng, g1, e1, 6)
	g2 := applyOpsToGraph(g1, g1.N(), ops2)
	e2, _, err := e1.ApplyDelta(g2, ops2)
	if err != nil {
		t.Fatal(err)
	}
	ref, err := PreprocessWithOrdering(g2, opts, e2.Ordering())
	if err != nil {
		t.Fatal(err)
	}
	requireDILUBitsEqual(t, "schur", e2.ilu, ref.ilu)
	requireQueryBitsEqual(t, e2, ref, []int{2, g.N() / 3})
}

// TestDeltaNodeGrowth checks pure node growth plus spoke edges toward the
// new nodes: the ordering grows an identity tail, H31/H32 gain rows, and
// the result matches a full preprocess bit-for-bit. It also pins the
// satellite bug: a growth-only delta (no ops) must still produce an engine
// covering the new nodes.
func TestDeltaNodeGrowth(t *testing.T) {
	g := gen.RMAT(gen.DefaultRMAT(8, 6, 33))
	opts := Options{Variant: VariantFull, HubRatio: 0.2, Tol: 1e-10}
	e0, err := Preprocess(g, opts)
	if err != nil {
		t.Fatal(err)
	}

	// Growth only: three nodes, no edges.
	gGrow := graph.MustNew(g.N()+3, g.Edges())
	e1, st, err := e0.ApplyDelta(gGrow, nil)
	if err != nil {
		t.Fatal(err)
	}
	if st.Class != DeltaSpoke || st.NewNodes != 3 {
		t.Fatalf("stats %+v, want spoke class with 3 new nodes", st)
	}
	if e1.N() != g.N()+3 {
		t.Fatalf("engine covers %d nodes, want %d", e1.N(), g.N()+3)
	}
	r, _, err := e1.Query(g.N() + 1) // seed at a brand-new node
	if err != nil {
		t.Fatal(err)
	}
	if r[g.N()+1] <= 0 {
		t.Fatal("new node got no restart mass")
	}

	// Growth plus spoke edges pointing at the new (deadend) nodes.
	rng := rand.New(rand.NewSource(8))
	var ops []EdgeDelta
	for u := 0; u < g.N() && len(ops) < 4; u++ {
		if int(e0.ord.perm[u]) < e0.ord.n1 && !g.HasEdge(u, g.N()+len(ops)) {
			ops = append(ops, EdgeDelta{Src: u, Dst: g.N() + len(ops), Insert: true})
		}
	}
	_ = rng
	gNew := applyOpsToGraph(g, g.N()+3, ops[:3])
	e2, st2, err := e0.ApplyDelta(gNew, ops[:3])
	if err != nil {
		t.Fatal(err)
	}
	if st2.Class != DeltaSpoke {
		t.Fatalf("class %v, want DeltaSpoke", st2.Class)
	}
	ref, err := PreprocessWithOrdering(gNew, opts, e2.Ordering())
	if err != nil {
		t.Fatal(err)
	}
	requireHBitsEqual(t, e2, ref)
	requireDILUBitsEqual(t, "schur", e2.ilu, ref.ilu)
	requireQueryBitsEqual(t, e2, ref, []int{0, g.N() + 2})
}

// TestDeltaFullClassification checks every refusal path returns
// ErrDeltaFull without mutating the receiver.
func TestDeltaFullClassification(t *testing.T) {
	g := gen.RMAT(gen.DefaultRMAT(8, 6, 53))
	opts := Options{Variant: VariantFull, HubRatio: 0.2, Tol: 1e-10}
	e0, err := Preprocess(g, opts)
	if err != nil {
		t.Fatal(err)
	}
	ord := e0.Ordering()
	n1, l := ord.N1, ord.N1+ord.N2

	// A deadend gaining its first out-edge.
	var dead int = -1
	for u := 0; u < g.N(); u++ {
		if ord.Perm[u] >= l {
			dead = u
			break
		}
	}
	if dead >= 0 {
		ops := []EdgeDelta{{Src: dead, Dst: 0, Insert: true}}
		gNew := applyOpsToGraph(g, g.N(), ops)
		if _, _, err := e0.ApplyDelta(gNew, ops); !errors.Is(err, ErrDeltaFull) {
			t.Fatalf("deadend source: err=%v, want ErrDeltaFull", err)
		}
	}

	// A spoke edge crossing H11 blocks.
	if len(ord.Blocks) >= 2 {
		var crossOp EdgeDelta
		found := false
	outer:
		for u := 0; u < g.N() && !found; u++ {
			pu := ord.Perm[u]
			if pu >= n1 {
				continue
			}
			b := e0.h11LU.BlockOf(pu)
			for pv := 0; pv < n1; pv++ {
				if e0.h11LU.BlockOf(pv) != b && !g.HasEdge(u, ord.Inv[pv]) {
					crossOp = EdgeDelta{Src: u, Dst: ord.Inv[pv], Insert: true}
					found = true
					continue outer
				}
			}
		}
		if found {
			gNew := applyOpsToGraph(g, g.N(), []EdgeDelta{crossOp})
			if _, _, err := e0.ApplyDelta(gNew, []EdgeDelta{crossOp}); !errors.Is(err, ErrDeltaFull) {
				t.Fatalf("cross-block edge: err=%v, want ErrDeltaFull", err)
			}
		}
	}

	// A new node with out-edges.
	ops := []EdgeDelta{{Src: g.N(), Dst: 0, Insert: true}}
	gNew := applyOpsToGraph(g, g.N()+1, ops)
	if _, _, err := e0.ApplyDelta(gNew, ops); !errors.Is(err, ErrDeltaFull) {
		t.Fatalf("new-node source: err=%v, want ErrDeltaFull", err)
	}

	// An op inconsistent with the updated graph: claims an insert the
	// graph doesn't contain.
	badDst := -1
	for v := 0; v < g.N(); v++ {
		if !g.HasEdge(0, v) {
			badDst = v
			break
		}
	}
	if badDst >= 0 {
		bad := []EdgeDelta{{Src: 0, Dst: badDst, Insert: true}}
		if _, _, err := e0.ApplyDelta(g, bad); !errors.Is(err, ErrDeltaFull) {
			t.Fatalf("inconsistent op: err=%v, want ErrDeltaFull", err)
		}
	}

	// A shrinking graph.
	small := graph.MustNew(2, nil)
	if _, _, err := e0.ApplyDelta(small, nil); !errors.Is(err, ErrDeltaFull) {
		t.Fatalf("shrink: err=%v, want ErrDeltaFull", err)
	}

	// The receiver must still answer correctly after all refusals.
	if _, _, err := e0.Query(0); err != nil {
		t.Fatalf("receiver corrupted by refused deltas: %v", err)
	}
}

// TestDeltaCrossingRefusalIsDeterministic: a delta with two block-crossing
// sources is refused with one reason, run after run, naming the smaller
// source — not whichever one the map of sources happened to yield first.
func TestDeltaCrossingRefusalIsDeterministic(t *testing.T) {
	g := gen.RMAT(gen.DefaultRMAT(8, 6, 53))
	e, err := Preprocess(g, Options{})
	if err != nil {
		t.Fatal(err)
	}
	ord := e.Ordering()
	if len(ord.Blocks) < 2 {
		t.Fatalf("fixture has %d H11 blocks; want at least 2", len(ord.Blocks))
	}
	// Spokes are numbered block by block, so the first and the last spoke
	// sit in different blocks, and no edge joins them yet.
	first, last := ord.Inv[0], ord.Inv[ord.N1-1]
	ops := []EdgeDelta{{Src: first, Dst: last, Insert: true}, {Src: last, Dst: first, Insert: true}}
	gNew := applyOpsToGraph(g, g.N(), ops)
	want := fmt.Sprintf("edge %d→", min(first, last))
	var reason string
	for run := 0; run < 50; run++ {
		_, _, err := e.ApplyDelta(gNew, ops)
		if !errors.Is(err, ErrDeltaFull) || !strings.Contains(err.Error(), want) {
			t.Fatalf("run %d: %v, want ErrDeltaFull naming %q", run, err, want)
		}
		if run > 0 && err.Error() != reason {
			t.Fatalf("run %d: reason %q, run 0 gave %q", run, err, reason)
		}
		reason = err.Error()
	}
}
