package core

import (
	"bytes"
	"math"
	"math/rand"
	"slices"
	"sync"
	"testing"

	"bepi/internal/gen"
	"bepi/internal/graph"
	"bepi/internal/par"
	"bepi/internal/reorder"
)

// emittedColumns runs SchurColumns on g under ord over a pool of workers
// and returns the columns it emits, stored at their index j (workers emit
// distinct columns concurrently), and the profile.
func emittedColumns(t *testing.T, g *graph.Graph, ord *reorder.Ordering, workers int) ([]schurColumn, SchurProfile) {
	t.Helper()
	cols := make([]schurColumn, ord.N2)
	_, p, err := SchurColumns(g, ord, DefaultC, par.NewPool(workers), func(j int, rows []uint32, vals []float64) {
		cols[j] = schurColumn{j, slices.Clone(rows), slices.Clone(vals)}
	})
	if err != nil {
		t.Fatal(err)
	}
	return cols, p
}

// schurColumn is one column of S as SchurColumns emits it.
type schurColumn struct {
	j    int
	rows []uint32
	vals []float64
}

// schurBothWays computes the columns of S of g on one worker and on a pool
// of workers and requires the two runs to emit the same columns, row for
// row and bit for bit, and the same profile. Graphs whose ordering has no
// spokes or no hubs are skipped (nothing to eliminate).
func schurBothWays(t *testing.T, g *graph.Graph, k float64, workers int) bool {
	t.Helper()
	ord := reorder.HubAndSpoke(g, k)
	if ord.N1 == 0 || ord.N2 == 0 {
		return false
	}
	want, wp := emittedColumns(t, g, ord, 1)
	got, gp := emittedColumns(t, g, ord, workers)
	if gp != wp {
		t.Fatalf("workers=%d: profile %+v, serial %+v", workers, gp, wp)
	}
	if len(got) != len(want) {
		t.Fatalf("workers=%d: %d columns emitted, serial %d", workers, len(got), len(want))
	}
	for c, w := range want {
		if w.j != c {
			t.Fatalf("serial run emitted column %d in place %d", w.j, c)
		}
		if got[c].j != w.j || !slices.Equal(got[c].rows, w.rows) || !bitsEqual(got[c].vals, w.vals) {
			t.Fatalf("parallel Schur (workers=%d) differs from serial in column %d on n=%d m=%d", workers, w.j, g.N(), g.M())
		}
	}
	return true
}

// TestSchurComplementParallelMatchesSerialRMAT checks bit-identity of the
// column-partitioned Schur build on power-law graphs at several widths.
func TestSchurComplementParallelMatchesSerialRMAT(t *testing.T) {
	for _, scale := range []int{8, 10} {
		g := gen.RMAT(gen.DefaultRMAT(scale, 8, int64(scale)))
		for _, workers := range []int{2, 5, 16} {
			if !schurBothWays(t, g, 0.2, workers) {
				t.Fatalf("scale %d produced a degenerate ordering", scale)
			}
		}
	}
}

// pathologicalGraphs are shapes that stress the partitioner and the
// degenerate corners of the block structure: a star (one hub owning every
// edge), a chain (blocks of size 1, sparse coupling), a clique plus pendant
// spokes, and a heavy-deadend random graph.
func pathologicalGraphs() []*graph.Graph {
	var cases []*graph.Graph

	// Star: node 0 is the single hub, everything else spokes.
	n := 400
	var edges []graph.Edge
	for i := 1; i < n; i++ {
		edges = append(edges, graph.Edge{Src: i, Dst: 0}, graph.Edge{Src: 0, Dst: i})
	}
	cases = append(cases, graph.MustNew(n, edges))

	// Chain: 0→1→…→n-1 with a few back edges.
	edges = nil
	for i := 0; i+1 < n; i++ {
		edges = append(edges, graph.Edge{Src: i, Dst: i + 1})
		if i%7 == 0 {
			edges = append(edges, graph.Edge{Src: i + 1, Dst: i})
		}
	}
	cases = append(cases, graph.MustNew(n, edges))

	// Clique core with pendant spokes: hubs are dense among themselves.
	edges = nil
	core := 20
	for i := 0; i < core; i++ {
		for j := 0; j < core; j++ {
			if i != j {
				edges = append(edges, graph.Edge{Src: i, Dst: j})
			}
		}
	}
	for i := core; i < n; i++ {
		edges = append(edges, graph.Edge{Src: i, Dst: i % core}, graph.Edge{Src: i % core, Dst: i})
	}
	cases = append(cases, graph.MustNew(n, edges))

	// Random with a large deadend share.
	rng := rand.New(rand.NewSource(99))
	return append(cases, randGraph(rng, 300))
}

// TestSchurComplementParallelMatchesSerialPathological drives the parallel
// build through the pathological shapes.
func TestSchurComplementParallelMatchesSerialPathological(t *testing.T) {
	ran := 0
	for ci, g := range pathologicalGraphs() {
		for _, k := range []float64{0.05, 0.3} {
			if schurBothWays(t, g, k, 8) {
				ran++
			} else {
				t.Logf("case %d k=%v skipped (degenerate ordering)", ci, k)
			}
		}
	}
	if ran == 0 {
		t.Fatal("every pathological case degenerated; test checked nothing")
	}
}

// TestPreprocessParallelismBitIdentical preprocesses the same graph on 1,
// 2, 3 and 4 workers — SlashBurn's undirected view, H's patterns, S's
// columns and their scatter into its triangles all run on the pool — and
// requires the saved index to be the same bytes each time, and the stored
// matrices and every query answer of the serial and the 4-worker engine to
// be bit-identical.
func TestPreprocessParallelismBitIdentical(t *testing.T) {
	g := gen.RMAT(gen.DefaultRMAT(10, 8, 5))
	var saved [][]byte
	for _, workers := range []int{1, 2, 3, 4} {
		e, err := Preprocess(g, Options{Variant: VariantFull, Tol: 1e-10, Parallelism: workers})
		if err != nil {
			t.Fatal(err)
		}
		var buf bytes.Buffer
		if _, err := e.WriteTo(&buf); err != nil {
			t.Fatal(err)
		}
		saved = append(saved, buf.Bytes())
		if !bytes.Equal(buf.Bytes(), saved[0]) {
			t.Fatalf("the index built on %d workers saves %d bytes differing from the serial build's %d", workers, buf.Len(), len(saved[0]))
		}
	}
	serial, err := Preprocess(g, Options{Variant: VariantFull, Tol: 1e-10, Parallelism: 1})
	if err != nil {
		t.Fatal(err)
	}
	parl, err := Preprocess(g, Options{Variant: VariantFull, Tol: 1e-10, Parallelism: 4})
	if err != nil {
		t.Fatal(err)
	}
	if sw, pw := serial.PrepStats().Workers, parl.PrepStats().Workers; sw != 1 || pw != 4 {
		t.Fatalf("PrepStats.Workers = %d / %d, want 1 / 4", sw, pw)
	}
	if !parl.Schur().Equal(serial.Schur()) {
		t.Fatal("parallel preprocessing built a different Schur complement")
	}
	rng := rand.New(rand.NewSource(6))
	for q := 0; q < 5; q++ {
		seed := rng.Intn(g.N())
		want, wst, err := serial.Query(seed)
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		got, gst, err := parl.Query(seed)
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		if gst.Iterations != wst.Iterations {
			t.Fatalf("seed %d: %d iterations parallel vs %d serial", seed, gst.Iterations, wst.Iterations)
		}
		for i := range got {
			if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
				t.Fatalf("seed %d: r[%d] = %v parallel vs %v serial", seed, i, got[i], want[i])
			}
		}
	}
}

// TestChooseHubRatioPoolMatchesSerial checks the concurrent candidate
// profiling returns exactly the serial selection.
func TestChooseHubRatioPoolMatchesSerial(t *testing.T) {
	g := gen.RMAT(gen.DefaultRMAT(8, 6, 7))
	candidates := []float64{0.05, 0.1, 0.2, 0.3, 0.5}
	wantK, wantProfiles, err := ChooseHubRatioPool(g, candidates, DefaultC, nil)
	if err != nil {
		t.Fatal(err)
	}
	gotK, gotProfiles, err := ChooseHubRatioPool(g, candidates, DefaultC, par.NewPool(4))
	if err != nil {
		t.Fatal(err)
	}
	if gotK != wantK {
		t.Fatalf("ChooseHubRatioPool picked k=%v, serial picked %v", gotK, wantK)
	}
	if len(gotProfiles) != len(wantProfiles) {
		t.Fatalf("profile count %d vs %d", len(gotProfiles), len(wantProfiles))
	}
	for i := range gotProfiles {
		if gotProfiles[i] != wantProfiles[i] {
			t.Fatalf("profile %d: %+v vs %+v", i, gotProfiles[i], wantProfiles[i])
		}
	}
}

// TestConcurrentEngineBuildsSharedPool preprocesses several graphs at once
// with the default Parallelism (the process-wide shared pool) and checks
// each result against its own serial build. Primarily a -race target: it
// exercises pool sharing between concurrent Schur builds, factorizations
// and query streams.
func TestConcurrentEngineBuildsSharedPool(t *testing.T) {
	const builders = 4
	graphs := make([]*graph.Graph, builders)
	serials := make([]*Engine, builders)
	for i := range graphs {
		graphs[i] = gen.RMAT(gen.DefaultRMAT(8, 6, int64(40+i)))
		e, err := Preprocess(graphs[i], Options{Variant: VariantFull, Tol: 1e-9, Parallelism: 1})
		if err != nil {
			t.Fatal(err)
		}
		serials[i] = e
	}
	var wg sync.WaitGroup
	errs := make([]error, builders)
	engines := make([]*Engine, builders)
	for i := 0; i < builders; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			e, err := Preprocess(graphs[i], Options{Variant: VariantFull, Tol: 1e-9})
			if err != nil {
				errs[i] = err
				return
			}
			engines[i] = e
			// Queries run concurrently with the other builders too.
			for q := 0; q < 3; q++ {
				if _, _, err := e.Query(q * 11 % graphs[i].N()); err != nil {
					errs[i] = err
					return
				}
			}
		}(i)
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Fatalf("builder %d: %v", i, err)
		}
	}
	for i := range engines {
		if !engines[i].Schur().Equal(serials[i].Schur()) {
			t.Fatalf("builder %d: shared-pool Schur differs from serial", i)
		}
		want, _, err := serials[i].Query(1)
		if err != nil {
			t.Fatal(err)
		}
		got, _, err := engines[i].Query(1)
		if err != nil {
			t.Fatal(err)
		}
		for j := range got {
			if math.Float64bits(got[j]) != math.Float64bits(want[j]) {
				t.Fatalf("builder %d: r[%d] differs from serial", i, j)
			}
		}
	}
}
