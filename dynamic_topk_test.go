package bepi_test

import (
	"slices"
	"testing"

	"bepi"
)

// dynamicTopKIters is what Dynamic.TopK's bounded search spends, summed over
// gateSeeds at k = 10, on the engine a 4-op hub flush of the scale-12
// fixture swaps in. The exact path spends exactTopKIters on the same seeds.
// Both are deterministic: the calibration draws its seeds from a fixed
// source, and the solves are bit-identical at every parallelism.
const (
	dynamicTopKIters = 72
	exactTopKIters   = 145
)

// gateSeeds are 16 nodes spread over the fixture, each with an out-edge.
func gateSeeds(g *bepi.Graph) []int {
	var seeds []int
	for u := 0; u < g.N() && len(seeds) < 16; u += g.N() / 16 {
		for g.OutDegree(u) == 0 {
			u++
		}
		seeds = append(seeds, u)
	}
	return seeds
}

// TestDynamicTopKBoundedAfterFlush gates Dynamic.TopK's two paths on the
// scale-12 fixture. Before any flush it answers exactly: bit-identical to
// Engine.TopK, and without calibrating the engine NewDynamic built. After a
// flush the rebuild has calibrated the new engine (the status says how
// long that took), and TopK answers with the bounded search: its summed
// solver iterations, counted through the engine's iteration hook, are the
// pinned number below the exact path's, and every set is the one a fresh
// build of the flushed graph ranks.
func TestDynamicTopKBoundedAfterFlush(t *testing.T) {
	g := costFixture(t)
	d, err := bepi.NewDynamic(g)
	if err != nil {
		t.Fatal(err)
	}
	seeds := gateSeeds(g)
	iters := 0
	count := func(e *bepi.Engine) { e.Internal().SetIterHook(func(int, float64) { iters++ }) }
	const k = 10

	first := d.Engine()
	for _, s := range seeds {
		got, err := d.TopK(s, k)
		if err != nil {
			t.Fatal(err)
		}
		want, err := first.TopK(s, k)
		if err != nil {
			t.Fatal(err)
		}
		if !slices.Equal(got, want) {
			t.Fatalf("seed %d before any flush: Dynamic.TopK %v, Engine.TopK %v", s, got, want)
		}
	}
	if first.Internal().BoundCalibrated() {
		t.Fatal("the engine NewDynamic built was calibrated before any flush")
	}

	gNew, ops := benchDelta(t, g, first, topHubs(g, first), 4)
	for _, op := range ops {
		if op.Insert {
			err = d.AddEdge(op.Src, op.Dst)
		} else {
			err = d.RemoveEdge(op.Src, op.Dst)
		}
		if err != nil {
			t.Fatal(err)
		}
	}
	if err := d.Flush(); err != nil {
		t.Fatal(err)
	}
	st := d.LastRebuild().Status()
	if st.Mode != bepi.RebuildModeDeltaHub || st.Calibration <= 0 || st.Calibration >= st.Duration {
		t.Fatalf("flush: mode %s, calibration %v of %v; want delta-hub with a calibration inside its duration",
			st.Mode, st.Calibration, st.Duration)
	}
	eng := d.Engine()
	if !eng.Internal().BoundCalibrated() {
		t.Fatal("the flushed engine was swapped in uncalibrated")
	}
	fresh, err := bepi.New(publicGraph(t, gNew))
	if err != nil {
		t.Fatal(err)
	}
	count(eng)
	defer eng.Internal().SetIterHook(nil)
	for _, s := range seeds {
		got, err := d.TopK(s, k)
		if err != nil {
			t.Fatal(err)
		}
		want, err := fresh.TopK(s, k)
		if err != nil {
			t.Fatal(err)
		}
		if !sameNodes(got, want) {
			t.Fatalf("seed %d after the flush: Dynamic.TopK %v, a fresh build's TopK %v", s, got, want)
		}
	}
	bounded := iters
	iters = 0
	for _, s := range seeds {
		if _, err := eng.TopK(s, k); err != nil {
			t.Fatal(err)
		}
	}
	t.Logf("summed iterations over %d seeds: bounded %d, exact %d", len(seeds), bounded, iters)
	if bounded != dynamicTopKIters || iters != exactTopKIters || bounded >= iters {
		t.Fatalf("summed iterations: bounded %d, exact %d; want %d and %d", bounded, iters, dynamicTopKIters, exactTopKIters)
	}
}

// sameNodes reports whether two rankings name the same node set.
func sameNodes(a, b []bepi.Ranked) bool {
	if len(a) != len(b) {
		return false
	}
	in := make(map[int]bool, len(a))
	for _, r := range a {
		in[r.Node] = true
	}
	for _, r := range b {
		if !in[r.Node] {
			return false
		}
	}
	return true
}
