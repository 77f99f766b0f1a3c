package solver

import (
	"math/rand"
	"runtime"
	"testing"
)

// TestWorkspaceSolveAllocationIgnoresMaxIter: GMRES sizes nothing by its
// iteration budget. A solve on a warm workspace — one that already ran the
// same solve — allocates the same at MaxIter 50 and at 1000, with and
// without a probe that assembles every iterate, because the basis and the
// Krylov bookkeeping grow by append to the iterations run and stay in the
// workspace for the next solve.
func TestWorkspaceSolveAllocationIgnoresMaxIter(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	a := randDiagDominant(rng, 200, 0.03)
	b := make([]float64, 200)
	for i := range b {
		b[i] = rng.NormFloat64()
	}
	probe := func(_ int, _ float64, iterate func() []float64) bool {
		iterate()
		return false
	}
	for _, p := range []func(int, float64, func() []float64) bool{nil, probe} {
		var ws Workspace
		solve := func(maxIter int) Stats {
			_, st, err := GMRES(a, b, GMRESOptions{Tol: 1e-10, MaxIter: maxIter, Probe: p, Work: &ws})
			if err != nil {
				t.Fatal(err)
			}
			return st
		}
		var objects, bytes [2]uint64
		for i, maxIter := range []int{50, 1000} {
			solve(maxIter)
			objects[i], bytes[i] = ^uint64(0), ^uint64(0)
			var before, after runtime.MemStats
			for run := 0; run < 5; run++ {
				runtime.GC()
				runtime.ReadMemStats(&before)
				solve(maxIter)
				runtime.ReadMemStats(&after)
				objects[i] = min(objects[i], after.Mallocs-before.Mallocs)
				bytes[i] = min(bytes[i], after.TotalAlloc-before.TotalAlloc)
			}
		}
		iters := solve(50).Iterations
		t.Logf("probe %v: %d iterations; MaxIter 50: %d objects, %d B; MaxIter 1000: %d objects, %d B",
			p != nil, iters, objects[0], bytes[0], objects[1], bytes[1])
		if iters >= 50 {
			t.Fatalf("the fixture takes %d iterations; it must converge within MaxIter 50", iters)
		}
		if objects[0] != objects[1] || bytes[0] != bytes[1] {
			t.Errorf("probe %v: a warm solve allocates %d objects, %d B at MaxIter 50 but %d objects, %d B at 1000",
				p != nil, objects[0], bytes[0], objects[1], bytes[1])
		}
	}
}
