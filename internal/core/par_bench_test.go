package core

import (
	"fmt"
	"runtime"
	"sync"
	"testing"

	"bepi/internal/gen"
	"bepi/internal/graph"
	"bepi/internal/lu"
	"bepi/internal/par"
	"bepi/internal/reorder"
	"bepi/internal/sparse"
)

// parBench holds the shared fixture for the parallel-kernel benchmarks: an
// R-MAT graph at the acceptance scale (~1e6 edges), its ordering and the
// H11 block of its H. Built once, on first benchmark use only.
var parBench struct {
	once sync.Once
	g    *graph.Graph
	ord  *reorder.Ordering
	h11  *sparse.CSR
}

func parBenchSetup(b *testing.B) {
	parBench.once.Do(func() {
		g := gen.RMAT(gen.DefaultRMAT(16, 16, 1)) // 65_536 nodes, ~1M edges
		ord := reorder.HubAndSpoke(g, 0.2)
		h := BuildH(g, ord.Perm, DefaultC)
		parBench.g, parBench.ord = g, ord
		parBench.h11 = h.Block(0, ord.N1, 0, ord.N1)
	})
	if parBench.h11 == nil {
		b.Fatal("benchmark fixture failed to build")
	}
}

// benchWorkerCounts returns the ladder the acceptance criterion speaks of:
// serial, 2, 4, and every core. Duplicates (e.g. on a 4-core machine) are
// dropped.
func benchWorkerCounts() []int {
	counts := []int{1, 2, 4, runtime.NumCPU()}
	var out []int
	for _, c := range counts {
		dup := false
		for _, seen := range out {
			dup = dup || seen == c
		}
		if !dup {
			out = append(out, c)
		}
	}
	return out
}

// runAtWidth pins GOMAXPROCS to the worker count for the sub-benchmark so
// "workers=1" really measures the serial machine, then restores it.
func runAtWidth(b *testing.B, fn func(b *testing.B, pool *par.Pool)) {
	for _, w := range benchWorkerCounts() {
		w := w
		b.Run(fmt.Sprintf("workers=%d", w), func(b *testing.B) {
			prev := runtime.GOMAXPROCS(w)
			defer runtime.GOMAXPROCS(prev)
			var pool *par.Pool
			if w > 1 {
				pool = par.NewPool(w)
			}
			fn(b, pool)
		})
	}
}

// BenchmarkProfileSchur profiles S of the ~1M-edge fixture at the default
// hub ratio on 1 and 2 workers: the reordering, H's patterns, H11's block
// LU and every column of S, computed by preprocessing's own build.
func BenchmarkProfileSchur(b *testing.B) {
	parBenchSetup(b)
	for _, workers := range []int{1, 2} {
		b.Run(fmt.Sprintf("workers=%d", workers), func(b *testing.B) {
			pool := par.NewPool(workers)
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				p, err := ProfileSchurPool(parBench.g, 0.2, DefaultC, pool)
				if err != nil {
					b.Fatal(err)
				}
				if p.SchurNNZ == 0 {
					b.Fatal("empty Schur complement")
				}
			}
		})
	}
}

// BenchmarkFactorBlockDiag measures the per-block dense LU of H11 with the
// independent blocks factored across the pool.
func BenchmarkFactorBlockDiag(b *testing.B) {
	parBenchSetup(b)
	runAtWidth(b, func(b *testing.B, pool *par.Pool) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := lu.FactorBlockDiagPool(parBench.h11, parBench.ord.Blocks, pool); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// prepBench is the scale-15 hybrid graph of the repository benchmark's
// index-build, its ordering, and the H11 factors and patterns the Schur
// stage reads. Built once, on first benchmark use only.
var prepBench struct {
	once  sync.Once
	g     *graph.Graph
	ord   nodeOrder
	inv   []uint32
	in    *schurInputs
	n2, l int
}

func prepBenchSetup(b *testing.B) {
	prepBench.once.Do(func() {
		g := gen.Hybrid(gen.DefaultHybrid(15, 14, 1))
		ro := reorder.HubAndSpoke(g, 0.2) // the default hub ratio
		ord := servedOrder(ro)
		inv := ord.inverse()
		l := ro.N1 + ro.N2
		hw := make([]float64, l)
		h12, h21, _, _ := buildHBlocks(g, ord, inv, nil, nil, hw, DefaultC)
		f, err := lu.FactorBlocksPool(ro.N1, ro.Blocks, h11Fill(g, ord, inv, DefaultC), nil)
		if err != nil {
			panic(err)
		}
		prepBench.g, prepBench.ord, prepBench.inv, prepBench.n2, prepBench.l = g, ord, inv, ro.N2, l
		prepBench.in = graphSchurInputs(g, ord, inv, DefaultC, f, h12, h21, hw, nil)
	})
}

// BenchmarkBuildHBlocks builds H's four off-diagonal patterns and the
// column weights of the scale-15 benchmark graph on 1 and 2 workers: the
// counting sort of buildHBlocks, its columns cut between the workers.
func BenchmarkBuildHBlocks(b *testing.B) {
	prepBenchSetup(b)
	hw := make([]float64, prepBench.l)
	for _, workers := range []int{1, 2} {
		b.Run(fmt.Sprintf("workers=%d", workers), func(b *testing.B) {
			pool := par.NewPool(workers)
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				buildHBlocks(prepBench.g, prepBench.ord, prepBench.inv, nil, pool, hw, DefaultC)
			}
		})
	}
}

// BenchmarkSchurTriangles computes S's columns of the scale-15 benchmark
// graph and scatters them into S's two DILU triangles on 1 and 2 workers,
// as preprocessing does: each worker counts its columns' rows as it
// computes them, then scatters them.
func BenchmarkSchurTriangles(b *testing.B) {
	prepBenchSetup(b)
	n2, in := prepBench.n2, prepBench.in
	for _, workers := range []int{1, 2} {
		b.Run(fmt.Sprintf("workers=%d", workers), func(b *testing.B) {
			pool := par.NewPool(workers)
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, _, err := in.triangles(n2, pool); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
