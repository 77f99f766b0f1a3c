package core

import (
	"bytes"
	"fmt"
	"math"
	"sync"
	"testing"

	"bepi/internal/gen"
	"bepi/internal/sparse"
)

// bitsEqual compares two score vectors under Float64bits.
func bitsEqual(a, b []float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if math.Float64bits(a[i]) != math.Float64bits(b[i]) {
			return false
		}
	}
	return true
}

// TestCompactSurvivesSaveLoad checks that the engine, which serves the
// compact layout, serializes in the wide format and that a loaded engine
// (compacted again) answers bit-identically.
func TestCompactSurvivesSaveLoad(t *testing.T) {
	g := gen.RMAT(gen.DefaultRMAT(9, 7, 24))
	e, err := Preprocess(g, Options{})
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if _, err := e.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	l, err := ReadEngine(&buf)
	if err != nil {
		t.Fatal(err)
	}
	want, _, err := e.Query(5)
	if err != nil {
		t.Fatal(err)
	}
	got, _, err := l.Query(5)
	if err != nil {
		t.Fatal(err)
	}
	if !bitsEqual(want, got) {
		t.Fatal("loaded engine differs from built engine")
	}
}

// TestKernelHookObservesSolve checks the kernel counters a one-pass solve
// returns in its QueryStats: one operator application per iteration (here
// the whole preconditioned pass), exactly the two half-passes around it,
// each timed, and a plausible byte count. A second query reports its own
// counters, not a running total.
func TestKernelHookObservesSolve(t *testing.T) {
	g := gen.RMAT(gen.DefaultRMAT(9, 7, 26))
	e, err := Preprocess(g, Options{})
	if err != nil {
		t.Fatal(err)
	}
	_, st, err := e.Query(2)
	if err != nil {
		t.Fatal(err)
	}
	k := st.Kernels
	if st.Iterations == 0 || k.SchurApplies != st.Iterations || k.PrecondApplies != 2 {
		t.Fatalf("kernel counters %+v for %d iterations", k, st.Iterations)
	}
	if k.SchurTime <= 0 || k.PrecondTime <= 0 || k.SchurTime+k.PrecondTime > st.Stages.Solve {
		t.Fatalf("kernel times %v + %v outside the solve's %v", k.SchurTime, k.PrecondTime, st.Stages.Solve)
	}
	if k.Bytes < e.Schur().MemoryBytes() {
		t.Fatalf("bytes moved %d implausibly small", k.Bytes)
	}
	_, again, err := e.Query(2)
	if err != nil {
		t.Fatal(err)
	}
	if a := again.Kernels; a.SchurApplies != again.Iterations || a.PrecondApplies != 2 || a.Bytes != k.Bytes {
		t.Fatalf("a repeated query reports %+v after %+v: counters must be per query", a, k)
	}
}

// TestParallelCompactQueriesBitIdentical runs concurrent queries against an
// engine with a multi-worker pool and checks every result equals the serial
// reference bit for bit — the end-to-end composition of the CSR32 kernels,
// the one-pass DILU sweeps on pooled workspaces, and the shared pool.
func TestParallelCompactQueriesBitIdentical(t *testing.T) {
	g := gen.RMAT(gen.DefaultRMAT(10, 8, 27))
	ref, err := Preprocess(g, Options{Parallelism: 1})
	if err != nil {
		t.Fatal(err)
	}
	e, err := Preprocess(g, Options{Parallelism: 4})
	if err != nil {
		t.Fatal(err)
	}
	seeds := []int{0, 3, 9, 100, 511}
	wants := make([][]float64, len(seeds))
	for i, s := range seeds {
		if wants[i], _, err = ref.Query(s); err != nil {
			t.Fatal(err)
		}
	}
	var wg sync.WaitGroup
	errCh := make(chan error, len(seeds))
	for i, s := range seeds {
		wg.Add(1)
		go func(i, s int) {
			defer wg.Done()
			got, _, err := e.Query(s)
			if err != nil {
				errCh <- err
				return
			}
			if !bitsEqual(wants[i], got) {
				t.Errorf("seed %d: parallel query differs from serial", s)
			}
		}(i, s)
	}
	wg.Wait()
	close(errCh)
	for err := range errCh {
		t.Error(err)
	}
}

// hBlockFixture is the H32 block of the repository benchmark's scale-15
// index-build graph — the largest of its four H blocks — with its weights,
// built once for BenchmarkHBlockMulVec.
var hBlockFixture struct {
	once sync.Once
	p    *sparse.Pattern
	w    []float64
	err  error
}

// BenchmarkHBlockMulVec measures the back phase's H32·r2 on that block
// (serial) in the two layouts: the CSR32 with a value per entry the engine
// kept before, and the pattern it keeps now, weights beside it — z = w∘x
// over the columns, then a value-free gather. stream-B/op counts the arrays
// each pass reads or writes: per entry 10 bytes against 2 (16-bit columns),
// plus 24 per column (w and x read, z written) for the pattern.
func BenchmarkHBlockMulVec(b *testing.B) {
	fx := &hBlockFixture
	fx.once.Do(func() {
		var e *Engine
		if e, fx.err = Preprocess(gen.Hybrid(gen.DefaultHybrid(15, 14, 1)), Options{Parallelism: 1}); fx.err == nil {
			fx.p, fx.w = e.h32, e.hw[e.ord.n1:]
		}
	})
	if fx.err != nil {
		b.Fatal(fx.err)
	}
	p, w := fx.p, fx.w
	valued := sparse.Compact(p.Expand(w))
	x, z, dst := make([]float64, p.Cols()), make([]float64, p.Cols()), make([]float64, p.Rows())
	for i := range x {
		x[i] = 1 / float64(i+1)
	}
	for _, run := range []struct {
		name   string
		stream int64
		mulVec func()
	}{
		{"csr32", valued.MemoryBytes(), func() { valued.MulVec(dst, x) }},
		{"pattern", p.MemoryBytes() + 24*int64(p.Cols()), func() { p.MulVecScaled(dst, z, w, x) }},
	} {
		b.Run(fmt.Sprintf("%s/nnz=%d", run.name, p.NNZ()), func(b *testing.B) {
			b.ReportAllocs()
			b.SetBytes(run.stream)
			for i := 0; i < b.N; i++ {
				run.mulVec()
			}
			b.ReportMetric(float64(run.stream), "stream-B/op")
		})
	}
}
