package sparse

import (
	"fmt"
	"runtime"
	"sync"
	"testing"

	"bepi/internal/par"
)

// mulVecBench is the shared ≥1e6-nnz fixture for the parallel SpMV
// benchmarks, built on first benchmark use only.
var mulVecBench struct {
	once sync.Once
	m    *CSR
	x    []float64
	dst  []float64
}

func mulVecBenchSetup() {
	mulVecBench.once.Do(func() {
		const rows, cols, perRow = 1 << 17, 1 << 17, 10 // ~1.3M stored entries
		mulVecBench.m = randBigCSR(rows, cols, perRow, 1)
		mulVecBench.x = randVec(cols, 2)
		mulVecBench.dst = make([]float64, rows)
	})
}

// benchWidths is the worker-count ladder shared by the SpMV benchmarks:
// 1, 2, 4 and the machine width when distinct.
func benchWidths() []int {
	widths := []int{1, 2, 4}
	if n := runtime.NumCPU(); n != 1 && n != 2 && n != 4 {
		widths = append(widths, n)
	}
	return widths
}

// BenchmarkParallelMulVec measures the row-partitioned SpMV at increasing
// worker counts, GOMAXPROCS pinned to match so workers=1 is the true
// serial baseline.
func BenchmarkParallelMulVec(b *testing.B) {
	mulVecBenchSetup()
	for _, w := range benchWidths() {
		w := w
		b.Run(fmt.Sprintf("workers=%d", w), func(b *testing.B) {
			prev := runtime.GOMAXPROCS(w)
			defer runtime.GOMAXPROCS(prev)
			m := mulVecBench.m.Clone()
			if w > 1 {
				m.SetPool(par.NewPool(w))
			}
			b.SetBytes(int64(m.NNZ() * 16)) // col idx + value per entry
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				m.MulVec(mulVecBench.dst, mulVecBench.x)
			}
		})
	}
}

// BenchmarkCSR32MulVec is BenchmarkParallelMulVec on the compact layout:
// same matrix, same ladder, 12 bytes streamed per entry instead of 16.
// Compare the two benchmarks' per-op times for the bandwidth win.
func BenchmarkCSR32MulVec(b *testing.B) {
	mulVecBenchSetup()
	for _, w := range benchWidths() {
		w := w
		b.Run(fmt.Sprintf("workers=%d", w), func(b *testing.B) {
			prev := runtime.GOMAXPROCS(w)
			defer runtime.GOMAXPROCS(prev)
			m := Compact(mulVecBench.m.Clone())
			if w > 1 {
				m.SetPool(par.NewPool(w))
			}
			b.SetBytes(int64(m.NNZ() * 12)) // uint32 col idx (2^17 columns) + float64 value
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				m.MulVec(mulVecBench.dst, mulVecBench.x)
			}
		})
	}
}
