package sparse

import (
	"fmt"
	"runtime"
	"testing"

	"bepi/internal/par"
)

// batchBenchVecs builds width RHS/output pairs against the shared SpMV
// fixture.
func batchBenchVecs(width int) (xs, ys [][]float64) {
	xs = make([][]float64, width)
	ys = make([][]float64, width)
	for k := range xs {
		xs[k] = randVec(len(mulVecBench.x), int64(100+k))
		ys[k] = make([]float64, len(mulVecBench.dst))
	}
	return xs, ys
}

// rowOuterBatchBench is the pre-interleaving MulVecBatch loop — rows outer,
// one RHS at a time through the four-lane kernel — frozen here as the
// baseline the interleaved kernel is measured against.
func rowOuterBatchBench(m *CSR, dst, x [][]float64) {
	for i := 0; i < m.rows; i++ {
		cols := m.col[m.rowPtr[i]:m.rowPtr[i+1]]
		vals := m.val[m.rowPtr[i]:m.rowPtr[i+1]]
		for k := range x {
			xk := x[k]
			var s0, s1, s2, s3 float64
			p := 0
			for ; p+4 <= len(cols); p += 4 {
				s0 += vals[p] * xk[cols[p]]
				s1 += vals[p+1] * xk[cols[p+1]]
				s2 += vals[p+2] * xk[cols[p+2]]
				s3 += vals[p+3] * xk[cols[p+3]]
			}
			for ; p < len(cols); p++ {
				s0 += vals[p] * xk[cols[p]]
			}
			dst[k][i] = (s0 + s1) + (s2 + s3)
		}
	}
}

// BenchmarkMulVecBatchInterleaved measures the RHS-interleaved batch kernel
// against the frozen row-outer baseline at batch widths 1/4/8/16, in both
// layouts, over the worker ladder. The interleaved kernel streams the index
// arrays once per batch and amortizes each loaded entry over four RHS; the
// baseline re-reads them per RHS. bytes/op counts the matrix stream once
// plus the in/out vectors per RHS, so MB/s across widths are comparable.
func BenchmarkMulVecBatchInterleaved(b *testing.B) {
	mulVecBenchSetup()
	for _, layout := range []string{"csr", "csr32"} {
		for _, width := range []int{1, 4, 8, 16} {
			for _, w := range benchWidths() {
				name := fmt.Sprintf("layout=%s/width=%d/workers=%d", layout, width, w)
				b.Run(name, func(b *testing.B) {
					prev := runtime.GOMAXPROCS(w)
					defer runtime.GOMAXPROCS(prev)
					xs, ys := batchBenchVecs(width)
					m := mulVecBench.m.Clone()
					var pool *par.Pool
					if w > 1 {
						pool = par.NewPool(w)
					}
					vecBytes := int64(width) * 8 * int64(m.Rows()+m.Cols())
					run := func(matBytes int64, batch func(dst, x [][]float64)) func(b *testing.B) {
						return func(b *testing.B) {
							b.SetBytes(matBytes + vecBytes)
							b.ResetTimer()
							for i := 0; i < b.N; i++ {
								batch(ys, xs)
							}
						}
					}
					if layout == "csr" {
						if pool != nil {
							m.SetPool(pool)
						}
						b.Run("rowouter", run(int64(m.NNZ()*16), func(dst, x [][]float64) {
							rowOuterBatchBench(m, dst, x)
						}))
						b.Run("interleaved", run(int64(m.NNZ()*16), m.MulVecBatch))
					} else {
						c := Compact(m)
						if pool != nil {
							c.SetPool(pool)
						}
						// No row-outer CSR32 baseline survives; compare the
						// interleaved compact kernel against the wide row-outer.
						b.Run("interleaved", run(int64(c.NNZ()*12), c.MulVecBatch))
					}
				})
			}
		}
	}
}
