package sparse

import (
	"testing"

	"bepi/internal/par"
)

// TestInterleavedBatchBitIdentical is the contract test of the
// RHS-interleaved MulVecBatch: at every batch width — below, at, and above
// the 4-RHS register block — each output must equal a serial MulVec on that
// RHS by representation (Float64bits), in both layouts, serially and at
// several worker counts, across the pathological shapes.
func TestInterleavedBatchBitIdentical(t *testing.T) {
	for name, m := range csr32Cases() {
		t.Run(name, func(t *testing.T) {
			rows, cols := m.Rows(), m.Cols()
			for _, width := range []int{1, 2, 3, 4, 5, 8, 16} {
				xs := make([][]float64, width)
				want := make([][]float64, width)
				for k := range xs {
					xs[k] = randVec(cols, int64(100+k))
					want[k] = make([]float64, rows)
					m.mulVecRange(want[k], xs[k], 0, rows) // serial per-RHS reference
				}
				for _, workers := range []int{1, 2, 8} {
					run := func(layout string, mul func(dst, x [][]float64)) {
						got := make([][]float64, width)
						for k := range got {
							got[k] = make([]float64, rows)
						}
						mul(got, xs)
						for k := range got {
							if i, ok := bitsEqual(got[k], want[k]); !ok {
								t.Fatalf("%s width=%d workers=%d rhs %d differs at %d: %v vs %v",
									layout, width, workers, k, i, got[k][i], want[k][i])
							}
						}
					}
					c := m.Clone()
					c32 := Compact(m.Clone())
					if workers > 1 {
						pool := par.NewPool(workers)
						c.SetPool(pool)
						c32.SetPool(pool)
					}
					run("CSR", c.MulVecBatch)
					run("CSR32", c32.MulVecBatch)
				}
			}
		})
	}
}

// TestInterleavedBatchGateScalesWithWidth: the parallel gate of MulVecBatch
// must count the work of the whole batch (nnz × width), not of a single
// apply — a matrix below ParallelMinNNZ alone crosses it with enough RHS.
func TestInterleavedBatchGateScalesWithWidth(t *testing.T) {
	m := randBigCSR(600, 500, 12, 33)
	if m.NNZ() >= ParallelMinNNZ || m.NNZ()*8 < ParallelMinNNZ {
		t.Fatalf("fixture nnz=%d does not straddle the gate (min %d)", m.NNZ(), ParallelMinNNZ)
	}
	m.SetPool(par.NewPool(4))
	if m.parBounds(1) != nil {
		t.Fatal("width-1 batch below ParallelMinNNZ must stay serial")
	}
	if m.parBounds(8) == nil {
		t.Fatal("width-8 batch over ParallelMinNNZ total work must parallelize")
	}
	c := Compact(m.Clone()).SetPool(par.NewPool(4))
	if c.parBounds(1) != nil {
		t.Fatal("CSR32 width-1 batch below ParallelMinNNZ must stay serial")
	}
	if c.parBounds(8) == nil {
		t.Fatal("CSR32 width-8 batch over ParallelMinNNZ total work must parallelize")
	}

	// And crossing the gate must not change results: parallel batch output is
	// bit-identical to the serial per-RHS kernels.
	const width = 8
	xs := make([][]float64, width)
	want := make([][]float64, width)
	got := make([][]float64, width)
	for k := range xs {
		xs[k] = randVec(m.Cols(), int64(40+k))
		want[k] = make([]float64, m.Rows())
		got[k] = make([]float64, m.Rows())
		m.mulVecRange(want[k], xs[k], 0, m.Rows())
	}
	for rep := 0; rep < 3; rep++ { // repeated: chunk→goroutine placement varies
		m.MulVecBatch(got, xs)
		for k := range got {
			if i, ok := bitsEqual(got[k], want[k]); !ok {
				t.Fatalf("parallel batch rhs %d differs at %d", k, i)
			}
		}
	}
}

// TestInterleavedBatchKernelTails pins the 4×4 kernel's edge handling: row
// lengths 0..9 exercise every remainder of the stride-4 nonzero loop, and
// widths 4k+r every tail of the RHS grouping.
func TestInterleavedBatchKernelTails(t *testing.T) {
	const cols = 64
	coo := NewCOO(10, cols)
	for i := 0; i < 10; i++ {
		for e := 0; e < i; e++ { // row i has exactly i entries
			coo.Add(i, (i*7+e*11)%cols, float64(i+e)*0.375-2)
		}
	}
	m := coo.ToCSR()
	for width := 1; width <= 9; width++ {
		xs := make([][]float64, width)
		want := make([][]float64, width)
		got := make([][]float64, width)
		for k := range xs {
			xs[k] = randVec(cols, int64(7*width+k))
			want[k] = make([]float64, m.Rows())
			got[k] = make([]float64, m.Rows())
			m.MulVec(want[k], xs[k])
		}
		m.MulVecBatch(got, xs)
		for k := range got {
			if i, ok := bitsEqual(got[k], want[k]); !ok {
				t.Fatalf("width=%d rhs %d differs at row %d", width, k, i)
			}
		}
	}
}

// TestInterleavedBatchLargeParallelRMAT is the scaled-up property test: an
// RMAT-like skewed matrix well past the gate, the full width sweep, under
// real parallel execution. Primarily a -race target.
func TestInterleavedBatchLargeParallelRMAT(t *testing.T) {
	m := randBigCSR(3000, 2500, 20, 55)
	if m.NNZ() < ParallelMinNNZ {
		t.Fatalf("fixture too small: nnz=%d", m.NNZ())
	}
	for _, width := range []int{3, 4, 5, 16} {
		xs := make([][]float64, width)
		want := make([][]float64, width)
		for k := range xs {
			xs[k] = randVec(m.Cols(), int64(200+k))
			want[k] = make([]float64, m.Rows())
			m.MulVec(want[k], xs[k])
		}
		for _, workers := range []int{2, 8} {
			p := m.Clone().SetPool(par.NewPool(workers))
			got := make([][]float64, width)
			for k := range got {
				got[k] = make([]float64, m.Rows())
			}
			p.MulVecBatch(got, xs)
			for k := range got {
				if i, ok := bitsEqual(got[k], want[k]); !ok {
					t.Fatalf("width=%d workers=%d rhs %d differs at %d", width, workers, k, i)
				}
			}
		}
	}
}

// TestInterleavedBatchMatchesRowOuter cross-checks the interleaved kernel
// against a straightforward row-outer re-implementation (one RHS at a time
// through the four-lane loop), the kernel MulVecBatch shipped before
// interleaving. Identical representation is the whole point: interleaving
// reorders traversal, never any per-RHS accumulation.
func TestInterleavedBatchMatchesRowOuter(t *testing.T) {
	m := randBigCSR(800, 700, 9, 77)
	rowPtr, col, val := m.RowPtr(), m.ColIdx(), m.Values()
	for _, width := range []int{4, 7, 16} {
		xs := make([][]float64, width)
		want := make([][]float64, width)
		got := make([][]float64, width)
		for k := range xs {
			xs[k] = randVec(m.Cols(), int64(300+k))
			want[k] = make([]float64, m.Rows())
			got[k] = make([]float64, m.Rows())
		}
		for i := 0; i < m.Rows(); i++ {
			cols := col[rowPtr[i]:rowPtr[i+1]]
			vals := val[rowPtr[i]:rowPtr[i+1]]
			for k := range xs {
				xk := xs[k]
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
				want[k][i] = (s0 + s1) + (s2 + s3)
			}
		}
		m.MulVecBatch(got, xs)
		for k := range got {
			if i, ok := bitsEqual(got[k], want[k]); !ok {
				t.Fatalf("width=%d rhs %d differs from row-outer at %d", width, k, i)
			}
		}
	}
}

// TestInterleavedBatchDimChecks: mismatched batch shapes must panic like the
// single-RHS kernels.
func TestInterleavedBatchDimChecks(t *testing.T) {
	m := randBigCSR(20, 30, 2, 9)
	mustPanic := func(name string, f func()) {
		defer func() {
			if recover() == nil {
				t.Fatalf("%s did not panic", name)
			}
		}()
		f()
	}
	x := [][]float64{randVec(30, 1)}
	mustPanic("dst count", func() { m.MulVecBatch(make([][]float64, 2), x) })
	mustPanic("dst len", func() { m.MulVecBatch([][]float64{make([]float64, 19)}, x) })
	mustPanic("x len", func() {
		m.MulVecBatch([][]float64{make([]float64, 20)}, [][]float64{randVec(29, 1)})
	})
	c := Compact(m)
	mustPanic("CSR32 dst count", func() { c.MulVecBatch(make([][]float64, 2), x) })
	mustPanic("CSR32 dst len", func() { c.MulVecBatch([][]float64{make([]float64, 19)}, x) })
}
