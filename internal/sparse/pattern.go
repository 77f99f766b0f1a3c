package sparse

import (
	"fmt"

	"bepi/internal/par"
)

// Pattern is a CSR32 without values: the structure of a matrix whose column
// j holds one number, w[j], at every stored entry — A = P·diag(w), the
// shape of every off-diagonal block of BePI's H, where column u holds
// −(1−c)/outdeg(u). The weights live beside the pattern, one per column
// instead of one per entry, and the kernels take them as an argument: an
// SpMV streams 2 bytes per entry (4 past 65 536 columns) instead of
// CSR32's 10.
//
// The kernels are bit-identical to CSR32's on the expanded matrix
// (Expand) at any worker count: each term is the same IEEE product w[j]·x[j]
// the valued kernel forms, summed in the same order.
type Pattern struct {
	layout32
}

// PatternOf returns the compact pattern of m, its values dropped. It panics
// if the matrix dimensions exceed the uint32 index range.
func PatternOf(m *CSR) *Pattern { return &Pattern{layout32: compactLayout(m)} }

// Expand returns the valued matrix P·diag(w) in the wide layout: entry
// (i, j) holds w[j]. It is what the cold paths that need values read (the
// Schur-column routine, surgery).
func (p *Pattern) Expand(w []float64) *CSR {
	if len(w) != p.cols {
		panic(fmt.Sprintf("sparse: Expand with %d weights for %d columns", len(w), p.cols))
	}
	rowPtr, col := p.wide()
	val := make([]float64, len(col))
	for k, j := range col {
		val[k] = w[j]
	}
	return &CSR{rows: p.rows, cols: p.cols, rowPtr: rowPtr, col: col, val: val, pool: p.pool, bounds: p.bounds}
}

// MarkColumns sets used[j] for every column j that holds a stored entry.
func (p *Pattern) MarkColumns(used []bool) {
	if p.col16 != nil {
		markColumns(p.col16, used)
	} else {
		markColumns(p.col32, used)
	}
}

func markColumns[C uint16 | uint32](col []C, used []bool) {
	for _, j := range col {
		used[j] = true
	}
}

// SetPool attaches a parallel pool and returns p; semantics match
// CSR32.SetPool.
func (p *Pattern) SetPool(pool *par.Pool) *Pattern {
	p.setPool(pool)
	return p
}

func sumRange32[P int32 | int64, C uint16 | uint32](rowPtr []P, col []C, dst, z []float64, lo, hi int) {
	for i := lo; i < hi; i++ {
		dst[i] = sumRow4(col[rowPtr[i]:rowPtr[i+1]], z)
	}
}

func (p *Pattern) sumRange(dst, z []float64, lo, hi int) {
	switch {
	case p.rowPtr32 != nil && p.col16 != nil:
		sumRange32(p.rowPtr32, p.col16, dst, z, lo, hi)
	case p.rowPtr32 != nil:
		sumRange32(p.rowPtr32, p.col32, dst, z, lo, hi)
	case p.col16 != nil:
		sumRange32(p.rowPtr64, p.col16, dst, z, lo, hi)
	default:
		sumRange32(p.rowPtr64, p.col32, dst, z, lo, hi)
	}
}

// MulVecScaled computes dst = P·diag(w)·x: z = w∘x, one multiply per
// column, then MulVec's gather of z. z (length Cols) is scratch the caller
// owns and is left holding w∘x, so a second pattern over the same columns
// and the same x needs only MulVec.
func (p *Pattern) MulVecScaled(dst, z, w, x []float64) {
	if len(z) != p.cols || len(w) != p.cols || len(x) != p.cols {
		panic(fmt.Sprintf("sparse: MulVecScaled dims z=%d w=%d x=%d want %d", len(z), len(w), len(x), p.cols))
	}
	for j, v := range x {
		z[j] = w[j] * v
	}
	p.MulVec(dst, z)
}

// MulVec computes dst[i] = Σ z[j] over the stored entries (i, j): the
// value-free gather, row-partitioned over the pool like CSR32.MulVec.
func (p *Pattern) MulVec(dst, z []float64) {
	if len(dst) != p.rows || len(z) != p.cols {
		panic(fmt.Sprintf("sparse: MulVec dims dst=%d z=%d want %d,%d", len(dst), len(z), p.rows, p.cols))
	}
	if bounds := p.parBounds(); bounds != nil {
		p.pool.ForBounds(bounds, func(_, lo, hi int) { p.sumRange(dst, z, lo, hi) })
		return
	}
	p.sumRange(dst, z, 0, p.rows)
}

func mulVecTScaled32[P int32 | int64, C uint16 | uint32](rows int, rowPtr []P, col []C, dst, w, x []float64) {
	for j := range dst {
		dst[j] = 0
	}
	for i := 0; i < rows; i++ {
		xi := x[i]
		if xi == 0 {
			continue
		}
		for k := rowPtr[i]; k < rowPtr[i+1]; k++ {
			j := col[k]
			dst[j] += w[j] * xi
		}
	}
}

// MulVecTScaled computes dst = (P·diag(w))ᵀ·x, a serial scatter like
// CSR32.MulVecT. Each entry adds its own product w[j]·x[i] — w is never
// factored out of a column's sum, which would round differently.
func (p *Pattern) MulVecTScaled(dst, w, x []float64) {
	if len(dst) != p.cols || len(w) != p.cols || len(x) != p.rows {
		panic(fmt.Sprintf("sparse: MulVecTScaled dims dst=%d w=%d x=%d want %d,%d,%d", len(dst), len(w), len(x), p.cols, p.cols, p.rows))
	}
	switch {
	case p.rowPtr32 != nil && p.col16 != nil:
		mulVecTScaled32(p.rows, p.rowPtr32, p.col16, dst, w, x)
	case p.rowPtr32 != nil:
		mulVecTScaled32(p.rows, p.rowPtr32, p.col32, dst, w, x)
	case p.col16 != nil:
		mulVecTScaled32(p.rows, p.rowPtr64, p.col16, dst, w, x)
	default:
		mulVecTScaled32(p.rows, p.rowPtr64, p.col32, dst, w, x)
	}
}

// MemoryBytes reports the storage footprint: 2 or 4 bytes per column index
// and 4 or 8 per row pointer. The weights are the caller's.
func (p *Pattern) MemoryBytes() int64 { return p.indexBytes() }

// String returns a short shape/nnz description.
func (p *Pattern) String() string {
	return fmt.Sprintf("Pattern{%dx%d, nnz=%d}", p.rows, p.cols, p.NNZ())
}
