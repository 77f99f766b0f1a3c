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
// if the matrix dimensions exceed the uint32 index range. No engine path
// calls it — every stored pattern is assembled by PatternBuilder or Splice —
// and it stays as the tests' reference.
func PatternOf(m *CSR) *Pattern { return &Pattern{layout32: compactLayout(m)} }

// Expand returns the valued matrix P·diag(w) in the wide layout: entry
// (i, j) holds w[j]. No engine path calls it — the Schur-column routine
// reads ExpandT — and it stays as the reference the tests compare the
// kernels and the patched patterns against.
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

// MarkColumns sets used[j] for every column j that holds a stored entry in
// rows [lo, hi).
func (p *Pattern) MarkColumns(lo, hi int, used []bool) {
	s, e := p.rowStart(lo), p.rowStart(hi)
	if p.col16 != nil {
		markColumns(p.col16[s:e], used)
	} else {
		markColumns(p.col32[s:e], used)
	}
}

func markColumns[C uint16 | uint32](col []C, used []bool) {
	for _, j := range col {
		used[j] = true
	}
}

// Splice returns p with the columns marked in replaced taken from nw: each
// row of the result is p's row outside those columns merged, in column
// order, with nw's row. nw has p's columns and at least its rows; a row
// past p's is nw's alone (a block grown by new nodes). No column holds an
// entry in both. The result is assembled by PatternBuilder's counts, so it
// takes the widths a fresh build of it takes; p and nw are not modified.
// It panics on mismatched shapes, and on entries that do not form a
// pattern.
func (p *Pattern) Splice(nw *Pattern, replaced []bool) *Pattern {
	if nw.cols != p.cols || nw.rows < p.rows || len(replaced) != p.cols {
		panic(fmt.Sprintf("sparse: splicing %v into %v over %d columns", nw, p, len(replaced)))
	}
	b := NewPatternBuilder(nw.rows, p.cols, 1)
	if p.col16 != nil {
		spliceRows(b, &b.col16, &p.layout32, &nw.layout32, p.col16, nw.col16, replaced)
	} else {
		spliceRows(b, &b.col32, &p.layout32, &nw.layout32, p.col32, nw.col32, replaced)
	}
	return b.Pattern()
}

// spliceRows counts every row of the splice into b, allocates, and fills
// *out, the builder's columns, row by row: p's kept entries merged with
// nw's, each at the position the builder's Put gives it.
func spliceRows[C uint16 | uint32](b *PatternBuilder, out *[]C, p, nw *layout32, pCol, nwCol []C, replaced []bool) {
	for i := 0; i < nw.rows; i++ {
		k := nw.rowStart(i+1) - nw.rowStart(i)
		if i < p.rows {
			for _, j := range pCol[p.rowStart(i):p.rowStart(i+1)] {
				if !replaced[j] {
					k++
				}
			}
		}
		b.rowSort.CountN(0, i, k)
	}
	b.Alloc()
	col := *out
	for i := 0; i < nw.rows; i++ {
		a, e := nw.rowStart(i), nw.rowStart(i+1)
		if i < p.rows {
			for _, j := range pCol[p.rowStart(i):p.rowStart(i+1)] {
				if !replaced[j] {
					for ; a < e && nwCol[a] < j; a++ {
						col[b.rowSort.Put(0, i)] = nwCol[a]
					}
					col[b.rowSort.Put(0, i)] = j
				}
			}
		}
		for ; a < e; a++ {
			col[b.rowSort.Put(0, i)] = nwCol[a]
		}
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

// MemoryBytes reports the storage footprint: 2 or 4 bytes per column index
// and 4 or 8 per row pointer. The weights are the caller's.
func (p *Pattern) MemoryBytes() int64 { return p.indexBytes() }

// String returns a short shape/nnz description.
func (p *Pattern) String() string {
	return fmt.Sprintf("Pattern{%dx%d, nnz=%d}", p.rows, p.cols, p.NNZ())
}
