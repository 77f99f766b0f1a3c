package lu

import (
	"fmt"
	"math"

	"bepi/internal/sparse"
)

// SpliceColumns returns the triangles of the DILU factors' matrix with the
// columns c visits (each once, ascending, with all its new entries)
// replaced, for FactorTriangles: the new entries are split into rows of the
// two triangles (columnTriangles), each row's old entries outside those
// columns are merged with them in column order, and each upper row is led
// by the diagonal again (the new column's entry, or D_S). The receiver is
// not modified; c is called three times. It refuses what a TriangleBuilder
// refuses, and panics on columns out of order or range, and on ILU(0)
// factors.
func (f *ILU) SpliceColumns(c sparse.Columns) (*Triangles, error) {
	if f.ds == nil {
		panic("lu: only a DILU factorization retains its matrix")
	}
	n := f.n
	nw, err := columnTriangles(n, c)
	if err != nil {
		return nil, err
	}
	replaced := make([]bool, n)
	c(func(j int, _ []uint32, _ []float64) { replaced[j] = true })
	nnzL := f.l.nnz() - f.l.countIn(replaced) + nw.l.nnz()
	nnzU := f.u.nnz() - f.u.countIn(replaced) + nw.u.nnz()
	if int64(nnzL)+int64(nnzU) > math.MaxInt32 {
		return nil, fmt.Errorf("lu: DILU of a %dx%d matrix of %d entries exceeds the factors' 32-bit index range", n, n, nnzL+nnzU)
	}
	t := &Triangles{n: n}
	for _, tri := range []struct {
		out, old, nw *triFactor
		nnz          int
	}{{&t.l, &f.l, &nw.l, nnzL}, {&t.u, &f.u, &nw.u, nnzU}} {
		tri.out.rowPtr = make([]int32, n+1)
		tri.out.alloc(n, tri.nnz)
		if tri.out.col16 != nil {
			spliceTriangle(tri.out, tri.old, tri.nw, tri.out.col16, tri.old.col16, tri.nw.col16, replaced)
		} else {
			spliceTriangle(tri.out, tri.old, tri.nw, tri.out.col32, tri.old.col32, tri.nw.col32, replaced)
		}
	}
	for i, d := range f.ds {
		if !replaced[i] {
			t.u.val[t.u.rowPtr[i]] = d // the kept diagonal, which held its pivot
		}
	}
	if err := t.checkDiagonal(); err != nil {
		return nil, err
	}
	return t, nil
}

// spliceTriangle fills out with every row of old outside the replaced
// columns merged, in column order, with the same row of nw. No column is in
// both.
func spliceTriangle[C uint16 | uint32](out, old, nw *triFactor, outCol, oldCol, nwCol []C, replaced []bool) {
	q := 0
	for i := 0; i+1 < len(old.rowPtr); i++ {
		a, b := nw.rowSpan(i)
		lo, hi := old.rowSpan(i)
		for p := lo; p < hi; p++ {
			if j := oldCol[p]; !replaced[j] {
				for ; a < b && nwCol[a] < j; a, q = a+1, q+1 {
					outCol[q], out.val[q] = nwCol[a], nw.val[a]
				}
				outCol[q], out.val[q] = j, old.val[p]
				q++
			}
		}
		for ; a < b; a, q = a+1, q+1 {
			outCol[q], out.val[q] = nwCol[a], nw.val[a]
		}
		out.rowPtr[i+1] = int32(q)
	}
}

// countIn returns the number of the factor's entries in the marked columns.
func (t *triFactor) countIn(mark []bool) int {
	k := 0
	for p := range t.val {
		if mark[t.colAt(p)] {
			k++
		}
	}
	return k
}
