// Package sparse implements the sparse-matrix substrate used throughout the
// BePI reproduction: a COO triplet builder, an immutable-shape CSR matrix
// with the kernels the solvers need (SpMV, transpose, sparse-sparse multiply,
// symmetric permutation, contiguous block extraction, row normalization),
// and helpers to bridge to dense matrices for tests and small exact solves.
//
// All matrices store float64 values. Column indices within each row are kept
// sorted and duplicate-free; every constructor establishes that invariant and
// every operation preserves it.
package sparse

import (
	"fmt"
	"math"
	"sort"

	"bepi/internal/par"
)

// COO is a coordinate-format triplet accumulator used to build CSR matrices.
// Duplicate entries are allowed and are summed during conversion.
type COO struct {
	rows, cols int
	r, c       []int
	v          []float64
}

// NewCOO returns an empty COO accumulator with the given shape.
func NewCOO(rows, cols int) *COO {
	if rows < 0 || cols < 0 {
		panic(fmt.Sprintf("sparse: negative dimension %dx%d", rows, cols))
	}
	return &COO{rows: rows, cols: cols}
}

// Reserve grows internal capacity to hold at least n entries.
func (a *COO) Reserve(n int) {
	if cap(a.v) >= n {
		return
	}
	r := make([]int, len(a.r), n)
	copy(r, a.r)
	c := make([]int, len(a.c), n)
	copy(c, a.c)
	v := make([]float64, len(a.v), n)
	copy(v, a.v)
	a.r, a.c, a.v = r, c, v
}

// Add accumulates value v at position (i, j).
func (a *COO) Add(i, j int, v float64) {
	if i < 0 || i >= a.rows || j < 0 || j >= a.cols {
		panic(fmt.Sprintf("sparse: index (%d,%d) out of range %dx%d", i, j, a.rows, a.cols))
	}
	a.r = append(a.r, i)
	a.c = append(a.c, j)
	a.v = append(a.v, v)
}

// ToCSR converts the accumulated triplets into a CSR matrix, summing
// duplicates. An entry whose sum is exactly zero is kept as an explicit
// zero, so the pattern is the set of positions added, whatever the values.
func (a *COO) ToCSR() *CSR {
	n := len(a.v)
	// Count entries per row.
	rowPtr := make([]int, a.rows+1)
	for _, i := range a.r {
		rowPtr[i+1]++
	}
	for i := 0; i < a.rows; i++ {
		rowPtr[i+1] += rowPtr[i]
	}
	col := make([]int, n)
	val := make([]float64, n)
	next := make([]int, a.rows)
	copy(next, rowPtr[:a.rows])
	for k := 0; k < n; k++ {
		i := a.r[k]
		p := next[i]
		col[p] = a.c[k]
		val[p] = a.v[k]
		next[i]++
	}
	m := &CSR{rows: a.rows, cols: a.cols, rowPtr: rowPtr, col: col, val: val}
	m.sortRowsAndMerge()
	return m
}

// CSR is a compressed sparse row matrix. Column indices within each row are
// sorted in strictly increasing order.
type CSR struct {
	rows, cols int
	rowPtr     []int
	col        []int
	val        []float64

	// pool, when set, parallelizes the matvec kernels above
	// ParallelMinNNZ by row partition; see SetPool.
	pool *par.Pool
	// bounds is the nnz-balanced row partition over the attached pool's
	// workers, computed once by SetPool so the apply kernels neither
	// recompute nor reallocate it per call. nil means serial.
	bounds []int
}

// ParallelMinNNZ is the stored-entry count below which the matvec kernels
// stay serial even with a pool attached: under it, chunk handoff costs more
// than the multiply.
const ParallelMinNNZ = 1 << 15

// SetPool attaches a parallel pool to the matrix and returns it. With a
// pool attached (and more than one worker), MulVec partitions rows across
// the pool once the matrix has at least ParallelMinNNZ stored entries. Each
// output element is still produced by the unchanged serial per-row loop, so
// results are bit-identical to the serial kernel at any worker count. A nil
// pool restores serial execution.
func (m *CSR) SetPool(p *par.Pool) *CSR {
	m.pool = p
	m.bounds = nil
	if p.Workers() > 1 && m.rows >= 2 {
		m.bounds = par.BoundsByPrefix(m.rowPtr, p.Workers())
	}
	return m
}

// parBounds returns the row partition the apply kernels should run parallel
// with, or nil to run serially (no pool, or too few entries to pay for the
// chunk handoff). Results are bit-identical either way.
func (m *CSR) parBounds() []int {
	if len(m.val) < ParallelMinNNZ {
		return nil
	}
	return m.bounds
}

// NewCSR constructs a CSR matrix directly from raw slices. The slices are
// used as-is (not copied); rows are sorted and duplicates merged if needed.
// The input must pass Validate (monotone row pointers, in-range columns);
// malformed input panics rather than producing a matrix whose kernels read
// out of bounds.
func NewCSR(rows, cols int, rowPtr, col []int, val []float64) *CSR {
	if len(col) != len(val) {
		panic(fmt.Sprintf("sparse: col/val length %d/%d", len(col), len(val)))
	}
	if err := Validate(rows, cols, rowPtr, col); err != nil {
		panic(err)
	}
	m := &CSR{rows: rows, cols: cols, rowPtr: rowPtr, col: col, val: val}
	m.sortRowsAndMerge()
	return m
}

// RowRuns describes a matrix its owner holds as several runs of entries per
// row, with compact column indexes of type C: called with a row index, it
// hands emit that row's runs, the runs and the columns within them strictly
// ascending and in range.
type RowRuns[C uint16 | uint32] func(i int, emit func(col []C, val []float64))

// CSRFromRows assembles the matrix the runs describe: copies only.
func CSRFromRows[C uint16 | uint32](rows, cols int, row RowRuns[C]) *CSR {
	end := 0
	count := func(col []C, _ []float64) { end += len(col) }
	for i := 0; i < rows; i++ {
		row(i, count)
	}
	m := &CSR{rows: rows, cols: cols, rowPtr: make([]int, rows+1), col: make([]int, end), val: make([]float64, end)}
	end = 0
	widen := func(col []C, val []float64) {
		dst := m.col[end : end+len(col)]
		for k, j := range col {
			dst[k] = int(j)
		}
		end += copy(m.val[end:], val)
	}
	for i := 0; i < rows; i++ {
		row(i, widen)
		m.rowPtr[i+1] = end
	}
	return m
}

// Zero returns an empty rows×cols matrix.
func Zero(rows, cols int) *CSR {
	return &CSR{rows: rows, cols: cols, rowPtr: make([]int, rows+1)}
}

// Identity returns the n×n identity matrix.
func Identity(n int) *CSR {
	rowPtr := make([]int, n+1)
	col := make([]int, n)
	val := make([]float64, n)
	for i := 0; i < n; i++ {
		rowPtr[i+1] = i + 1
		col[i] = i
		val[i] = 1
	}
	return &CSR{rows: n, cols: n, rowPtr: rowPtr, col: col, val: val}
}

// Diagonal returns a square matrix with d on the diagonal.
func Diagonal(d []float64) *CSR {
	n := len(d)
	m := Identity(n)
	copy(m.val, d)
	return m
}

func (m *CSR) sortRowsAndMerge() {
	needSort := false
	for i := 0; i < m.rows && !needSort; i++ {
		for p := m.rowPtr[i] + 1; p < m.rowPtr[i+1]; p++ {
			if m.col[p] <= m.col[p-1] {
				needSort = true
				break
			}
		}
	}
	if !needSort {
		return
	}
	// Sort each row by column, then merge duplicates in place.
	type ent struct {
		c int
		v float64
	}
	out := 0
	newPtr := make([]int, m.rows+1)
	var buf []ent
	for i := 0; i < m.rows; i++ {
		start, end := m.rowPtr[i], m.rowPtr[i+1]
		buf = buf[:0]
		for p := start; p < end; p++ {
			buf = append(buf, ent{m.col[p], m.val[p]})
		}
		sort.Slice(buf, func(a, b int) bool { return buf[a].c < buf[b].c })
		rowStart := out
		for _, e := range buf {
			if out > rowStart && m.col[out-1] == e.c {
				m.val[out-1] += e.v
			} else {
				m.col[out] = e.c
				m.val[out] = e.v
				out++
			}
		}
		newPtr[i+1] = out
	}
	m.rowPtr = newPtr
	m.col = m.col[:out]
	m.val = m.val[:out]
}

// Rows returns the number of rows.
func (m *CSR) Rows() int { return m.rows }

// Cols returns the number of columns.
func (m *CSR) Cols() int { return m.cols }

// NNZ returns the number of stored entries.
func (m *CSR) NNZ() int { return len(m.val) }

// RowRange returns the half-open index range [start, end) into ColIdx/Values
// for row i.
func (m *CSR) RowRange(i int) (start, end int) { return m.rowPtr[i], m.rowPtr[i+1] }

// ColIdx exposes the column-index array (shared, do not mutate ordering).
func (m *CSR) ColIdx() []int { return m.col }

// Values exposes the value array (shared; mutating values is allowed as long
// as the pattern is unchanged).
func (m *CSR) Values() []float64 { return m.val }

// RowPtr exposes the row-pointer array (shared, read-only).
func (m *CSR) RowPtr() []int { return m.rowPtr }

// At returns the value at (i, j), or 0 if no entry is stored there.
func (m *CSR) At(i, j int) float64 {
	if i < 0 || i >= m.rows || j < 0 || j >= m.cols {
		panic(fmt.Sprintf("sparse: index (%d,%d) out of range %dx%d", i, j, m.rows, m.cols))
	}
	start, end := m.rowPtr[i], m.rowPtr[i+1]
	row := m.col[start:end]
	p := sort.SearchInts(row, j)
	if p < len(row) && row[p] == j {
		return m.val[start+p]
	}
	return 0
}

// Clone returns a deep copy.
func (m *CSR) Clone() *CSR {
	rp := make([]int, len(m.rowPtr))
	copy(rp, m.rowPtr)
	c := make([]int, len(m.col))
	copy(c, m.col)
	v := make([]float64, len(m.val))
	copy(v, m.val)
	return &CSR{rows: m.rows, cols: m.cols, rowPtr: rp, col: c, val: v}
}

// MulVec computes dst = M·x. dst must have length Rows and x length Cols;
// dst and x must not alias. With a pool attached (SetPool) the rows are
// partitioned across workers; each dst element is still accumulated by the
// same serial loop, so the result is bit-identical to serial execution.
func (m *CSR) MulVec(dst, x []float64) {
	if len(dst) != m.rows || len(x) != m.cols {
		panic(fmt.Sprintf("sparse: MulVec dims dst=%d x=%d want %d,%d", len(dst), len(x), m.rows, m.cols))
	}
	if bounds := m.parBounds(); bounds != nil {
		m.pool.ForBounds(bounds, func(_, lo, hi int) { m.mulVecRange(dst, x, lo, hi) })
		return
	}
	m.mulVecRange(dst, x, 0, m.rows)
}

// mulVecRange is the gather loop behind MulVec; the shared
// four-lane kernel (kernels.go) does the accumulation, so CSR and CSR32
// run the exact same sequence — which is what keeps the two layouts
// bit-identical.
func (m *CSR) mulVecRange(dst, x []float64, lo, hi int) {
	for i := lo; i < hi; i++ {
		start, end := m.rowPtr[i], m.rowPtr[i+1]
		dst[i] = GatherRow4(m.col[start:end], m.val[start:end], x)
	}
}

// Transpose returns Mᵀ as a new CSR matrix.
func (m *CSR) Transpose() *CSR {
	nnz := m.NNZ()
	rowPtr := make([]int, m.cols+1)
	for _, j := range m.col {
		rowPtr[j+1]++
	}
	for j := 0; j < m.cols; j++ {
		rowPtr[j+1] += rowPtr[j]
	}
	col := make([]int, nnz)
	val := make([]float64, nnz)
	next := make([]int, m.cols)
	copy(next, rowPtr[:m.cols])
	for i := 0; i < m.rows; i++ {
		for p := m.rowPtr[i]; p < m.rowPtr[i+1]; p++ {
			j := m.col[p]
			q := next[j]
			col[q] = i
			val[q] = m.val[p]
			next[j]++
		}
	}
	// Traversal by increasing row i keeps each output row sorted.
	return &CSR{rows: m.cols, cols: m.rows, rowPtr: rowPtr, col: col, val: val}
}

// Add returns M + B as a new matrix. Shapes must match.
func (m *CSR) Add(b *CSR) *CSR { return m.AddScaled(b, 1) }

// Sub returns M − B as a new matrix. Shapes must match.
func (m *CSR) Sub(b *CSR) *CSR { return m.AddScaled(b, -1) }

// AddScaled returns M + alpha·B as a new matrix. Shapes must match.
func (m *CSR) AddScaled(b *CSR, alpha float64) *CSR {
	if m.rows != b.rows || m.cols != b.cols {
		panic(fmt.Sprintf("sparse: AddScaled shape %dx%d vs %dx%d", m.rows, m.cols, b.rows, b.cols))
	}
	rowPtr := make([]int, m.rows+1)
	col := make([]int, 0, m.NNZ()+b.NNZ())
	val := make([]float64, 0, m.NNZ()+b.NNZ())
	for i := 0; i < m.rows; i++ {
		pa, ea := m.rowPtr[i], m.rowPtr[i+1]
		pb, eb := b.rowPtr[i], b.rowPtr[i+1]
		for pa < ea || pb < eb {
			switch {
			case pb >= eb || (pa < ea && m.col[pa] < b.col[pb]):
				col = append(col, m.col[pa])
				val = append(val, m.val[pa])
				pa++
			case pa >= ea || b.col[pb] < m.col[pa]:
				col = append(col, b.col[pb])
				val = append(val, alpha*b.val[pb])
				pb++
			default:
				col = append(col, m.col[pa])
				val = append(val, m.val[pa]+alpha*b.val[pb])
				pa++
				pb++
			}
		}
		rowPtr[i+1] = len(col)
	}
	return &CSR{rows: m.rows, cols: m.cols, rowPtr: rowPtr, col: col, val: val}
}

// Mul returns M·B as a new matrix using Gustavson's row-by-row algorithm.
func (m *CSR) Mul(b *CSR) *CSR {
	if m.cols != b.rows {
		panic(fmt.Sprintf("sparse: Mul inner dims %d vs %d", m.cols, b.rows))
	}
	rowPtr := make([]int, m.rows+1)
	var col []int
	var val []float64
	acc := make([]float64, b.cols)
	mark := make([]int, b.cols)
	for i := range mark {
		mark[i] = -1
	}
	rowCols := make([]int, 0, 64)
	for i := 0; i < m.rows; i++ {
		rowCols = rowCols[:0]
		for p := m.rowPtr[i]; p < m.rowPtr[i+1]; p++ {
			t := m.col[p]
			a := m.val[p]
			for q := b.rowPtr[t]; q < b.rowPtr[t+1]; q++ {
				j := b.col[q]
				if mark[j] != i {
					mark[j] = i
					acc[j] = 0
					rowCols = append(rowCols, j)
				}
				acc[j] += a * b.val[q]
			}
		}
		sort.Ints(rowCols)
		for _, j := range rowCols {
			col = append(col, j)
			val = append(val, acc[j])
		}
		rowPtr[i+1] = len(col)
	}
	return &CSR{rows: m.rows, cols: b.cols, rowPtr: rowPtr, col: col, val: val}
}

// Block returns the dense-index submatrix M[r0:r1, c0:c1] as a new CSR
// matrix of shape (r1−r0)×(c1−c0). Intended for extracting the contiguous
// partitions H11, H12, ... after node reordering.
func (m *CSR) Block(r0, r1, c0, c1 int) *CSR {
	return m.Partition([]int{r0, r1}, []int{c0, c1})[0][0]
}

// Partition cuts the matrix along row boundaries rowCuts and column
// boundaries colCuts (each non-decreasing and within the matrix) and
// returns the grid of blocks: out[a][b] = M[rowCuts[a]:rowCuts[a+1],
// colCuts[b]:colCuts[b+1]]. Entries left of colCuts[0] or right of the last
// cut belong to no block. Every block is counted before it is filled, so
// each array is allocated once at its final size, and a row band is walked
// twice (count, fill) however many blocks it feeds.
func (m *CSR) Partition(rowCuts, colCuts []int) [][]*CSR {
	checkCuts := func(cuts []int, limit int) {
		for i, c := range cuts {
			if c < 0 || c > limit || (i > 0 && c < cuts[i-1]) {
				panic(fmt.Sprintf("sparse: Partition cuts %v out of order or outside [0,%d]", cuts, limit))
			}
		}
	}
	checkCuts(rowCuts, m.rows)
	checkCuts(colCuts, m.cols)
	if len(rowCuts) < 2 || len(colCuts) < 2 {
		panic("sparse: Partition needs at least two row cuts and two column cuts")
	}
	nb := len(colCuts) - 1
	out := make([][]*CSR, len(rowCuts)-1)
	// first returns where row i's entries at or right of colCuts[0] start.
	first := func(i int) int {
		start, end := m.rowPtr[i], m.rowPtr[i+1]
		return start + sort.SearchInts(m.col[start:end], colCuts[0])
	}
	for a := range out {
		r0, r1 := rowCuts[a], rowCuts[a+1]
		band := make([]*CSR, nb)
		for b := range band {
			band[b] = &CSR{rows: r1 - r0, cols: colCuts[b+1] - colCuts[b], rowPtr: make([]int, r1-r0+1)}
		}
		// Count: a row's columns are sorted, so its entries fall into the
		// column bands left to right.
		for i := r0; i < r1; i++ {
			p, end := first(i), m.rowPtr[i+1]
			for b, blk := range band {
				q := p
				for q < end && m.col[q] < colCuts[b+1] {
					q++
				}
				blk.rowPtr[i-r0+1] = blk.rowPtr[i-r0] + q - p
				p = q
			}
		}
		for _, blk := range band {
			blk.col = make([]int, blk.rowPtr[r1-r0])
			blk.val = make([]float64, blk.rowPtr[r1-r0])
		}
		// Fill: the counts say where each band's run of the row ends.
		for i := r0; i < r1; i++ {
			p := first(i)
			for b, blk := range band {
				lo, hi := blk.rowPtr[i-r0], blk.rowPtr[i-r0+1]
				copy(blk.val[lo:hi], m.val[p:])
				for q := lo; q < hi; q++ {
					blk.col[q] = m.col[p] - colCuts[b]
					p++
				}
			}
		}
		out[a] = band
	}
	return out
}

// RowNormalize divides each nonempty row by its sum in place and returns m.
// Rows whose sum is zero are left untouched (deadend rows).
func (m *CSR) RowNormalize() *CSR {
	for i := 0; i < m.rows; i++ {
		var s float64
		for p := m.rowPtr[i]; p < m.rowPtr[i+1]; p++ {
			s += m.val[p]
		}
		if s == 0 {
			continue
		}
		inv := 1 / s
		for p := m.rowPtr[i]; p < m.rowPtr[i+1]; p++ {
			m.val[p] *= inv
		}
	}
	return m
}

// MemoryBytes reports the storage footprint of the matrix: 8 bytes per
// value, 8 per column index, 8 per row pointer. This is the quantity the
// paper reports as "memory space for preprocessed data".
func (m *CSR) MemoryBytes() int64 {
	return int64(len(m.val))*16 + int64(len(m.rowPtr))*8
}

// Equal reports whether the two matrices have identical shape, pattern and
// values.
func (m *CSR) Equal(b *CSR) bool {
	if m.rows != b.rows || m.cols != b.cols || m.NNZ() != b.NNZ() {
		return false
	}
	for i := range m.rowPtr {
		if m.rowPtr[i] != b.rowPtr[i] {
			return false
		}
	}
	for p := range m.col {
		if m.col[p] != b.col[p] || m.val[p] != b.val[p] {
			return false
		}
	}
	return true
}

// AlmostEqual reports whether the matrices agree entrywise within tol,
// treating missing entries as zero.
func (m *CSR) AlmostEqual(b *CSR, tol float64) bool {
	if m.rows != b.rows || m.cols != b.cols {
		return false
	}
	for _, v := range m.Sub(b).val {
		if math.Abs(v) > tol {
			return false
		}
	}
	return true
}

// String returns a short shape/nnz description.
func (m *CSR) String() string {
	return fmt.Sprintf("CSR{%dx%d, nnz=%d}", m.rows, m.cols, m.NNZ())
}
