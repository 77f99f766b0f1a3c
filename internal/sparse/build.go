package sparse

import (
	"fmt"

	"bepi/internal/par"
)

// Counting-sort assembly: the write path of an index builds each matrix it
// keeps by counting every row's entries in one pass and scattering them in a
// second, walking the columns in ascending order — so every row is born
// sorted, and every array is allocated once, at its final size and at the
// width it is served in. No triplet list, no per-row sort, no wide copy.

// Columns describes a matrix column by column: called with emit, it hands
// emit every column that holds entries, in strictly ascending j, with the
// column's rows — each at most once, in any order — and their values. An
// assembler calls it twice, to count and to fill, and it must describe the
// same entries both times.
type Columns func(emit func(j int, rows []uint32, vals []float64))

// PatternBuilder assembles a Pattern by counting sort (par.Scatter), over
// parts that each own a contiguous range of columns, in ascending order:
// Count every entry's row under its part, Alloc, Put every entry — each
// part's entries of a row in ascending column order, which walking its
// columns in ascending order gives — then Pattern. The parts may count and
// put on their own workers; the pattern is the same at any part count.
type PatternBuilder struct {
	rows, cols int
	rowSort    *par.Scatter[int]
	col16      []uint16
	col32      []uint32
}

// NewPatternBuilder starts a rows×cols pattern assembled by parts parts. It
// panics if the matrix dimensions exceed the uint32 index range.
func NewPatternBuilder(rows, cols, parts int) *PatternBuilder {
	if rows < 0 || cols < 0 || int64(rows) > maxIndex32 || int64(cols) > maxIndex32 {
		panic(fmt.Sprintf("sparse: pattern %dx%d outside the uint32 index range", rows, cols))
	}
	return &PatternBuilder{rows: rows, cols: cols, rowSort: par.NewScatter[int](rows, parts)}
}

// Count records one entry of part in row i.
func (b *PatternBuilder) Count(part, i int) { b.rowSort.Count(part, i) }

// Alloc ends counting and allocates the columns at the width NarrowCols
// picks; it returns the entry count.
func (b *PatternBuilder) Alloc() int {
	nnz := b.rowSort.Prefix()
	if NarrowCols(b.cols) {
		b.col16 = make([]uint16, nnz)
	} else {
		b.col32 = make([]uint32, nnz)
	}
	return nnz
}

// Put stores part's entry (i, j) and returns its position in the entry
// arrays.
func (b *PatternBuilder) Put(part, i, j int) int {
	p := b.rowSort.Put(part, i)
	if b.col16 != nil {
		b.col16[p] = uint16(j)
	} else {
		b.col32[p] = uint32(j)
	}
	return p
}

// layout returns the assembled index arrays, the row pointers narrowed to
// int32 when the entry count allows it.
func (b *PatternBuilder) layout() layout32 {
	l := layout32{rows: b.rows, cols: b.cols, col16: b.col16, col32: b.col32}
	rowPtr := b.rowSort.RowPtr()
	if wideRowPtr(rowPtr[b.rows]) {
		l.rowPtr64 = make([]int64, len(rowPtr))
		for i, p := range rowPtr {
			l.rowPtr64[i] = int64(p)
		}
	} else {
		l.rowPtr32 = make([]int32, len(rowPtr))
		for i, p := range rowPtr {
			l.rowPtr32[i] = int32(p)
		}
	}
	return l
}

// Pattern returns the assembled pattern. It panics if the entries put do
// not form one — fewer put than counted, or a row's columns not strictly
// ascending.
func (b *PatternBuilder) Pattern() *Pattern {
	if !b.rowSort.Filled() {
		panic("sparse: pattern entries put do not match those counted")
	}
	l := b.layout()
	if err := l.validate(); err != nil {
		panic(err)
	}
	return &Pattern{layout32: l}
}

// ExpandT returns the transpose of Expand(w), built directly: row j lists
// the rows of column j in ascending order, each entry holding w[j]. It is
// the column view the Schur-column routine reads, assembled by the counting
// sort of par.Scatter.
func (p *Pattern) ExpandT(w []float64) *CSR {
	if len(w) != p.cols {
		panic(fmt.Sprintf("sparse: ExpandT with %d weights for %d columns", len(w), p.cols))
	}
	switch {
	case p.rowPtr32 != nil && p.col16 != nil:
		return transposeScaled(p.rows, p.cols, p.rowPtr32, p.col16, w)
	case p.rowPtr32 != nil:
		return transposeScaled(p.rows, p.cols, p.rowPtr32, p.col32, w)
	case p.col16 != nil:
		return transposeScaled(p.rows, p.cols, p.rowPtr64, p.col16, w)
	default:
		return transposeScaled(p.rows, p.cols, p.rowPtr64, p.col32, w)
	}
}

// transposeScaled returns the transpose of the rows×cols pattern (rowPtr,
// col) scaled by w, walking the pattern's rows in ascending order.
func transposeScaled[P int32 | int64, C uint16 | uint32](rows, cols int, rowPtr []P, col []C, w []float64) *CSR {
	s := par.NewScatter[int](cols, 1)
	for _, j := range col {
		s.Count(0, int(j))
	}
	t := &CSR{rows: cols, cols: rows, col: make([]int, s.Prefix())}
	t.val = make([]float64, len(t.col))
	for i := 0; i < rows; i++ {
		for _, j := range col[rowPtr[i]:rowPtr[i+1]] {
			q := s.Put(0, int(j))
			t.col[q], t.val[q] = i, w[j]
		}
	}
	t.rowPtr = s.RowPtr()
	return t
}
