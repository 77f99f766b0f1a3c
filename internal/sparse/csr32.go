package sparse

import (
	"fmt"
	"math"

	"bepi/internal/par"
)

// maxIndex32 is the exclusive upper bound on dimensions addressable by the
// compact uint32 column indices.
const maxIndex32 = int64(1) << 32

// NarrowCols reports whether a matrix of cols columns stores its column
// indexes in 16 bits — exactly when every column index fits a uint16. It is
// the one choice of the column width: every compact matrix of the package
// and lu's triangular factors make it here, from the column count alone, so
// the width of a stored array follows from the shape written beside it.
func NarrowCols(cols int) bool { return cols <= 1<<16 }

// CSR32 is the bandwidth-lean, immutable counterpart of CSR: column indices
// are uint16 when the column count allows it (NarrowCols) and uint32
// otherwise, row pointers are int32 when the entry count allows it (int64
// otherwise), both chosen at build time, and values stay float64. Narrowing
// the indexes cuts the index bytes an SpMV streams per stored entry, which
// is the dominant cost of the memory-bound iteration kernels.
//
// The kernels perform the exact additions and multiplications of the CSR
// kernels in the same order, so their results are bit-identical to CSR at
// any worker count and either index width.
//
// CSR32 is immutable after construction: there is no mutating API, and its
// constructor, Compact, takes a matrix already in shape, a CSR.
type CSR32 struct {
	layout32
	val []float64
}

// layout32 is what CSR32 and Pattern share: the shape, the compact index
// arrays, and the pool with the row partition the kernels split rows by.
type layout32 struct {
	rows, cols int
	// Exactly one of rowPtr32/rowPtr64 is non-nil. col16 is non-nil exactly
	// when NarrowCols(cols); otherwise col32 holds the columns.
	rowPtr32 []int32
	rowPtr64 []int64
	col16    []uint16
	col32    []uint32

	// pool, when set, parallelizes the matvec kernels above ParallelMinNNZ
	// by nnz-balanced row partition, exactly like CSR.
	pool *par.Pool
	// bounds is the row partition setPool computes, exactly like
	// CSR.bounds.
	bounds []int
}

// narrow copies column indexes known to fit C into a fresh array of C; the
// result is non-nil even when empty, which is how a layout tells its width.
func narrow[C uint16 | uint32](src []int) []C {
	out := make([]C, len(src))
	for i, j := range src {
		out[i] = C(j)
	}
	return out
}

// widen copies compact column indexes into ints.
func widen[C uint16 | uint32](src []C) []int {
	out := make([]int, len(src))
	for i, j := range src {
		out[i] = int(j)
	}
	return out
}

// compactLayout narrows a CSR's index arrays: 16-bit columns when the
// column count allows it, int32 row pointers when nnz fits, the wider types
// otherwise. The row partition depends on the row pointers' values only, so
// the wide matrix's cached one carries over. It panics if the matrix
// dimensions exceed the uint32 index range.
func compactLayout(m *CSR) layout32 {
	if int64(m.cols) > maxIndex32 || int64(m.rows) > maxIndex32 {
		panic(fmt.Sprintf("sparse: compacting %dx%d exceeds the uint32 index range", m.rows, m.cols))
	}
	l := layout32{rows: m.rows, cols: m.cols, pool: m.pool, bounds: m.bounds}
	if NarrowCols(m.cols) {
		l.col16 = narrow[uint16](m.col)
	} else {
		l.col32 = narrow[uint32](m.col)
	}
	// The last entry is the largest, so checking it covers the whole array.
	if nnz := m.rowPtr[m.rows]; int64(nnz) <= math.MaxInt32 {
		l.rowPtr32 = make([]int32, len(m.rowPtr))
		for i, p := range m.rowPtr {
			l.rowPtr32[i] = int32(p)
		}
	} else {
		l.rowPtr64 = make([]int64, len(m.rowPtr))
		for i, p := range m.rowPtr {
			l.rowPtr64[i] = int64(p)
		}
	}
	return l
}

// wide returns the index arrays widened to CSR's ints.
func (l *layout32) wide() (rowPtr, col []int) {
	rowPtr = make([]int, l.rows+1)
	if l.rowPtr32 != nil {
		for i, p := range l.rowPtr32 {
			rowPtr[i] = int(p)
		}
	} else {
		for i, p := range l.rowPtr64 {
			rowPtr[i] = int(p)
		}
	}
	if l.col16 != nil {
		return rowPtr, widen(l.col16)
	}
	return rowPtr, widen(l.col32)
}

// rowStart returns the position of row i's first entry; rowStart(rows) is
// the entry count.
func (l *layout32) rowStart(i int) int {
	if l.rowPtr32 != nil {
		return int(l.rowPtr32[i])
	}
	return int(l.rowPtr64[i])
}

// validate is validateCompact over the layout's own arrays, at their widths.
func (l *layout32) validate() error {
	switch {
	case l.rowPtr32 != nil && l.col16 != nil:
		return validateCompact(l.rows, l.cols, l.rowPtr32, l.col16)
	case l.rowPtr32 != nil:
		return validateCompact(l.rows, l.cols, l.rowPtr32, l.col32)
	case l.col16 != nil:
		return validateCompact(l.rows, l.cols, l.rowPtr64, l.col16)
	default:
		return validateCompact(l.rows, l.cols, l.rowPtr64, l.col32)
	}
}

// Rows returns the number of rows.
func (l *layout32) Rows() int { return l.rows }

// Cols returns the number of columns.
func (l *layout32) Cols() int { return l.cols }

// NNZ returns the number of stored entries.
func (l *layout32) NNZ() int { return len(l.col16) + len(l.col32) }

// setPool attaches a pool and computes the row partition its kernels split
// rows by, once.
func (l *layout32) setPool(p *par.Pool) {
	l.pool = p
	l.bounds = nil
	if p.Workers() > 1 && l.rows >= 2 {
		if l.rowPtr32 != nil {
			l.bounds = par.BoundsByPrefix(l.rowPtr32, p.Workers())
		} else {
			l.bounds = par.BoundsByPrefix(l.rowPtr64, p.Workers())
		}
	}
}

// parBounds mirrors CSR.parBounds.
func (l *layout32) parBounds() []int {
	if l.NNZ() < ParallelMinNNZ {
		return nil
	}
	return l.bounds
}

// indexBytes is the footprint of the index arrays: 2 or 4 bytes per column
// index and 4 or 8 per row pointer as chosen at build time.
func (l *layout32) indexBytes() int64 {
	b := int64(len(l.col16))*2 + int64(len(l.col32))*4
	if l.rowPtr32 != nil {
		b += int64(len(l.rowPtr32)) * 4
	} else {
		b += int64(len(l.rowPtr64)) * 8
	}
	return b
}

// Compact converts a CSR matrix into the compact layout, sharing the
// float64 value slice (values are identical; only the index arrays shrink)
// unless that slice was built with spare capacity (AddScaled sizes for the
// worst case): a compact matrix may be retained, and MemoryBytes counts
// lengths, so such values are copied to their exact size instead of pinning
// the dead tail.
// It panics if the matrix dimensions exceed the uint32 index range. The
// conversion is lossless: ToCSR reproduces an Equal matrix, and every
// kernel is bit-identical to its CSR counterpart.
func Compact(m *CSR) *CSR32 {
	c := &CSR32{layout32: compactLayout(m), val: m.val}
	if cap(c.val) > len(c.val) {
		c.val = make([]float64, len(m.val))
		copy(c.val, m.val)
	}
	return c
}

// ToCSR widens the matrix back to the standard CSR layout. The round trip
// CSR -> Compact -> ToCSR is exact (Equal).
func (m *CSR32) ToCSR() *CSR {
	rowPtr, col := m.wide()
	val := make([]float64, len(m.val))
	copy(val, m.val)
	return &CSR{rows: m.rows, cols: m.cols, rowPtr: rowPtr, col: col, val: val, pool: m.pool, bounds: m.bounds}
}

// SetPool attaches a parallel pool and returns m; semantics match
// CSR.SetPool (parallel above ParallelMinNNZ, bit-identical results).
func (m *CSR32) SetPool(p *par.Pool) *CSR32 {
	m.setPool(p)
	return m
}

// The range kernel is generic over the row-pointer and the column width,
// so all four layouts share one loop body, delegating the per-row
// accumulation to the shared gather kernel (kernels.go): the compiled loop
// performs the exact CSR operation sequence, which is what keeps CSR32
// bit-identical to CSR.

func mulVecRange32[P int32 | int64, C uint16 | uint32](rowPtr []P, col []C, val, dst, x []float64, lo, hi int) {
	for i := lo; i < hi; i++ {
		start, end := rowPtr[i], rowPtr[i+1]
		dst[i] = GatherRow4(col[start:end], val[start:end], x)
	}
}

func (m *CSR32) mulVecRange(dst, x []float64, lo, hi int) {
	switch {
	case m.rowPtr32 != nil && m.col16 != nil:
		mulVecRange32(m.rowPtr32, m.col16, m.val, dst, x, lo, hi)
	case m.rowPtr32 != nil:
		mulVecRange32(m.rowPtr32, m.col32, m.val, dst, x, lo, hi)
	case m.col16 != nil:
		mulVecRange32(m.rowPtr64, m.col16, m.val, dst, x, lo, hi)
	default:
		mulVecRange32(m.rowPtr64, m.col32, m.val, dst, x, lo, hi)
	}
}

// MulVec computes dst = M·x with the same dimension rules, pool behavior
// and bit-identical results as CSR.MulVec.
func (m *CSR32) MulVec(dst, x []float64) {
	if len(dst) != m.rows || len(x) != m.cols {
		panic(fmt.Sprintf("sparse: MulVec dims dst=%d x=%d want %d,%d", len(dst), len(x), m.rows, m.cols))
	}
	if bounds := m.parBounds(); bounds != nil {
		m.pool.ForBounds(bounds, func(_, lo, hi int) { m.mulVecRange(dst, x, lo, hi) })
		return
	}
	m.mulVecRange(dst, x, 0, m.rows)
}

// MemoryBytes reports the storage footprint: 8 bytes per value, 2 or 4 per
// column index, and 4 or 8 per row pointer as chosen at build time. Compare
// CSR.MemoryBytes' 16 bytes per entry + 8 per row.
func (m *CSR32) MemoryBytes() int64 {
	return m.indexBytes() + int64(len(m.val))*8
}

// String returns a short shape/nnz description.
func (m *CSR32) String() string {
	return fmt.Sprintf("CSR32{%dx%d, nnz=%d}", m.rows, m.cols, m.NNZ())
}
