package lu

import (
	"fmt"
	"math"
	"sort"

	"bepi/internal/par"
	"bepi/internal/sparse"
)

// ILU holds an incomplete factorization of a square matrix A restricted to
// A's own sparsity pattern, so the stored entry count equals the input's —
// the property Theorem 3 of the paper relies on. Two factorizations share
// the struct:
//
//   - FactorILU0, the paper's ILU(0): A ≈ L·U with L unit lower triangular
//     (strict part stored) and U upper triangular.
//   - FactorDILU, the diagonal ILU: A ≈ L̂·D⁻¹·Û with L̂ = D + L_A and
//     Û = D + U_A — only the pivots D differ from A, the strict triangles
//     are A's own. ds then holds A's own diagonal D_S, so the factors are A
//     stored once: Matrix gives it back exactly, WriterTo writes it in the
//     factors' own layout, and Eisenstat applies the preconditioned
//     operator in one pass over them with K = 2D − D_S formed per row.
//
// Both keep the two triangles as separate row-major structures in natural
// row order, each row of the upper one led by its pivot, indexed by int32
// row pointers and uint16 columns — uint32 past 65 536 rows, the width
// sparse.NarrowCols picks. The factors are immutable after construction;
// SetPool only chooses where MulVec runs.
type ILU struct {
	n    int
	l, u triFactor
	ds   []float64 // nil for ILU(0)

	// pool and the row partition bounds run MulVec in parallel (SetPool).
	pool   *par.Pool
	bounds []int
}

// triFactor is one triangular factor in row-major storage, rows in natural
// order, columns ascending within a row (so a row of the upper factor leads
// with its diagonal entry). col16 is non-nil exactly when
// sparse.NarrowCols(n); otherwise col32 holds the columns.
type triFactor struct {
	val    []float64
	rowPtr []int32
	col16  []uint16
	col32  []uint32
}

func (t *triFactor) nnz() int { return len(t.val) }

// rowSpan returns row i's half-open entry range.
func (t *triFactor) rowSpan(i int) (int, int) {
	return int(t.rowPtr[i]), int(t.rowPtr[i+1])
}

// colAt returns the column of entry p, for the cold paths.
func (t *triFactor) colAt(p int) int {
	if t.col16 != nil {
		return int(t.col16[p])
	}
	return int(t.col32[p])
}

// alloc sizes the entries of the factor of an n×n matrix for nnz of them,
// the columns at the width sparse.NarrowCols picks.
func (t *triFactor) alloc(n, nnz int) {
	t.val = make([]float64, nnz)
	if sparse.NarrowCols(n) {
		t.col16 = make([]uint16, nnz)
	} else {
		t.col32 = make([]uint32, nnz)
	}
}

func (t *triFactor) memoryBytes() int64 {
	return int64(len(t.val))*8 + int64(len(t.col16))*2 + int64(len(t.col32))*4 + int64(len(t.rowPtr))*4
}

// diagPositions locates every row's diagonal entry in a square CSR matrix
// with sorted rows, refusing one the factors' 32-bit indexes cannot hold.
func diagPositions(a *sparse.CSR, what string) ([]int, error) {
	n := a.Rows()
	if n != a.Cols() {
		return nil, fmt.Errorf("lu: %s requires a square matrix, got %v", what, a)
	}
	if int64(n) >= 1<<32 || a.NNZ() > math.MaxInt32 {
		return nil, fmt.Errorf("lu: %s of %v exceeds the factors' 32-bit index range", what, a)
	}
	rowPtr, col := a.RowPtr(), a.ColIdx()
	diagPos := make([]int, n)
	for i := 0; i < n; i++ {
		row := col[rowPtr[i]:rowPtr[i+1]]
		p := sort.SearchInts(row, i)
		if p == len(row) || row[p] != i {
			return nil, fmt.Errorf("lu: %s missing diagonal at row %d", what, i)
		}
		diagPos[i] = rowPtr[i] + p
	}
	return diagPos, nil
}

// splitTriangles copies a packed pattern (strict lower part below diagPos,
// diagonal and upper part from it) into the two exactly-sized factors,
// narrowing the indexes on the way.
func splitTriangles(n int, rowPtr, col []int, val []float64, diagPos []int) (l, u triFactor) {
	var nnzL int
	for i := 0; i < n; i++ {
		nnzL += diagPos[i] - rowPtr[i]
	}
	gather := func(t *triFactor, nnz int, span func(i int) (lo, hi int)) {
		t.rowPtr = make([]int32, n+1)
		t.alloc(n, nnz)
		out := 0
		for i := 0; i < n; i++ {
			lo, hi := span(i)
			if t.col16 != nil {
				narrowInto(t.col16[out:], col[lo:hi])
			} else {
				narrowInto(t.col32[out:], col[lo:hi])
			}
			copy(t.val[out:], val[lo:hi])
			out += hi - lo
			t.rowPtr[i+1] = int32(out)
		}
	}
	gather(&l, nnzL, func(i int) (int, int) { return rowPtr[i], diagPos[i] })
	gather(&u, len(val)-nnzL, func(i int) (int, int) { return diagPos[i], rowPtr[i+1] })
	return l, u
}

// narrowInto copies column indexes known to fit C into dst.
func narrowInto[C uint16 | uint32](dst []C, src []int) {
	for p, j := range src {
		dst[p] = C(j)
	}
}

// FactorILU0 computes the ILU(0) factorization of a square CSR matrix. The
// matrix must have a nonzero diagonal. A small pivot is replaced by a signed
// epsilon to keep the preconditioner applicable (standard ILU practice); the
// factorization is approximate anyway. The input is only read: elimination
// runs in place on one working copy of its values, over its own pattern.
func FactorILU0(a *sparse.CSR) (*ILU, error) {
	diagPos, err := diagPositions(a, "ILU0")
	if err != nil {
		return nil, err
	}
	n := a.Rows()
	rowPtr, col := a.RowPtr(), a.ColIdx()
	val := make([]float64, a.NNZ())
	copy(val, a.Values())

	// IKJ variant: for each row i, eliminate with all previous rows k that
	// appear in row i's pattern. pos[j] maps column j to its position in
	// row i, or -1. Row k's pivot is nonzero by the time a later row divides
	// by it: a zero one is replaced as soon as row k is finished.
	pos := make([]int, n)
	for j := range pos {
		pos[j] = -1
	}
	for i := 0; i < n; i++ {
		start, end := rowPtr[i], rowPtr[i+1]
		for p := start; p < end; p++ {
			pos[col[p]] = p
		}
		for p := start; p < diagPos[i]; p++ {
			k := col[p]
			lik := val[p] / val[diagPos[k]]
			val[p] = lik
			for q := diagPos[k] + 1; q < rowPtr[k+1]; q++ {
				if t := pos[col[q]]; t >= 0 {
					val[t] -= float64(lik * val[q])
				}
			}
		}
		if val[diagPos[i]] == 0 {
			val[diagPos[i]] = 1e-12
		}
		for p := start; p < end; p++ {
			pos[col[p]] = -1
		}
	}
	f := &ILU{n: n}
	f.l, f.u = splitTriangles(n, rowPtr, col, val, diagPos)
	return f, nil
}

// FactorDILU computes the diagonal incomplete factorization of a square
// CSR matrix with a nonzero diagonal: one O(nnz) pass for the pivots
//
//	d_i = a_ii − Σ a_ik·a_ki/d_k   over k < i with (i,k) and (k,i) stored,
//
// the off-diagonals left as A's own. A zero pivot is replaced by the same
// epsilon FactorILU0 uses. For the M-matrices the engine factors (Schur
// complements of I − (1−c)Ãᵀ) every pivot is positive. Engines build their
// factors as triangles (FactorTriangles); this is the tests' reference.
func FactorDILU(a *sparse.CSR) (*ILU, error) {
	diagPos, err := diagPositions(a, "DILU")
	if err != nil {
		return nil, err
	}
	n := a.Rows()
	f := &ILU{n: n}
	f.l, f.u = splitTriangles(n, a.RowPtr(), a.ColIdx(), a.Values(), diagPos)
	f.derivePivots()
	return f, nil
}

// Triangles is a square matrix split at its diagonal into the two triangles
// DILU factors keep, before its pivots exist: the strict lower triangle,
// and the upper one with every row led by its diagonal entry. Build it with
// a TriangleBuilder; FactorTriangles adopts it.
type Triangles struct {
	n    int
	l, u triFactor
}

// TriangleBuilder scatters the columns of an n×n matrix into its two
// triangles by counting sort (par.Scatter), over parts that each own a
// contiguous range of columns: Count every column under its part, Alloc,
// Put every column again — each part's in ascending order — then
// Triangles. The parts may count and put on their own workers; the columns
// arriving ascending within a part and parts in column order, every row is
// born sorted, each upper row led by its smallest column, and the triangles
// are the same at any part count. The columns take the width
// sparse.NarrowCols picks.
type TriangleBuilder struct {
	t     Triangles
	sorts [2]*par.Scatter[int32] // L̂'s rows, then Û's
	last  []int                  // the last column each part put
}

// upper is the triangle entry (i, j) falls in: 0 for L̂ (i > j), 1 for Û.
// It is an index, not a branch: which triangle a column's next row falls
// in is as good as random.
func upper(i uint32, j int) int {
	k := 0
	if int(i) <= j {
		k = 1
	}
	return k
}

// NewTriangleBuilder starts the triangles of an n×n matrix assembled by
// parts parts. It refuses an n the factors' 32-bit indexes cannot hold,
// before allocating anything.
func NewTriangleBuilder(n, parts int) (*TriangleBuilder, error) {
	if n < 0 || int64(n) >= 1<<32 {
		return nil, fmt.Errorf("lu: DILU of a %dx%d matrix exceeds the factors' 32-bit index range", n, n)
	}
	b := &TriangleBuilder{t: Triangles{n: n}, sorts: [2]*par.Scatter[int32]{par.NewScatter[int32](n, parts), par.NewScatter[int32](n, parts)}}
	b.last = make([]int, b.sorts[0].Parts())
	for i := range b.last {
		b.last[i] = -1
	}
	return b, nil
}

// Count records part's column j, whose entries lie in rows.
func (b *TriangleBuilder) Count(part, j int, rows []uint32) {
	for _, i := range rows {
		b.sorts[upper(i, j)].Count(part, int(i))
	}
}

// Alloc ends counting and allocates the entries. It refuses more entries
// than the factors' 32-bit row pointers hold, before allocating them.
func (b *TriangleBuilder) Alloc() error {
	nnzL, nnzU := b.sorts[0].Prefix(), b.sorts[1].Prefix()
	if int64(nnzL)+int64(nnzU) > math.MaxInt32 {
		return fmt.Errorf("lu: DILU of a %dx%d matrix of %d entries exceeds the factors' 32-bit index range", b.t.n, b.t.n, nnzL+nnzU)
	}
	b.t.l.alloc(b.t.n, nnzL)
	b.t.u.alloc(b.t.n, nnzU)
	b.t.l.rowPtr, b.t.u.rowPtr = b.sorts[0].RowPtr(), b.sorts[1].RowPtr()
	return nil
}

// Put stores part's column j: its entries in rows with their vals. It
// panics on a column out of range or not after the part's last one.
func (b *TriangleBuilder) Put(part, j int, rows []uint32, vals []float64) {
	if j <= b.last[part] || j >= b.t.n {
		panic(fmt.Sprintf("lu: column %d after %d in a %dx%d matrix", j, b.last[part], b.t.n, b.t.n))
	}
	b.last[part] = j
	if b.t.u.col16 != nil {
		putColumn(b, b.t.l.col16, b.t.u.col16, part, j, rows, vals)
	} else {
		putColumn(b, b.t.l.col32, b.t.u.col32, part, j, rows, vals)
	}
}

func putColumn[C uint16 | uint32](b *TriangleBuilder, lCol, uCol []C, part, j int, rows []uint32, vals []float64) {
	cols := [2][]C{lCol, uCol}
	vs := [2][]float64{b.t.l.val, b.t.u.val}
	vals = vals[:len(rows)]
	for k, i := range rows {
		t := upper(i, j)
		p := b.sorts[t].Put(part, int(i))
		cols[t][p], vs[t][p] = C(j), vals[k]
	}
}

// Triangles returns the assembled triangles. It refuses an upper row not
// led by its diagonal, and panics if fewer entries were put than counted.
func (b *TriangleBuilder) Triangles() (*Triangles, error) {
	t := b.triangles()
	if err := t.checkDiagonal(); err != nil {
		return nil, err
	}
	return t, nil
}

func (b *TriangleBuilder) triangles() *Triangles {
	if !b.sorts[0].Filled() || !b.sorts[1].Filled() {
		panic("lu: triangle entries put do not match those counted")
	}
	t := b.t
	return &t
}

// columnTriangles splits the n×n matrix the columns describe into its two
// triangles, with no check of the diagonal: a TriangleBuilder of one part,
// c walked once to count and once to put.
func columnTriangles(n int, c sparse.Columns) (*Triangles, error) {
	b, err := NewTriangleBuilder(n, 1)
	if err != nil {
		return nil, err
	}
	c(func(j int, rows []uint32, _ []float64) { b.Count(0, j, rows) })
	if err := b.Alloc(); err != nil {
		return nil, err
	}
	c(func(j int, rows []uint32, vals []float64) { b.Put(0, j, rows, vals) })
	return b.triangles(), nil
}

// checkDiagonal refuses triangles with an upper row not led by its diagonal.
func (t *Triangles) checkDiagonal() error {
	for i := 0; i < t.n; i++ {
		if lo, hi := t.u.rowSpan(i); lo == hi || t.u.colAt(lo) != i {
			return fmt.Errorf("lu: DILU missing diagonal at row %d", i)
		}
	}
	return nil
}

// FactorTriangles computes the DILU factorization of the matrix t holds,
// adopting its triangles as the factors' own: D_S and the pivots are all it
// derives, so the factors are FactorDILU's of the same matrix bit for bit.
// t must not be used afterwards.
func FactorTriangles(t *Triangles) *ILU {
	f := &ILU{n: t.n, l: t.l, u: t.u}
	*t = Triangles{}
	f.derivePivots()
	return f
}

// derivePivots reads D_S off the leads of Û's rows, which still hold A's
// own diagonal, and replaces each lead by its pivot.
func (f *ILU) derivePivots() {
	f.ds = make([]float64, f.n)
	for i := range f.ds {
		f.ds[i] = f.u.val[f.u.rowPtr[i]]
	}
	f.pivots()
}

// pivots runs the DILU recurrence over factors whose rows of Û still lead
// with A's own diagonal (f.ds), replacing each lead by its pivot d_i in
// ascending i — the division by d_k reads the pivot row k < i already
// holds.
func (f *ILU) pivots() {
	if f.u.col16 != nil {
		pivots(f, f.l.col16, f.u.col16)
	} else {
		pivots(f, f.l.col32, f.u.col32)
	}
}

func pivots[C uint16 | uint32](f *ILU, lCol, uCol []C) {
	l, u := &f.l, &f.u
	// next[k] walks row k's strict upper part: rows i ask for a_ki in
	// ascending i, so each cursor only ever moves forward.
	next := make([]int32, f.n)
	for k := range next {
		next[k] = u.rowPtr[k] + 1
	}
	for i := 0; i < f.n; i++ {
		d := f.ds[i]
		lo, hi := l.rowSpan(i)
		for p := lo; p < hi; p++ {
			k := lCol[p]
			q, end := next[k], u.rowPtr[k+1]
			for q < end && int(uCol[q]) < i {
				q++
			}
			next[k] = q
			if q < end && int(uCol[q]) == i {
				d -= l.val[p] * u.val[q] / u.val[u.rowPtr[k]]
			}
		}
		if d == 0 {
			d = 1e-12
		}
		u.val[u.rowPtr[i]] = d
	}
}

// N returns the dimension.
func (f *ILU) N() int { return f.n }

// NNZ returns the number of stored factor entries (equal to the factored
// matrix's entry count).
func (f *ILU) NNZ() int { return f.l.nnz() + f.u.nnz() }

// Apply computes dst = M⁻¹·src, the classic left-preconditioner
// application: U⁻¹·L⁻¹ for ILU(0), Û⁻¹·D·L̂⁻¹ for DILU. dst and src may
// alias.
func (f *ILU) Apply(dst, src []float64) {
	if len(dst) != f.n || len(src) != f.n {
		panic("lu: ILU.Apply length mismatch")
	}
	if f.n == 0 {
		return
	}
	if &dst[0] != &src[0] {
		copy(dst, src)
	}
	if f.u.col16 != nil {
		apply(f, f.l.col16, f.u.col16, dst)
	} else {
		apply(f, f.l.col32, f.u.col32, dst)
	}
}

func apply[C uint16 | uint32](f *ILU, lCol, uCol []C, dst []float64) {
	l, u := &f.l, &f.u
	if f.ds == nil {
		sweepLower(l.rowPtr, lCol, l.val, dst)
		sweepUpper(u.rowPtr, uCol, u.val, dst)
	} else {
		sweepLowerPivot(l.rowPtr, lCol, l.val, u.rowPtr, u.val, dst)
		sweepUpperScaled(u.rowPtr, uCol, u.val, dst)
	}
}

// Product returns the explicit preconditioner matrix M as CSR — L·U for
// ILU(0), L̂·D⁻¹·Û for DILU; for tests of the on-pattern approximation
// properties.
func (f *ILU) Product() *sparse.CSR {
	l, u := f.Split()
	if f.ds != nil {
		// Scale row i of Û by 1/d_i: D⁻¹·Û.
		uc := sparse.NewCOO(f.n, f.n)
		for i := 0; i < f.n; i++ {
			start, end := f.u.rowSpan(i)
			for p := start; p < end; p++ {
				uc.Add(i, f.u.colAt(p), f.u.val[p]/f.u.val[start])
			}
		}
		u = uc.ToCSR()
	}
	return l.Mul(u)
}

// Split returns the lower and upper factors as separate CSR matrices: the
// unit-lower L (explicit unit diagonal) and U for ILU(0), L̂ = D + L_A and
// Û = D + U_A for DILU.
func (f *ILU) Split() (l, u *sparse.CSR) {
	lc := sparse.NewCOO(f.n, f.n)
	uc := sparse.NewCOO(f.n, f.n)
	for i := 0; i < f.n; i++ {
		ustart, uend := f.u.rowSpan(i)
		if f.ds != nil {
			lc.Add(i, i, f.u.val[ustart])
		} else {
			lc.Add(i, i, 1)
		}
		start, end := f.l.rowSpan(i)
		for p := start; p < end; p++ {
			lc.Add(i, f.l.colAt(p), f.l.val[p])
		}
		for p := ustart; p < uend; p++ {
			uc.Add(i, f.u.colAt(p), f.u.val[p])
		}
	}
	return lc.ToCSR(), uc.ToCSR()
}

// SetPool attaches a pool and returns f. From sparse.ParallelMinNNZ entries
// on, MulVec then splits the rows across it into chunks of balanced entry
// counts, computed here once; the product is the same at any worker count.
func (f *ILU) SetPool(p *par.Pool) *ILU {
	f.pool, f.bounds = p, nil
	if p.Workers() > 1 && f.NNZ() >= sparse.ParallelMinNNZ {
		prefix := make([]int32, f.n+1)
		for i := range prefix {
			prefix[i] = f.l.rowPtr[i] + f.u.rowPtr[i]
		}
		f.bounds = par.BoundsByPrefix(prefix, p.Workers())
	}
	return f
}

// MulVec computes dst = A·x, A the matrix of DILU factors read straight off
// them — row i is the strict-lower row, D_S's entry, the strict-upper row.
// dst and x must not alias. It implements the solvers' operator contract.
func (f *ILU) MulVec(dst, x []float64) {
	if len(dst) != f.n || len(x) != f.n {
		panic("lu: ILU.MulVec length mismatch")
	}
	if f.bounds != nil {
		f.pool.ForBounds(f.bounds, func(_, lo, hi int) { f.mulVecRange(dst, x, lo, hi) })
		return
	}
	f.mulVecRange(dst, x, 0, f.n)
}

func (f *ILU) mulVecRange(dst, x []float64, lo, hi int) {
	if f.u.col16 != nil {
		mulVecRange(f, f.l.col16, f.u.col16, dst, x, lo, hi)
	} else {
		mulVecRange(f, f.l.col32, f.u.col32, dst, x, lo, hi)
	}
}

func mulVecRange[C uint16 | uint32](f *ILU, lCol, uCol []C, dst, x []float64, lo, hi int) {
	l, u := &f.l, &f.u
	for i := lo; i < hi; i++ {
		llo, lhi := l.rowSpan(i)
		ulo, uhi := u.rowSpan(i)
		dst[i] = sparse.GatherRow4(lCol[llo:lhi], l.val[llo:lhi], x) + float64(f.ds[i]*x[i]) +
			sparse.GatherRow4(uCol[ulo+1:uhi], u.val[ulo+1:uhi], x)
	}
}

// matrixRows describes the matrix a DILU factorization was computed from,
// as the three runs that hold each row i: the strict-lower row, the
// diagonal (D_S, under the column index leading the upper row) and the
// strict-upper row.
func matrixRows[C uint16 | uint32](f *ILU, lCol, uCol []C) sparse.RowRuns[C] {
	return func(i int, emit func(col []C, val []float64)) {
		lo, hi := f.l.rowSpan(i)
		emit(lCol[lo:hi], f.l.val[lo:hi])
		lo, hi = f.u.rowSpan(i)
		emit(uCol[lo:lo+1], f.ds[i:i+1])
		emit(uCol[lo+1:hi], f.u.val[lo+1:hi])
	}
}

// Matrix reassembles the matrix a DILU factorization was computed from:
// copies only, so pattern and values (by Float64bits) are FactorDILU's
// input exactly.
func (f *ILU) Matrix() *sparse.CSR {
	if f.ds == nil {
		panic("lu: only a DILU factorization retains its matrix")
	}
	if f.u.col16 != nil {
		return sparse.CSRFromRows(f.n, f.n, matrixRows(f, f.l.col16, f.u.col16))
	}
	return sparse.CSRFromRows(f.n, f.n, matrixRows(f, f.l.col32, f.u.col32))
}

// MemoryBytes reports the storage footprint of everything the factorization
// retains: both factors' values and index arrays, and DILU's diagonal D_S —
// for DILU, 10 bytes per entry of the factored matrix (12 past 65 536
// rows), two row-pointer arrays and one diagonal, and the matrix needs no
// other copy.
func (f *ILU) MemoryBytes() int64 {
	return f.l.memoryBytes() + f.u.memoryBytes() + int64(len(f.ds))*8
}

// Rows are sliced so the inner loop ranges over the row (bounds-check
// free), like the SpMV kernels. The backward sweeps walk each row from its
// last entry to its first, so the whole sweep reads the factor arrays in
// one direction — descending — instead of stepping forward inside a row and
// backward between rows, which costs the hardware prefetcher about a tenth
// of the sweep.

// subRow returns s − Σ vals[p]·x[cols[p]], subtracting in ascending p. It
// and subRowDesc inline into the sweeps and the Eisenstat halves: a row
// loop of its own keeps the sweep's other slices out of its registers,
// without which the generic sweeps ran about a tenth slower than
// one-width code.
func subRow[C uint16 | uint32](s float64, cols []C, vals, x []float64) float64 {
	vals = vals[:len(cols)]
	for p, j := range cols {
		s -= float64(vals[p] * x[j])
	}
	return s
}

// subRowDesc is subRow subtracting in descending p.
func subRowDesc[C uint16 | uint32](s float64, cols []C, vals, x []float64) float64 {
	vals = vals[:len(cols)]
	for p := len(cols) - 1; p >= 0; p-- {
		s -= float64(vals[p] * x[cols[p]])
	}
	return s
}

// sweepLower is unit-lower forward substitution in place:
// dst[i] −= Σ L[i,j]·dst[j].
func sweepLower[C uint16 | uint32](rowPtr []int32, col []C, val, dst []float64) {
	for i := range dst {
		lo, hi := int(rowPtr[i]), int(rowPtr[i+1])
		dst[i] = subRow(dst[i], col[lo:hi], val[lo:hi], dst)
	}
}

// sweepUpper is upper back substitution in place; each row leads with its
// pivot: dst[i] = (dst[i] − Σ U[i,j]·dst[j]) / U[i,i].
func sweepUpper[C uint16 | uint32](rowPtr []int32, col []C, val, dst []float64) {
	for i := len(dst) - 1; i >= 0; i-- {
		lo, hi := int(rowPtr[i]), int(rowPtr[i+1])
		dst[i] = subRowDesc(dst[i], col[lo+1:hi], val[lo+1:hi], dst) / val[lo]
	}
}

// sweepLowerPivot is forward substitution with L̂ = D + L_A in place, the
// pivots read from the upper factor's row-leading entries:
// dst[i] = (dst[i] − Σ L̂[i,j]·dst[j]) / d_i.
func sweepLowerPivot[C uint16 | uint32](rowPtr []int32, col []C, val []float64, uRowPtr []int32, uVal, dst []float64) {
	for i := range dst {
		lo, hi := int(rowPtr[i]), int(rowPtr[i+1])
		dst[i] = subRow(dst[i], col[lo:hi], val[lo:hi], dst) / uVal[uRowPtr[i]]
	}
}

// sweepUpperScaled solves Û·x = D·y in place:
// dst[i] −= (Σ Û[i,j]·dst[j]) / d_i.
func sweepUpperScaled[C uint16 | uint32](rowPtr []int32, col []C, val, dst []float64) {
	for i := len(dst) - 1; i >= 0; i-- {
		lo, hi := int(rowPtr[i]), int(rowPtr[i+1])
		cols := col[lo+1 : hi]
		vals := val[lo+1 : hi]
		var s float64
		for p := len(cols) - 1; p >= 0; p-- {
			s += float64(vals[p] * dst[cols[p]])
		}
		dst[i] -= s / val[lo]
	}
}
