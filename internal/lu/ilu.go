package lu

import (
	"fmt"
	"sort"

	"bepi/internal/par"
	"bepi/internal/sparse"
)

// ILU holds an ILU(0) incomplete factorization A ≈ L·U where L is unit
// lower triangular and U upper triangular, both restricted to the sparsity
// pattern of A, so the stored entry count equals the input's — the property
// Theorem 3 of the paper relies on. The factors are kept as two
// level-ordered triangular structures (see levels.go): dependency levels
// are computed once here at factorization and the rows stored physically in
// level order, which makes the triangular sweeps both stream memory
// contiguously and parallelize level by level.
//
// The factors are immutable after FactorILU0. Two optional post-build steps
// tune Apply for the query path: Compact narrows the index arrays to
// int32/uint32 (halving index bandwidth), and SetPool attaches a parallel
// pool so wide levels execute across workers — bit-identically to the
// serial sweeps, since rows within a level are independent and each row's
// accumulation loop is unchanged.
type ILU struct {
	n    int
	l, u triFactor

	// pool, when set, runs wide levels of the sweeps in parallel for
	// systems of at least iluParallelMinNNZ stored entries.
	pool *par.Pool
}

// FactorILU0 computes the ILU(0) factorization of a square CSR matrix. The
// matrix must have a nonzero diagonal. A small pivot is replaced by a signed
// epsilon to keep the preconditioner applicable (standard ILU practice); the
// factorization is approximate anyway. The input is only read: elimination
// runs in place on one working copy of its values, over its own pattern.
func FactorILU0(a *sparse.CSR) (*ILU, error) {
	n := a.Rows()
	if n != a.Cols() {
		return nil, fmt.Errorf("lu: ILU0 requires a square matrix, got %v", a)
	}
	rowPtr, col := a.RowPtr(), a.ColIdx()
	val := make([]float64, a.NNZ())
	copy(val, a.Values())

	diagPos := make([]int, n)
	for i := 0; i < n; i++ {
		row := col[rowPtr[i]:rowPtr[i+1]]
		p := sort.SearchInts(row, i)
		if p == len(row) || row[p] != i {
			return nil, fmt.Errorf("lu: ILU0 missing diagonal at row %d", i)
		}
		diagPos[i] = rowPtr[i] + p
	}

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
					val[t] -= lik * val[q]
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
	// Splitting into level-ordered factors costs one O(nnz) pass against
	// the O(nnz·row) factorization above; the working copy is released here.
	f.l, f.u = buildTriFactors(n, rowPtr, col, val, diagPos)
	return f, nil
}

// N returns the dimension.
func (f *ILU) N() int { return f.n }

// SetPool attaches a parallel pool and returns f. With a pool of more than
// one worker, Apply executes each dependency level's rows across the pool
// (for systems of at least iluParallelMinNNZ entries); results remain
// bit-identical to serial execution. A nil pool restores serial sweeps.
func (f *ILU) SetPool(p *par.Pool) *ILU {
	f.pool = p
	return f
}

// Pool returns the attached pool (nil means serial).
func (f *ILU) Pool() *par.Pool { return f.pool }

// NNZ returns the number of stored factor entries (equal to the factored
// matrix's entry count).
func (f *ILU) NNZ() int { return f.l.nnz() + f.u.nnz() }

// Levels reports the number of dependency levels of the forward and
// backward sweeps — the critical-path lengths of the two triangular solves.
func (f *ILU) Levels() (forward, backward int) {
	return f.l.levels(), f.u.levels()
}

// Compact narrows both factors' index arrays to int32 row pointers and
// uint32 columns, releasing the wide ones — the same ~2× index-bandwidth
// cut CSR32 gives the SpMV kernels. No-op if already compact or too large
// to narrow. Values are untouched, so Apply stays bit-identical.
func (f *ILU) Compact() *ILU {
	f.l.compact(f.n)
	f.u.compact(f.n)
	return f
}

// Compacted reports whether the index arrays have been narrowed.
func (f *ILU) Compacted() bool { return f.l.col32 != nil && f.u.col32 != nil }

// Apply computes dst = U⁻¹ L⁻¹ src, the preconditioner application
// M⁻¹ = (L̃ Ũ)⁻¹ used by preconditioned GMRES. dst and src may alias. With a
// pool attached (SetPool) the sweeps run level-scheduled in parallel;
// either way the result is bit-identical to the serial sweeps.
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
	if f.pool.Workers() > 1 && f.NNZ() >= iluParallelMinNNZ {
		f.l.runLevels(f.pool, func(lo, hi int) { f.sweepL(dst, lo, hi) })
		f.u.runLevels(f.pool, func(lo, hi int) { f.sweepU(dst, lo, hi) })
		return
	}
	// Serial: a full walk in storage order is a valid dependency order by
	// construction, and streams the factors contiguously.
	f.sweepL(dst, 0, f.n)
	f.sweepU(dst, 0, f.n)
}

func (f *ILU) sweepL(dst []float64, lo, hi int) {
	if f.l.col32 != nil {
		sweepLower(f.l.order, f.l.rowPtr32, f.l.col32, f.l.val, dst, lo, hi)
	} else {
		sweepLower(f.l.order, f.l.rowPtr, f.l.col, f.l.val, dst, lo, hi)
	}
}

func (f *ILU) sweepU(dst []float64, lo, hi int) {
	if f.u.col32 != nil {
		sweepUpper(f.u.order, f.u.rowPtr32, f.u.col32, f.u.val, dst, lo, hi)
	} else {
		sweepUpper(f.u.order, f.u.rowPtr, f.u.col, f.u.val, dst, lo, hi)
	}
}

// Product returns the explicit product L·U as a CSR matrix; for tests that
// check the on-pattern approximation property of ILU(0).
func (f *ILU) Product() *sparse.CSR {
	l, u := f.Split()
	return l.Mul(u)
}

// Split returns the unit-lower factor L (with explicit unit diagonal) and
// the upper factor U as separate CSR matrices.
func (f *ILU) Split() (l, u *sparse.CSR) {
	lc := sparse.NewCOO(f.n, f.n)
	uc := sparse.NewCOO(f.n, f.n)
	for k := 0; k < f.n; k++ {
		i := int(f.l.order[k])
		lc.Add(i, i, 1)
		start, end := f.l.rowSpan(k)
		for p := start; p < end; p++ {
			lc.Add(i, f.l.colAt(p), f.l.val[p])
		}
	}
	for k := 0; k < f.n; k++ {
		i := int(f.u.order[k])
		start, end := f.u.rowSpan(k)
		for p := start; p < end; p++ {
			uc.Add(i, f.u.colAt(p), f.u.val[p])
		}
	}
	return lc.ToCSR(), uc.ToCSR()
}

// MemoryBytes reports the storage footprint of everything the factorization
// retains: both factors' values, index arrays at their current width (wide
// or compacted), and the level order/boundary arrays.
func (f *ILU) MemoryBytes() int64 {
	return f.l.memoryBytes() + f.u.memoryBytes()
}
