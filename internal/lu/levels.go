package lu

import (
	"math"

	"bepi/internal/par"
	"bepi/internal/sparse"
)

// Level-scheduled triangular solves. The forward sweep L·y = b processes
// row i after every row j < i in i's pattern; the backward sweep U·x = y
// after every j > i. Assigning each row the level
//
//	level[i] = 1 + max(level[j] : j in deps(i))   (0 with no deps)
//
// makes all rows of one level mutually independent: they can run in any
// order, and in parallel, while levels execute in sequence. Each row's own
// accumulation loop is the unchanged serial loop, so the leveled sweep is
// bit-identical to the serial sweep at any worker count.
//
// The factors are stored physically in level order (a triFactor per
// sweep): row k of the storage is original row order[k], and a level is a
// contiguous row range [bounds[l], bounds[l+1]). Both the serial sweep
// (k = 0..n-1, which respects dependencies by construction) and every
// parallel chunk therefore stream rowPtr/col/val contiguously — the layout
// is what makes the memory-bound sweep scale, not just the goroutines.
//
// Block-diagonal LU needs no schedule: every block is level 0 by
// construction (no cross-block entries), which is exactly the partition
// BlockLU.SolvePool already executes on the pool.

// iluLevelMinNNZ is the per-level stored-entry count below which a level's
// rows run inline on the sweeping goroutine: under it, chunk handoff costs
// more than the rows. Narrow levels are the serial tail of skewed
// dependency DAGs.
const iluLevelMinNNZ = 1 << 13

// iluParallelMinNNZ is the factor size below which Apply stays serial even
// with a pool attached, mirroring sparse.ParallelMinNNZ.
const iluParallelMinNNZ = sparse.ParallelMinNNZ

// triFactor is one triangular factor in level-sorted row-major storage.
// Storage row k holds original row order[k]; bounds delimits levels in
// k-space. For the upper factor each storage row leads with its diagonal
// entry (columns are ascending and the diagonal is the smallest column of
// the upper part). Exactly one of the (rowPtr, col) / (rowPtr32, col32)
// index pairs is non-nil; Compact switches to the narrow pair.
type triFactor struct {
	order  []int32
	bounds []int32
	val    []float64

	rowPtr []int
	col    []int

	rowPtr32 []int32
	col32    []uint32
}

// levels returns the number of dependency levels.
func (t *triFactor) levels() int {
	if len(t.bounds) == 0 {
		return 0
	}
	return len(t.bounds) - 1
}

func (t *triFactor) nnz() int { return len(t.val) }

// rowSpan returns storage row k's half-open entry range.
func (t *triFactor) rowSpan(k int) (int, int) {
	if t.col32 != nil {
		return int(t.rowPtr32[k]), int(t.rowPtr32[k+1])
	}
	return t.rowPtr[k], t.rowPtr[k+1]
}

func (t *triFactor) colAt(p int) int {
	if t.col32 != nil {
		return int(t.col32[p])
	}
	return t.col[p]
}

// compact narrows the index arrays to int32/uint32, releasing the wide
// ones. No-op when already narrow or out of range.
func (t *triFactor) compact(n int) {
	if t.col32 != nil || len(t.val) > math.MaxInt32 || int64(n) >= maxUint32 {
		return
	}
	t.rowPtr32 = make([]int32, len(t.rowPtr))
	for i, p := range t.rowPtr {
		t.rowPtr32[i] = int32(p)
	}
	t.col32 = make([]uint32, len(t.col))
	for i, j := range t.col {
		t.col32[i] = uint32(j)
	}
	t.rowPtr, t.col = nil, nil
}

const maxUint32 = int64(1) << 32

// memoryBytes is the factor's retained footprint at its current width.
func (t *triFactor) memoryBytes() int64 {
	b := int64(len(t.val))*8 + int64(len(t.order)+len(t.bounds))*4
	if t.col32 != nil {
		return b + int64(len(t.col32))*4 + int64(len(t.rowPtr32))*4
	}
	return b + int64(len(t.col))*8 + int64(len(t.rowPtr))*8
}

// buildSchedule counting-sorts rows by the given per-row levels. Rows stay
// in ascending index order within each level (the counting sort is stable),
// keeping the layout deterministic in the matrix pattern alone.
func buildSchedule(level []int32, maxLevel int32) (order, bounds []int32) {
	n := len(level)
	bounds = make([]int32, maxLevel+2)
	for _, l := range level {
		bounds[l+1]++
	}
	for l := int32(1); l <= maxLevel+1; l++ {
		bounds[l] += bounds[l-1]
	}
	order = make([]int32, n)
	next := make([]int32, maxLevel+1)
	copy(next, bounds[:maxLevel+1])
	for i := 0; i < n; i++ {
		l := level[i]
		order[next[l]] = int32(i)
		next[l]++
	}
	return order, bounds
}

// buildTriFactors splits the packed in-place factorization (pattern of A,
// L's strict lower part below the diagonal, U from the diagonal up) into
// the two level-ordered triFactors. Columns are sorted within rows, so
// row i's strict-lower entries are exactly [rowPtr[i], diagPos[i]) and its
// upper part [diagPos[i], rowPtr[i+1]).
func buildTriFactors(n int, rowPtr, col []int, val []float64, diagPos []int) (l, u triFactor) {
	// Forward levels over the strict lower pattern.
	level := make([]int32, n)
	var maxL int32
	for i := 0; i < n; i++ {
		var lv int32
		for p := rowPtr[i]; p < diagPos[i]; p++ {
			if x := level[col[p]] + 1; x > lv {
				lv = x
			}
		}
		level[i] = lv
		if lv > maxL {
			maxL = lv
		}
	}
	l.order, l.bounds = buildSchedule(level, maxL)

	// Backward levels over the strict upper pattern.
	for i := range level {
		level[i] = 0
	}
	maxL = 0
	for i := n - 1; i >= 0; i-- {
		var lv int32
		for p := diagPos[i] + 1; p < rowPtr[i+1]; p++ {
			if x := level[col[p]] + 1; x > lv {
				lv = x
			}
		}
		level[i] = lv
		if lv > maxL {
			maxL = lv
		}
	}
	u.order, u.bounds = buildSchedule(level, maxL)

	// Gather the entries in level order into exactly-sized arrays.
	var nnzL int
	for i := 0; i < n; i++ {
		nnzL += diagPos[i] - rowPtr[i]
	}
	gather := func(t *triFactor, nnz int, span func(i int) (lo, hi int)) {
		t.rowPtr = make([]int, n+1)
		t.col = make([]int, nnz)
		t.val = make([]float64, nnz)
		out := 0
		for k, i := range t.order {
			lo, hi := span(int(i))
			copy(t.col[out:], col[lo:hi])
			copy(t.val[out:], val[lo:hi])
			out += hi - lo
			t.rowPtr[k+1] = out
		}
	}
	gather(&l, nnzL, func(i int) (int, int) { return rowPtr[i], diagPos[i] })
	gather(&u, len(val)-nnzL, func(i int) (int, int) { return diagPos[i], rowPtr[i+1] })
	return l, u
}

// The sweep kernels are generic over the index width so the wide (int) and
// compact (int32/uint32, after ILU.Compact) layouts share one loop body.
// Storage rows [lo, hi) must not depend on one another (one level, or a
// serial full sweep where the level order itself guarantees it).

// sweepLower applies unit-lower forward substitution to storage rows
// [lo, hi): dst[order[k]] -= Σ L[k,p]·dst[col[p]]. Rows are sliced so the
// inner loop ranges over the row (bounds-check free), like the SpMV
// kernels.
func sweepLower[P int | int32, C int | uint32](order []int32, rowPtr []P, col []C, val, dst []float64, lo, hi int) {
	for k := lo; k < hi; k++ {
		rlo, rhi := int(rowPtr[k]), int(rowPtr[k+1])
		cols := col[rlo:rhi]
		vals := val[rlo:rhi]
		s := dst[order[k]]
		for p, j := range cols {
			s -= vals[p] * dst[j]
		}
		dst[order[k]] = s
	}
}

// sweepUpper applies upper back substitution to storage rows [lo, hi); each
// storage row leads with its diagonal entry.
func sweepUpper[P int | int32, C int | uint32](order []int32, rowPtr []P, col []C, val, dst []float64, lo, hi int) {
	for k := lo; k < hi; k++ {
		rlo, rhi := int(rowPtr[k]), int(rowPtr[k+1])
		cols := col[rlo+1 : rhi]
		vals := val[rlo+1 : rhi]
		s := dst[order[k]]
		for p, j := range cols {
			s -= vals[p] * dst[j]
		}
		dst[order[k]] = s / val[rlo]
	}
}

// runLevels walks the factor level by level, running each level's rows
// through sweep(lo, hi) in storage-row space. Levels of at least
// iluLevelMinNNZ entries partition across the pool with nnz-balanced
// chunks; consecutive narrower levels merge into a single serial sweep call
// (legal because storage order within the run is a valid dependency order),
// so a factor with no wide levels degenerates to exactly the serial sweep.
func (t *triFactor) runLevels(pool *par.Pool, sweep func(lo, hi int)) {
	workers := pool.Workers()
	n := len(t.order)
	runStart := 0 // start of the pending serial run of narrow levels
	for l := 0; l+1 < len(t.bounds); l++ {
		lo, hi := int(t.bounds[l]), int(t.bounds[l+1])
		var levelNNZ int
		if t.col32 != nil {
			levelNNZ = int(t.rowPtr32[hi] - t.rowPtr32[lo])
		} else {
			levelNNZ = t.rowPtr[hi] - t.rowPtr[lo]
		}
		if workers <= 1 || levelNNZ < iluLevelMinNNZ {
			continue
		}
		if lo > runStart {
			sweep(runStart, lo)
		}
		var chunks []int
		if t.col32 != nil {
			chunks = par.BoundsByPrefixOf(t.rowPtr32[lo:hi+1], workers)
		} else {
			chunks = par.BoundsByPrefixOf(t.rowPtr[lo:hi+1], workers)
		}
		pool.ForBounds(chunks, func(_, clo, chi int) { sweep(lo+clo, lo+chi) })
		runStart = hi
	}
	if n > runStart {
		sweep(runStart, n)
	}
}
