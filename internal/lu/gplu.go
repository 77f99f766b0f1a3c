package lu

import (
	"errors"
	"fmt"
	"time"

	"bepi/internal/sparse"
)

// ErrBudgetExceeded is returned when a factorization grows past the caller's
// fill budget. The benchmark harness reports it as the paper's "o.o.m."
// outcome for preprocessing baselines on graphs they cannot handle.
var ErrBudgetExceeded = errors.New("lu: factor fill budget exceeded")

// SparseLU is a Gilbert–Peierls left-looking sparse LU factorization
// A = L·U with unit-lower L and upper U, both stored column-compressed.
// It is the factorization behind the LU-decomposition baseline (Fujiwara et
// al.): preprocessing factors H once, queries run two sparse triangular
// solves. No pivoting is performed (safe for diagonally dominant H).
type SparseLU struct {
	n          int
	lp, li     []int // L columns, strictly-lower entries
	lx         []float64
	up, ui     []int // U columns, strictly-upper entries (diag kept apart)
	ux         []float64
	diag       []float64
	fillBudget int
}

// ErrDeadlineExceeded is returned when a factorization runs past the
// caller's deadline; the harness reports it as the paper's "o.o.t.".
var ErrDeadlineExceeded = errors.New("lu: factor deadline exceeded")

// FactorSparse computes the sparse LU factorization of a square CSR matrix.
// maxFill, if positive, bounds the total number of stored factor entries;
// exceeding it aborts with ErrBudgetExceeded.
func FactorSparse(a *sparse.CSR, maxFill int) (*SparseLU, error) {
	return FactorSparseDeadline(a, maxFill, time.Time{})
}

// FactorSparseDeadline is FactorSparse with a wall-clock deadline checked
// periodically during the factorization (zero time = no deadline).
func FactorSparseDeadline(a *sparse.CSR, maxFill int, deadline time.Time) (*SparseLU, error) {
	n := a.Rows()
	if n != a.Cols() {
		return nil, fmt.Errorf("lu: FactorSparse requires a square matrix, got %v", a)
	}
	// Column access to A via the transpose (rows of Aᵀ are columns of A).
	at := a.Transpose()
	f := &SparseLU{
		n:          n,
		lp:         make([]int, 1, n+1),
		up:         make([]int, 1, n+1),
		diag:       make([]float64, n),
		fillBudget: maxFill,
	}
	x := make([]float64, n)   // dense numeric scratch
	visited := make([]int, n) // DFS stamp per column
	for i := range visited {
		visited[i] = -1
	}
	order := make([]int, 0, 64)  // topological order (push = postorder)
	stack := make([]int, 0, 64)  // explicit DFS stack: node
	stackP := make([]int, 0, 64) // per-node next-child cursor

	for j := 0; j < n; j++ {
		// Symbolic: reach of A[:,j]'s pattern through computed L columns.
		order = order[:0]
		s, e := at.RowRange(j)
		cols := at.ColIdx()[s:e]
		vals := at.Values()[s:e]
		for _, i := range cols {
			if visited[i] == j {
				continue
			}
			stack = append(stack[:0], i)
			stackP = append(stackP[:0], 0)
			visited[i] = j
			for len(stack) > 0 {
				top := len(stack) - 1
				k := stack[top]
				var deg int
				if k < j {
					deg = f.lp[k+1] - f.lp[k]
				}
				if stackP[top] < deg {
					child := f.li[f.lp[k]+stackP[top]]
					stackP[top]++
					if visited[child] != j {
						visited[child] = j
						stack = append(stack, child)
						stackP = append(stackP, 0)
					}
					continue
				}
				order = append(order, k)
				stack = stack[:top]
				stackP = stackP[:top]
			}
		}
		// Numeric: sparse lower-triangular solve L x = A[:,j] over the reach.
		for _, i := range order {
			x[i] = 0
		}
		for p, i := range cols {
			x[i] = vals[p]
		}
		for t := len(order) - 1; t >= 0; t-- {
			k := order[t]
			if k >= j {
				continue
			}
			xk := x[k]
			if xk == 0 {
				continue
			}
			for p := f.lp[k]; p < f.lp[k+1]; p++ {
				x[f.li[p]] -= f.lx[p] * xk
			}
		}
		// Gather U[:,j] (k < j), the diagonal, and L[:,j] (k > j).
		var ujj float64
		diagSeen := false
		for t := len(order) - 1; t >= 0; t-- {
			k := order[t]
			if k == j {
				ujj = x[k]
				diagSeen = true
			}
		}
		if !diagSeen || ujj == 0 {
			return nil, fmt.Errorf("lu: zero pivot at column %d", j)
		}
		for t := len(order) - 1; t >= 0; t-- {
			k := order[t]
			v := x[k]
			switch {
			case k < j:
				if v != 0 {
					f.ui = append(f.ui, k)
					f.ux = append(f.ux, v)
				}
			case k > j:
				if v != 0 {
					f.li = append(f.li, k)
					f.lx = append(f.lx, v/ujj)
				}
			}
		}
		f.diag[j] = ujj
		f.lp = append(f.lp, len(f.li))
		f.up = append(f.up, len(f.ui))
		if f.fillBudget > 0 && len(f.li)+len(f.ui) > f.fillBudget {
			return nil, fmt.Errorf("factoring column %d of %d: %w", j, n, ErrBudgetExceeded)
		}
		if !deadline.IsZero() && j%256 == 0 && time.Now().After(deadline) {
			return nil, fmt.Errorf("factoring column %d of %d: %w", j, n, ErrDeadlineExceeded)
		}
	}
	return f, nil
}

// Solve solves A x = b in place on b via column-oriented forward and
// backward substitution.
func (f *SparseLU) Solve(b []float64) {
	if len(b) != f.n {
		panic(fmt.Sprintf("lu: SparseLU.Solve length %d want %d", len(b), f.n))
	}
	// Forward: L y = b, unit diagonal.
	for j := 0; j < f.n; j++ {
		xj := b[j]
		if xj == 0 {
			continue
		}
		for p := f.lp[j]; p < f.lp[j+1]; p++ {
			b[f.li[p]] -= f.lx[p] * xj
		}
	}
	// Backward: U x = y.
	for j := f.n - 1; j >= 0; j-- {
		b[j] /= f.diag[j]
		xj := b[j]
		if xj == 0 {
			continue
		}
		for p := f.up[j]; p < f.up[j+1]; p++ {
			b[f.ui[p]] -= f.ux[p] * xj
		}
	}
}

// MemoryBytes reports the storage footprint of the factors.
func (f *SparseLU) MemoryBytes() int64 {
	entries := int64(len(f.li) + len(f.ui))
	return entries*16 + int64(len(f.lp)+len(f.up))*8 + int64(f.n)*8
}

// Factors returns L (with unit diagonal) and U as CSR matrices, for tests.
func (f *SparseLU) Factors() (l, u *sparse.CSR) {
	lc := sparse.NewCOO(f.n, f.n)
	uc := sparse.NewCOO(f.n, f.n)
	for j := 0; j < f.n; j++ {
		lc.Add(j, j, 1)
		uc.Add(j, j, f.diag[j])
		for p := f.lp[j]; p < f.lp[j+1]; p++ {
			lc.Add(f.li[p], j, f.lx[p])
		}
		for p := f.up[j]; p < f.up[j+1]; p++ {
			uc.Add(f.ui[p], j, f.ux[p])
		}
	}
	return lc.ToCSR(), uc.ToCSR()
}
