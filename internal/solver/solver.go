// Package solver implements the iterative linear solvers BePI builds on:
// power iteration for the RWR fixed point, and full, never-restarted GMRES
// (Saad & Schultz) for the Schur-complement system and the full-system
// baseline. GMRES solves the one operator it is handed, on one Workspace
// that holds its vectors and its Krylov bookkeeping: a preconditioned
// system (Appendix B of the paper) is an operator the caller builds, as the
// engine's split-preconditioned Schur operator is. As in package vec, a
// product that meets a sum is rounded by an explicit float64(…)
// conversion, so no GOARCH fuses it into a multiply-add.
package solver

import (
	"context"
	"errors"
	"fmt"
	"math"

	"bepi/internal/vec"
)

// Operator is anything that can multiply a vector: dst = A·x.
// *sparse.CSR satisfies it.
type Operator interface {
	MulVec(dst, x []float64)
}

// StopReason records why an iterative solve returned.
type StopReason int

const (
	// StopNone is the zero value: the solve failed before any stopping rule
	// applied (breakdown, iteration limit on methods that do not report it,
	// context cancellation).
	StopNone StopReason = iota
	// StopTolerance means the residual met Tol — the ordinary outcome.
	StopTolerance
	// StopBreakdown means the Krylov recurrence hit an exact-solution
	// ("lucky") breakdown: the subspace closed and the iterate is exact to
	// working precision even though the measured residual may sit above Tol.
	StopBreakdown
	// StopEarly means GMRESOptions.Probe asked for the halt: the caller's own
	// convergence criterion was met before the residual reached Tol.
	StopEarly
	// StopMaxIter means the iteration limit was exhausted; the solve
	// returned ErrNotConverged.
	StopMaxIter
)

// String names the stop reason for stats reporting.
func (r StopReason) String() string {
	switch r {
	case StopTolerance:
		return "tolerance"
	case StopBreakdown:
		return "breakdown"
	case StopEarly:
		return "early"
	case StopMaxIter:
		return "maxiter"
	default:
		return "none"
	}
}

// Stats reports how an iterative solve went.
type Stats struct {
	Iterations int     // matrix-vector products consumed
	Residual   float64 // final relative residual
	Converged  bool
	// StopReason says which rule ended the solve; in particular StopEarly
	// distinguishes a Probe halt (Converged false, nil error) from a
	// genuine tolerance stop.
	StopReason StopReason
}

// ErrNotConverged is wrapped by solvers that hit their iteration limit.
var ErrNotConverged = errors.New("solver: iteration limit reached before convergence")

// GMRESOptions configures a GMRES solve.
type GMRESOptions struct {
	// Tol is the relative-residual stopping tolerance (default 1e-9, the
	// paper's ε).
	Tol float64
	// MaxIter bounds the number of Arnoldi steps (default 1000).
	MaxIter int
	// Probe, if non-nil, is called after every Arnoldi step with the
	// iteration count, the current relative residual and a thunk that
	// assembles the current iterate on demand. Not calling the thunk costs
	// nothing, so telemetry pays a couple of loads per step; calling it
	// costs a triangular solve and a basis combination, so a caller that
	// inspects the iterate only on selected steps (the bounded top-k
	// search) pays only for those. The thunk's slice is valid until the
	// next step and must not be mutated. A probe that combines vectors of
	// its own reads the triangular solve's result from
	// Workspace.Coefficients instead.
	//
	// Returning true halts the solve at the current iterate with a nil
	// error, Converged false and Stats.StopReason = StopEarly: the caller's
	// own convergence criterion behind exact top-k early termination.
	// Meeting Tol on the same step wins, and the solve reports an ordinary
	// converged stop.
	Probe func(iter int, residual float64, iterate func() []float64) (stop bool)
	// Ctx, if non-nil, is checked once per iteration; when it is done the
	// solve aborts with an error wrapping ctx.Err(). This is how per-query
	// deadlines reach the innermost loop of the serving path.
	Ctx context.Context
	// Work is the workspace the solve runs on and reuses; nil runs it on a
	// fresh one. The returned solution points into the workspace and is
	// only valid until the next solve that uses it.
	Work *Workspace
}

// ctxErr reports the options' context error, or nil without a context.
func (o GMRESOptions) ctxErr() error {
	if o.Ctx == nil {
		return nil
	}
	return o.Ctx.Err()
}

func (o GMRESOptions) withDefaults() GMRESOptions {
	if o.Tol <= 0 {
		o.Tol = 1e-9
	}
	if o.MaxIter <= 0 {
		o.MaxIter = 1000
	}
	return o
}

// GMRES solves A·x = b by full (never restarted) GMRES from x = 0 on the
// options' workspace (a fresh one when Work is nil), returning the solution
// and solve statistics. The residual reported and tested against Tol is the
// relative residual ‖A·x − b‖₂ / ‖b‖₂, the stopping rule of Algorithm 5 in
// the paper once A is the preconditioned operator.
func GMRES(a Operator, b []float64, opts GMRESOptions) ([]float64, Stats, error) {
	opts = opts.withDefaults()
	w := opts.Work
	if w == nil {
		w = new(Workspace)
	}
	w.reset(len(b))
	if len(b) == 0 {
		return w.takeZero(), Stats{Converged: true, StopReason: StopTolerance}, nil
	}

	// The residual of x = 0 is b: a copy of it, and no operator product,
	// starts the Arnoldi basis.
	z := w.take()
	copy(z, b)
	beta := vec.Norm2(z)
	if beta == 0 {
		return w.takeZero(), Stats{Converged: true, StopReason: StopTolerance}, nil
	}
	vec.Scale(1/beta, z)
	w.v = append(w.v, z)
	w.g = append(w.g, beta)
	if w.iterate == nil {
		w.iterate = w.probeIterate
	}
	var stats Stats
	for j := 0; j < opts.MaxIter; j++ {
		if err := opts.ctxErr(); err != nil {
			return w.assemble(w.take()), stats, fmt.Errorf("solver: aborted after %d iterations: %w", j, err)
		}
		u := w.take()
		a.MulVec(u, w.v[j])
		// Modified Gram-Schmidt into Hessenberg column j, which the
		// workspace keeps from solve to solve: every entry is written here.
		if j == len(w.h) {
			w.h = append(w.h, make([]float64, j+2))
		}
		hj := w.h[j]
		for i := 0; i <= j; i++ {
			hj[i] = vec.Dot(u, w.v[i])
			vec.AXPY(-hj[i], w.v[i], u)
		}
		hj[j+1] = vec.Norm2(u)
		breakdown := hj[j+1] < 1e-300
		if !breakdown {
			vec.Scale(1/hj[j+1], u)
			w.v = append(w.v, u)
		}
		// Apply accumulated rotations to the new column.
		cs, sn := w.cs, w.sn
		for i := 0; i < j; i++ {
			hj[i], hj[i+1] = float64(cs[i]*hj[i])+float64(sn[i]*hj[i+1]), float64(-sn[i]*hj[i])+float64(cs[i]*hj[i+1])
		}
		// New rotation to annihilate hj[j+1].
		c, s := givens(hj[j], hj[j+1])
		w.cs, w.sn = append(cs, c), append(sn, s)
		hj[j] = float64(c*hj[j]) + float64(s*hj[j+1])
		hj[j+1] = 0
		g := append(w.g, -s*w.g[j])
		g[j] = c * g[j]
		w.g = g
		stats.Iterations = j + 1
		stats.Residual = math.Abs(g[j+1]) / beta
		stop := opts.Probe != nil && opts.Probe(stats.Iterations, stats.Residual, w.iterate)
		if stats.Residual <= opts.Tol || breakdown {
			stats.Converged = true
			stats.StopReason = StopTolerance
			if stats.Residual > opts.Tol {
				stats.StopReason = StopBreakdown
			}
			return w.assemble(w.take()), stats, nil
		}
		if stop {
			stats.StopReason = StopEarly
			return w.assemble(w.take()), stats, nil
		}
	}
	stats.StopReason = StopMaxIter
	return w.assemble(w.take()), stats, fmt.Errorf("after %d iterations (residual %.3g): %w",
		stats.Iterations, stats.Residual, ErrNotConverged)
}

// givens returns the rotation (c, s) with c·a + s·b = r, −s·a + c·b = 0.
func givens(a, b float64) (c, s float64) {
	if b == 0 {
		return 1, 0
	}
	if math.Abs(b) > math.Abs(a) {
		t := a / b
		s = 1 / math.Sqrt(1+float64(t*t))
		return s * t, s
	}
	t := b / a
	c = 1 / math.Sqrt(1+float64(t*t))
	return c, c * t
}

// PowerOptions configures a power-iteration solve.
type PowerOptions struct {
	Tol      float64 // ‖r⁽ⁱ⁾ − r⁽ⁱ⁻¹⁾‖₂ stopping threshold (default 1e-9)
	MaxIter  int     // default 1000
	Callback func(iter int, r []float64)
}

// PowerIteration computes the RWR vector by iterating
// r ← (1−c)·Ãᵀ·r + c·q until successive iterates differ by at most Tol.
// at must multiply by Ãᵀ (use sparse.CSR.MulVec on the transposed matrix).
// The returned vector is a fresh slice.
func PowerIteration(at Operator, q []float64, c float64, opts PowerOptions) ([]float64, Stats, error) {
	if opts.Tol <= 0 {
		opts.Tol = 1e-9
	}
	if opts.MaxIter <= 0 {
		opts.MaxIter = 1000
	}
	n := len(q)
	r := make([]float64, n)
	copy(r, q) // start from q (any start converges; this matches c=1·q)
	next := make([]float64, n)
	var stats Stats
	for iter := 1; iter <= opts.MaxIter; iter++ {
		at.MulVec(next, r)
		for i := range next {
			next[i] = float64((1-c)*next[i]) + float64(c*q[i])
		}
		stats.Iterations = iter
		diff := vec.Dist2(next, r)
		r, next = next, r
		if opts.Callback != nil {
			opts.Callback(iter, r)
		}
		stats.Residual = diff
		if diff <= opts.Tol {
			stats.Converged = true
			return r, stats, nil
		}
	}
	return r, stats, fmt.Errorf("after %d iterations (diff %.3g): %w",
		stats.Iterations, stats.Residual, ErrNotConverged)
}
