// Package solver implements the iterative linear solvers BePI builds on:
// power iteration for the RWR fixed point, and full, never-restarted GMRES
// (Saad & Schultz) with optional left preconditioning (Saad's preconditioned variant, Appendix B
// of the paper) for the Schur-complement system and the full-system
// baseline. As in package vec, a product that meets a sum is rounded by an
// explicit float64(…) conversion, so no GOARCH fuses it into a
// multiply-add.
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

// Preconditioner applies M⁻¹: dst = M⁻¹·src. dst and src may alias.
// *lu.ILU satisfies it.
type Preconditioner interface {
	Apply(dst, src []float64)
}

// identity is the trivial preconditioner.
type identity struct{}

// Apply copies src to dst (M = I).
func (identity) Apply(dst, src []float64) {
	if &dst[0] != &src[0] {
		copy(dst, src)
	}
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
	// Precond, if non-nil, left-preconditions the system: M⁻¹A x = M⁻¹b.
	Precond Preconditioner
	// Probe, if non-nil, is called after every Arnoldi step with the
	// iteration count, the current relative residual and a thunk that
	// assembles the current iterate on demand. Not calling the thunk costs
	// nothing, so telemetry pays a couple of loads per step; calling it
	// costs a triangular solve and a basis combination, so a caller that
	// inspects the iterate only on selected steps (the bounded top-k
	// search) pays only for those. The thunk's slice is valid until the
	// next step and must not be mutated.
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
	// Work, if non-nil, supplies the solve's vector buffers from a
	// reusable arena instead of fresh allocations. The returned solution
	// then points into Work and is only valid until the next solve that
	// uses it.
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
	if o.Precond == nil {
		o.Precond = identity{}
	}
	return o
}

// GMRES solves A·x = b by full (never restarted) GMRES from x = 0,
// returning the solution and solve statistics. The residual reported and
// tested against Tol is the (preconditioned) relative residual
// ‖M⁻¹(A·x − b)‖₂ / ‖M⁻¹b‖₂, matching the stopping rule of Algorithm 5 in
// the paper.
func GMRES(a Operator, b []float64, opts GMRESOptions) ([]float64, Stats, error) {
	opts = opts.withDefaults()
	n := len(b)
	ar := newArena(opts.Work, n)
	if n == 0 {
		return ar.takeZero(), Stats{Converged: true, StopReason: StopTolerance}, nil
	}

	// The residual of x = 0 is M⁻¹b: one preconditioner sweep and no
	// operator product start the Arnoldi basis.
	z := ar.take()
	opts.Precond.Apply(z, b)
	beta := vec.Norm2(z)
	if beta == 0 {
		return ar.takeZero(), Stats{Converged: true, StopReason: StopTolerance}, nil
	}

	// Arnoldi basis and Hessenberg factorization with Givens updates.
	m := opts.MaxIter
	v := make([][]float64, 1, m+1)
	vec.Scale(1/beta, z)
	v[0] = z
	h := make([][]float64, 0, m) // h[j] has length j+2
	cs := make([]float64, 0, m)  // Givens cosines
	sn := make([]float64, 0, m)  // Givens sines
	g := make([]float64, 1, m+1) // rotated rhs
	g[0] = beta
	var stats Stats
	// The probe's iterate is assembled into one vector, taken on the
	// thunk's first call and reused by every later one.
	var probed []float64
	iterate := func() []float64 {
		if probed == nil {
			probed = ar.take()
		}
		return assemble(probed, v, h, g, stats.Iterations)
	}

	scratch := ar.take()
	for j := 0; j < m; j++ {
		if err := opts.ctxErr(); err != nil {
			return assemble(ar.take(), v, h, g, j), stats, fmt.Errorf("solver: aborted after %d iterations: %w", j, err)
		}
		w := ar.take()
		a.MulVec(scratch, v[j])
		opts.Precond.Apply(w, scratch)
		// Modified Gram-Schmidt.
		hj := make([]float64, j+2)
		for i := 0; i <= j; i++ {
			hj[i] = vec.Dot(w, v[i])
			vec.AXPY(-hj[i], v[i], w)
		}
		hj[j+1] = vec.Norm2(w)
		breakdown := hj[j+1] < 1e-300
		if !breakdown {
			vec.Scale(1/hj[j+1], w)
			v = append(v, w)
		}
		// Apply accumulated rotations to the new column.
		for i := 0; i < j; i++ {
			hj[i], hj[i+1] = float64(cs[i]*hj[i])+float64(sn[i]*hj[i+1]), float64(-sn[i]*hj[i])+float64(cs[i]*hj[i+1])
		}
		// New rotation to annihilate hj[j+1].
		c, s := givens(hj[j], hj[j+1])
		cs, sn = append(cs, c), append(sn, s)
		hj[j] = float64(c*hj[j]) + float64(s*hj[j+1])
		hj[j+1] = 0
		h = append(h, hj)
		g = append(g, -s*g[j])
		g[j] = c * g[j]
		stats.Iterations = j + 1
		stats.Residual = math.Abs(g[j+1]) / beta
		stop := opts.Probe != nil && opts.Probe(stats.Iterations, stats.Residual, iterate)
		if stats.Residual <= opts.Tol || breakdown {
			stats.Converged = true
			stats.StopReason = StopTolerance
			if stats.Residual > opts.Tol {
				stats.StopReason = StopBreakdown
			}
			return assemble(ar.take(), v, h, g, stats.Iterations), stats, nil
		}
		if stop {
			stats.StopReason = StopEarly
			return assemble(ar.take(), v, h, g, stats.Iterations), stats, nil
		}
	}
	stats.StopReason = StopMaxIter
	return assemble(ar.take(), v, h, g, stats.Iterations), stats, fmt.Errorf("after %d iterations (residual %.3g): %w",
		stats.Iterations, stats.Residual, ErrNotConverged)
}

// assemble writes V·y into out and returns it, where R·y = g is the
// triangular least-squares system accumulated by the Givens rotations
// (first `steps` columns): the iterate, since GMRES starts from x = 0.
func assemble(out []float64, v [][]float64, h [][]float64, g []float64, steps int) []float64 {
	y := make([]float64, steps)
	for i := steps - 1; i >= 0; i-- {
		s := g[i]
		for k := i + 1; k < steps; k++ {
			s -= float64(h[k][i] * y[k])
		}
		// h[i][i] is the rotated diagonal.
		if h[i][i] == 0 {
			y[i] = 0
			continue
		}
		y[i] = s / h[i][i]
	}
	for i := range out {
		out[i] = 0
	}
	for k := 0; k < steps; k++ {
		vec.AXPY(y[k], v[k], out)
	}
	return out
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
