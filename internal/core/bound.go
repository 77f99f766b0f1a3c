package core

import (
	"fmt"
	"math"
	"math/rand"

	"bepi/internal/solver"
	"bepi/internal/sparse"
	"bepi/internal/vec"
)

// AccuracyBound estimates the Theorem-4 error bound for a query on the
// given seed:
//
//	‖r* − r‖₂ ≤ ( √((α‖H31‖₂ + ‖H32‖₂)² + α² + 1) · ‖q̃2‖₂ / σmin(S) ) · ε
//
// with α = ‖H12‖₂ / σmin(H11). Matrix 2-norms are estimated by power
// iteration on AᵀA and the smallest singular values by inverse power
// iteration (using the block LU of H11 and GMRES solves on S), so the
// returned value is a sharp numerical estimate rather than a loose analytic
// envelope. Multiplying by the solver tolerance ε gives the guaranteed
// error level; inverting the formula calibrates ε for a target accuracy.
func (e *Engine) AccuracyBound(seed int) (float64, error) {
	if seed < 0 || seed >= e.n {
		return 0, fmt.Errorf("core: seed %d out of range [0,%d)", seed, e.n)
	}
	if e.ord.n2 == 0 {
		return 0, nil
	}
	factor, err := e.boundFactor()
	if err != nil {
		return 0, err
	}
	return factor * e.normQt2(seed), nil
}

// normQt2 computes ‖q̃2‖₂ for a single-seed query — the seed-dependent part
// of the Theorem-4 bound, one block back-substitution and one H21 traversal.
func (e *Engine) normQt2(seed int) float64 {
	ws := e.acquireWorkspace()
	defer e.releaseWorkspace(ws)
	q := ws.unitQuery(seed)
	defer func() { q[seed] = 0 }()
	e.permute(ws, q)
	e.forward(ws)
	return vec.Norm2(ws.qt2)
}

// boundFactor returns the cached seed-independent part of the Theorem-4
// bound, √((α‖H31‖₂ + ‖H32‖₂)² + α² + 1) / σmin(S) with
// α = ‖H12‖₂/σmin(H11): multiply it by ‖q̃2‖₂ to get the per-seed κ such
// that ‖r* − r‖₂ ≤ κ·ε. The estimates are computed once per engine (they
// run dozens of GMRES solves on S) and memoized, failure included.
func (e *Engine) boundFactor() (float64, error) {
	e.bndOnce.Do(func() {
		e.bndFactor, e.bndErr = e.computeBoundFactor()
	})
	return e.bndFactor, e.bndErr
}

// CalibrateBound forces the one-time estimation of both engine-level
// accuracy factors: the Theorem-4 envelope behind AccuracyBound (norm and
// singular-value estimates — dozens of GMRES solves on S) and the
// empirical ℓ∞ error-to-residual ratio behind the bounded top-k
// certificate (a handful of instrumented reference solves). Afterwards
// every bound evaluation is cheap. The bounded top-k path calibrates
// lazily on its first query — services that care about first-query latency
// call this during warmup instead.
func (e *Engine) CalibrateBound() error {
	if e.ord.n2 == 0 {
		return nil
	}
	if _, err := e.boundFactor(); err != nil {
		return err
	}
	_, err := e.topkFactor()
	return err
}

// topkFactor returns the memoized calibrated ratio behind the bounded
// top-k certificate: the largest observed per-node (ℓ∞) score error per
// unit of the solver's reported residual times ‖q̃2‖, measured on
// instrumented reference solves against the engine-tolerance solution.
// Calibrating against the exact residual metric the solver hands every
// probe (relative, and preconditioned when the engine runs ILU) makes the
// per-iteration radius free at query time — no extra operator apply — and
// folds the preconditioner's conditioning into the measured ratio. The
// reference is exactly the vector Engine.TopK ranks, so a radius from this
// factor bounds the quantity the set-equality contract actually depends
// on. The Theorem-4 ℓ2 envelope (boundFactor) stays available for a-priori
// analysis, but as a per-node radius it is orders too conservative to
// ever fire at scale; the calibrated ratio is sharp, and topkBoundSafety
// inflates it at every check to absorb sampling error.
func (e *Engine) topkFactor() (float64, error) {
	e.tkOnce.Do(func() {
		e.tkFactor, e.tkErr = e.computeTopKFactor()
	})
	return e.tkFactor, e.tkErr
}

// computeTopKFactor runs the instrumented reference solves behind
// topkFactor. Only topkFactor (under its Once) calls it. A zero result
// (trivial graph: every sampled solve converges in under two iterations)
// disables the bounded path — there is nothing to save on such engines.
func (e *Engine) computeTopKFactor() (float64, error) {
	const (
		calSamples  = 4     // nontrivial reference solves to calibrate on
		calMaxSeeds = 16    // candidate seeds tried to find them
		calMaxIters = 48    // iterates captured per solve
		calFloor    = 1e-13 // errors at rounding level carry no signal
		calSeedRNG  = 424242 + 7
	)
	if e.ord.n2 == 0 {
		return 0, nil
	}
	ws := e.NewWorkspace()
	ref := make([]float64, e.n)
	cur := make([]float64, e.n)
	rng := rand.New(rand.NewSource(calSeedRNG))
	factor := 0.0
	samples := 0
	type calIter struct {
		residual float64
		x        []float64
	}
	for try := 0; try < calMaxSeeds && samples < calSamples; try++ {
		seed := rng.Intn(e.n)
		q := ws.unitQuery(seed)
		e.permute(ws, q)
		q[seed] = 0
		e.forward(ws)
		var iterates []calIter
		probe := func(iter int, residual float64, iterate func() []float64) {
			if len(iterates) < calMaxIters {
				iterates = append(iterates, calIter{residual, append([]float64(nil), iterate()...)})
			}
		}
		r2, st, err := e.runSchurSolve(ws, ws.qt2, solver.GMRESOptions{Probe: probe})
		if err != nil {
			return 0, fmt.Errorf("core: top-k calibration solve on seed %d: %w", seed, err)
		}
		if st.Iterations < 2 || len(iterates) == 0 {
			continue
		}
		samples++
		e.permutedScores(ws, r2, ref)
		qt2Norm := vec.Norm2(ws.qt2)
		for _, it := range iterates {
			rn := it.residual * qt2Norm
			if rn == 0 {
				continue
			}
			e.permutedScores(ws, it.x, cur)
			var errInf float64
			for j := range cur {
				if d := math.Abs(cur[j] - ref[j]); d > errInf {
					errInf = d
				}
			}
			if errInf <= calFloor {
				continue
			}
			if r := errInf / rn; r > factor {
				factor = r
			}
		}
	}
	return factor, nil
}

// computeBoundFactor runs the norm and singular-value estimates behind
// boundFactor. Only boundFactor (under its Once) calls it.
func (e *Engine) computeBoundFactor() (float64, error) {
	const (
		normIters = 30
		seedRNG   = 424242
	)
	n1, n2 := e.ord.n1, e.ord.n2
	if n2 == 0 {
		return 0, nil
	}

	normH12 := Norm2Est(e.h12, e.hw[n1:], normIters, seedRNG)
	normH31 := Norm2Est(e.h31, e.hw[:n1], normIters, seedRNG+1)
	normH32 := Norm2Est(e.h32, e.hw[n1:], normIters, seedRNG+2)

	sminH11, err := e.sminH11(normIters, seedRNG+3)
	if err != nil {
		return 0, err
	}
	sminS, err := e.sminSchur(normIters, seedRNG+4)
	if err != nil {
		return 0, err
	}

	alpha := 0.0
	if n1 > 0 {
		alpha = normH12 / sminH11
	}
	t := alpha*normH31 + normH32
	return math.Sqrt(t*t+alpha*alpha+1) / sminS, nil
}

// Norm2Est estimates ‖A‖₂ of A = P·diag(w), a stored H block, by power
// iteration on AᵀA.
func Norm2Est(a *sparse.Pattern, w []float64, iters int, seed int64) float64 {
	if a.NNZ() == 0 {
		return 0
	}
	rng := rand.New(rand.NewSource(seed))
	x := make([]float64, a.Cols())
	for i := range x {
		x[i] = rng.NormFloat64()
	}
	y, z := make([]float64, a.Rows()), make([]float64, a.Cols())
	var sigma float64
	for it := 0; it < iters; it++ {
		nx := vec.Norm2(x)
		if nx == 0 {
			return 0
		}
		vec.Scale(1/nx, x)
		a.MulVecScaled(y, z, w, x)
		sigma = vec.Norm2(y)
		a.MulVecTScaled(x, w, y)
	}
	return sigma
}

// sminH11 estimates σmin(H11) by inverse power iteration on (H11ᵀH11)⁻¹,
// using the precomputed block LU for the solves.
func (e *Engine) sminH11(iters int, seed int64) (float64, error) {
	n1 := e.ord.n1
	if n1 == 0 {
		return 1, nil
	}
	rng := rand.New(rand.NewSource(seed))
	x := make([]float64, n1)
	for i := range x {
		x[i] = rng.NormFloat64()
	}
	var smin float64
	for it := 0; it < iters; it++ {
		nx := vec.Norm2(x)
		if nx == 0 {
			return 0, fmt.Errorf("core: σmin(H11) iteration collapsed")
		}
		vec.Scale(1/nx, x)
		e.h11LU.SolveT(x) // y = H11⁻ᵀ x
		e.h11LU.Solve(x)  // z = H11⁻¹ y  →  (H11ᵀH11)⁻¹ x
		lambda := vec.Norm2(x)
		smin = 1 / math.Sqrt(lambda)
	}
	return smin, nil
}

// sminSchur estimates σmin(S) by inverse power iteration with GMRES solves
// on S and Sᵀ.
func (e *Engine) sminSchur(iters int, seed int64) (float64, error) {
	n2 := e.ord.n2
	if n2 == 0 {
		return 1, nil
	}
	s := e.Schur()
	st := s.Transpose()
	rng := rand.New(rand.NewSource(seed))
	x := make([]float64, n2)
	for i := range x {
		x[i] = rng.NormFloat64()
	}
	opts := solver.GMRESOptions{Tol: 1e-10, MaxIter: 500}
	var smin float64
	for it := 0; it < iters; it++ {
		nx := vec.Norm2(x)
		if nx == 0 {
			return 0, fmt.Errorf("core: σmin(S) iteration collapsed")
		}
		vec.Scale(1/nx, x)
		y, _, err := solver.GMRES(st, x, opts)
		if err != nil {
			return 0, fmt.Errorf("core: σmin(S) transpose solve: %w", err)
		}
		z, _, err := solver.GMRES(s, y, opts)
		if err != nil {
			return 0, fmt.Errorf("core: σmin(S) solve: %w", err)
		}
		copy(x, z)
		lambda := vec.Norm2(x)
		smin = 1 / math.Sqrt(lambda)
	}
	return smin, nil
}

// ToleranceForTarget returns the solver tolerance ε that guarantees
// ‖r* − r‖₂ ≤ target for queries on the given seed, by inverting the
// Theorem-4 bound.
func (e *Engine) ToleranceForTarget(seed int, target float64) (float64, error) {
	if target <= 0 {
		return 0, fmt.Errorf("core: target accuracy must be positive, got %v", target)
	}
	kappa, err := e.AccuracyBound(seed)
	if err != nil {
		return 0, err
	}
	if kappa == 0 {
		return target, nil
	}
	return target / kappa, nil
}
