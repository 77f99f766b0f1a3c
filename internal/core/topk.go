package core

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"slices"
	"time"

	"bepi/internal/solver"
	"bepi/internal/vec"
)

// The bounded top-k search (after Fujiwara et al.'s K-dash, VLDB 2012,
// adapted to BePI's block-elimination solve) stops the iterative Schur
// solve as soon as the ranking is decided instead of running to the full
// residual tolerance. Each iteration it converts the solver's reported
// Schur residual into a score-error radius
//
//	δ = topkBoundSafety · factor · residual · ‖q̃2‖₂
//
// where factor is the engine's calibrated ℓ∞ error-to-residual ratio
// (topkFactor below): the worst per-node score error per unit of
// that same solver-reported residual metric, measured on instrumented
// reference solves against the engine-tolerance solution. Every node's current score is then within
// δ of its score in the vector Engine.TopK would rank: lower bound =
// score − δ, upper bound = score + δ. When the k-th candidate's lower
// bound clears the (k+1)-th's upper bound — i.e. the observed gap exceeds
// 2δ — no further iteration can change WHICH k nodes win, only their exact
// scores, so the solve halts and one ranking pass orders the candidates.
// (The Schur residual also gives a proven radius: every score's error is at
// most ‖q̃2 − S·x‖₁ / c, because H's columns are diagonally dominant with
// margin c. It first certifies about three iterations after the calibrated
// δ on the benchmark graphs, and it would add a pass over S to every check,
// which otherwise costs no product with S and no triangular sweep — the
// iterate is assembled from the solve's kept Krylov images — so the tests
// assert it and the solve stops on the calibration.) Ties and
// near-uniform score distributions never separate, in which case the solve
// simply runs to the engine tolerance and the result is bit-identical to
// Engine.TopK.

// topkBoundSafety inflates the calibrated radius. The factor behind it is
// an empirical maximum over sampled reference solves, not an analytic
// envelope; the margin absorbs sampling error across seeds, the drift of
// the solvers' recurrence residuals, and iterate-to-iterate variation so
// the gap test stays a trustworthy certificate. Larger values delay the
// stop, never break correctness — and the final ranking pass re-ranks the
// reconstructed vector either way.
const topkBoundSafety = 2.0

// topkMaxCheckStride bounds how many solver iterations may pass before the
// checker re-attempts a gap measurement whose last ranking was not yet
// usable (iterate support still spreading): each full check assembles the
// iterate from the kept images (one AXPY per iteration run), rebuilds r1
// and r3 from it (an H11 block solve and three H-block products, the back
// phase of a query) and ranks all n scores — about 0.8 ms on the scale-15
// benchmark graph, against about 1 ms per iteration — so they must stay
// rare.
const topkMaxCheckStride = 8

// topkLearnResid is the solver-residual level at which the checker runs
// its first full check to learn the k-th gap. Earlier iterates rank
// half-formed scores: the measured gap would be noise and the check — a
// reconstruction of r1 and r3 and a ranking pass — pure overhead. One full
// check learns the gap; afterwards the cheap per-iteration residual proxy
// decides when certification has become plausible and only then pays for
// another reconstruction.
const topkLearnResid = 1e-2

// topkMinHeadroom abandons certification attempts when the learned gap is
// so small that the certificate could only fire within this factor of the
// engine tolerance: at that residual the solve is one or two iterations
// from its natural stop, so a reconstruction-priced check would cost more
// than the iterations it could save (rank-100 gaps on power-law graphs
// live here). The solve then simply runs to tolerance — result unchanged.
const topkMinHeadroom = 1000

// TopKStats extends QueryStats with the bounded search's outcome.
type TopKStats struct {
	QueryStats
	// EarlyStopped reports that the solve halted on the k-th-gap
	// certificate before reaching the engine tolerance. When false the
	// scores are a full-tolerance solve — the search fell back (tiny gaps,
	// near-uniform scores, k covering all candidates, or an engine the
	// bound cannot be calibrated for) and the full vector is exact.
	EarlyStopped bool
	// BoundChecks counts gap checks performed.
	BoundChecks int
	// Bound is the certified per-node score-error radius at the last check.
	Bound float64
	// Gap is the k-th-to-(k+1)-th score gap at the last check.
	Gap float64
	// SavedIters estimates the solver iterations the early stop skipped,
	// extrapolating the observed geometric residual decay down to the
	// engine tolerance. Zero when the solve ran to tolerance.
	SavedIters int
}

// TopKBounded returns the exact top-k nodes for the seed (seed excluded,
// descending score, ties on lower node id — the same set and order
// semantics as Engine.TopK) while letting the Schur solve terminate as
// soon as the k-th gap is certified. The returned scores of early-stopped
// solves are within TopKStats.Bound of the true values; the SET of nodes
// is provably identical to the full solve's.
func (e *Engine) TopKBounded(seed, k int) ([]Ranked, TopKStats, error) {
	if seed < 0 || seed >= e.n {
		return nil, TopKStats{}, fmt.Errorf("core: seed %d out of range [0,%d)", seed, e.n)
	}
	_ = e.CalibrateBound() // before the workspace: see TopKBoundedWS
	ws := e.acquireWorkspace()
	defer e.releaseWorkspace(ws)
	q := ws.unitQuery(seed)
	defer func() { q[seed] = 0 }()
	top, _, stats, err := e.topKBoundedOn(context.Background(), q, seed, k, ws, false)
	return top, stats, err
}

// TopKBoundedWS is the bounded top-k search for an arbitrary starting
// distribution q, with a context like QueryVectorWS. exclude is the node
// left out of the ranking (negative: none). Besides the ranking it returns
// the full score vector in original ids — exact when !stats.EarlyStopped,
// otherwise within stats.Bound per node (callers must not treat
// early-stopped vectors as full-tolerance results). It solves on a
// workspace of the engine's free list, which a solve that panics drops
// instead of returning.
func (e *Engine) TopKBoundedWS(ctx context.Context, q []float64, exclude, k int) ([]Ranked, []float64, TopKStats, error) {
	// An engine nobody calibrated calibrates here, before the query takes
	// its workspace: the calibration borrows one from the free list and
	// returns it, and the query reuses it, so the engine keeps one
	// workspace where it would otherwise keep two. (topKBoundedOn handles
	// a calibration error.)
	_ = e.CalibrateBound()
	ws := e.acquireWorkspace()
	top, r, stats, err := e.topKBoundedOn(ctx, q, exclude, k, ws, true)
	e.releaseWorkspace(ws)
	return top, r, stats, err
}

// topKBoundedOn is TopKBoundedWS on a workspace the caller holds. An
// early-stopped search ranks from its resolving check (rankFromCheck), and
// unpermutes its score vector only when vector is set.
func (e *Engine) topKBoundedOn(ctx context.Context, q []float64, exclude, k int, ws *Workspace, vector bool) ([]Ranked, []float64, TopKStats, error) {
	start := time.Now()
	// The calibrated factor computes lazily here on first use; engines that
	// cannot be calibrated (or have no hub block) serve full solves.
	factor, ferr := e.topkFactor()
	cand := e.n
	if exclude >= 0 && exclude < e.n {
		cand--
	}
	opts := solver.GMRESOptions{Ctx: ctx}
	var chk *tkChecker
	// A k that covers every candidate can't early-stop (there is no
	// (k+1)-th bound to clear) — run those to tolerance.
	if ferr == nil && factor > 0 && e.ord.n2 > 0 && k > 0 && k < cand {
		chk = &ws.tk
		*chk = tkChecker{e: e, ws: ws, k: k, skip: -1, factor: factor, qt2Norm: -1, nextCheck: 1}
		if len(ws.tkScores) < e.n {
			ws.tkScores = make([]float64, e.n)
		}
		if cap(ws.tkTop) < k+1 {
			ws.tkTop = make([]Ranked, 0, k+1)
		}
		if exclude >= 0 && exclude < e.n {
			chk.skip = int(e.ord.perm[exclude])
		}
		if ws.tkProbe == nil {
			ws.tkProbe = ws.tk.probe
		}
		opts.Probe = ws.tkProbe
	}
	var stats TopKStats
	r2, st, err := e.solveR2(ws, q, opts, &stats.QueryStats)
	if chk != nil {
		stats.BoundChecks, stats.Bound, stats.Gap = chk.checks, chk.delta, chk.gap
	}
	if err != nil {
		stats.Duration = time.Since(start)
		return nil, nil, stats, err
	}
	if st.StopReason == solver.StopEarly {
		stats.EarlyStopped = true
		stats.SavedIters = estimateSavedIters(st, e.opts.Tol)
	}

	tBack := time.Now()
	var top []Ranked
	var r []float64
	if stats.EarlyStopped {
		// r2 is the iterate the resolving gap check assembled, so that
		// check's ranking is the answer, and its reconstruction (still in
		// the workspace's r1/r3 buffers) is bitwise current: only the
		// unpermute remains.
		top = e.rankFromCheck(ws, chk.top[:k])
		if vector {
			r = e.unpermute(ws, r2)
		}
	} else {
		e.reconstruct(ws, r2)
		r = e.unpermute(ws, r2)
		// The exact ranking pass over the reconstructed vector — in
		// original-id space, so order and tie-breaks match Engine.TopK.
		top = RankTopK(r, k, exclude)
	}
	stats.Stages.Back = time.Since(tBack)
	stats.Duration = time.Since(start)
	return top, r, stats, nil
}

// rankFromCheck is the answer of an early-stopped search: the resolving
// check's k winners (permuted ids, their scores the unpermuted vector's bit
// for bit), mapped to original ids by one scan of perm, which marks them
// in ws.tkMarks, and sorted by Outranks. The certificate leaves the k-th
// score strictly above the (k+1)-th, so they are the set RankTopK would
// pick from the unpermuted vector, in its order.
func (e *Engine) rankFromCheck(ws *Workspace, win []Ranked) []Ranked {
	if words := (e.n + 63) / 64; len(ws.tkMarks) < words {
		ws.tkMarks = make([]uint64, words)
	}
	marks := ws.tkMarks
	for _, r := range win {
		marks[r.Node/64] |= 1 << (r.Node % 64)
	}
	top := make([]Ranked, 0, len(win))
	for old, p := range e.ord.perm {
		if marks[p/64]&(1<<(p%64)) != 0 {
			top = append(top, Ranked{Node: old, Score: ws.tkScores[p]})
		}
	}
	for _, r := range win {
		marks[r.Node/64] = 0
	}
	slices.SortFunc(top, compareRanked)
	return top
}

// CalibrateBound runs the one-time calibration behind the bounded top-k
// certificate: the empirical ℓ∞ error-to-residual ratio, measured on a
// handful of instrumented reference solves. Whoever publishes an engine
// calls it before the engine serves — bepi.Dynamic before it swaps a
// rebuilt engine in, bepi-serve before it listens — so that no query pays
// it; an engine nobody calibrated calibrates on its first bounded query.
// Later calls return the first call's error and cost nothing.
func (e *Engine) CalibrateBound() error {
	_, err := e.topkFactor()
	return err
}

// BoundCalibrated reports whether the calibration behind the bounded top-k
// search has run (successfully or not), without running it: when true, a
// bounded query starts solving at once.
func (e *Engine) BoundCalibrated() bool { return e.tkDone.Load() }

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
// on. The calibrated ratio is sharp, and topkBoundSafety inflates it at
// every check to absorb sampling error.
func (e *Engine) topkFactor() (float64, error) {
	e.tkOnce.Do(func() {
		e.tkFactor, e.tkErr = e.computeTopKFactor()
		e.tkDone.Store(true)
	})
	return e.tkFactor, e.tkErr
}

// computeTopKFactor runs the instrumented reference solves behind
// topkFactor. Only topkFactor (under its Once) calls it. A zero result
// (trivial graph: every sampled solve converges in under two iterations)
// disables the bounded path — there is nothing to save on such engines.
//
// It solves on a workspace of the engine's free list, which the engine's
// first queries then reuse. The probe keeps each captured iterate's
// coefficients (at most calMaxIters short vectors, in one array), and after
// the reference solve each iterate is assembled by the arithmetic of the
// bounded search's checks: from the images a split solve kept, or from an
// unpreconditioned solve's basis into an n2-vector allocated for it.
// Besides these it allocates one n-vector, the reference scores; the
// workspace's top-k scratch holds each iterate's.
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
	ws := e.acquireWorkspace()
	defer e.releaseWorkspace(ws)
	if len(ws.tkScores) < e.n {
		ws.tkScores = make([]float64, e.n)
	}
	cur := ws.tkScores[:e.n]
	ref := make([]float64, e.n)
	// coefs holds the captured iterates' coefficients back to back: the
	// i-th (0-based) has i+1 of them, since every probe captures.
	coefs := make([]float64, 0, calMaxIters*(calMaxIters+1)/2)
	residuals := make([]float64, 0, calMaxIters) // of the captured iterates
	iterateOf := ws.images.combine
	if !e.Preconditioned() {
		x := make([]float64, e.ord.n2)
		iterateOf = func(y []float64) []float64 { return ws.slv.Combine(y, x) }
	}
	rng := rand.New(rand.NewSource(calSeedRNG))
	factor := 0.0
	samples := 0
	probe := func(iter int, residual float64, _ func() []float64) bool {
		if len(residuals) == calMaxIters {
			return false
		}
		coefs = append(coefs, ws.slv.Coefficients()...)
		residuals = append(residuals, residual)
		return false
	}
	for try := 0; try < calMaxSeeds && samples < calSamples; try++ {
		seed := rng.Intn(e.n)
		q := ws.unitQuery(seed)
		e.permute(ws, q)
		q[seed] = 0
		e.forward(ws)
		coefs, residuals = coefs[:0], residuals[:0]
		r2, st, err := e.runSchurSolve(ws, ws.qt2, solver.GMRESOptions{Probe: probe})
		if err != nil {
			return 0, fmt.Errorf("core: top-k calibration solve on seed %d: %w", seed, err)
		}
		if st.Iterations < 2 || len(residuals) == 0 {
			continue
		}
		samples++
		e.permutedScores(ws, r2, ref)
		qt2Norm := vec.Norm2(ws.qt2)
		for i, residual := range residuals {
			y := coefs[i*(i+1)/2 : (i+1)*(i+2)/2]
			rn := residual * qt2Norm
			if rn == 0 {
				continue
			}
			e.permutedScores(ws, iterateOf(y), cur)
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

// tkChecker is the per-solve state of the bounded search: its probe turns
// selected iterates into (certified radius, current k-th gap) and halts the
// solve once the gap is certified.
type tkChecker struct {
	e      *Engine
	ws     *Workspace
	k      int
	top    []Ranked // the last check's k+1 best candidates, permuted ids
	skip   int      // permuted index excluded from ranking; -1 none
	factor float64
	// qt2Norm is ‖q̃2‖₂, which rescales the solver's relative residual;
	// negative until the first probe takes it (q̃2 exists only once the
	// forward phase has run, after the checker is built).
	qt2Norm float64

	resolved  bool
	gapKnown  bool
	checks    int
	nextCheck int
	delta     float64
	gap       float64
}

func (c *tkChecker) probe(iter int, residual float64, iterate func() []float64) (stop bool) {
	if c.resolved || iter < c.nextCheck {
		return c.resolved
	}
	e, ws := c.e, c.ws
	if c.qt2Norm < 0 {
		c.qt2Norm = vec.Norm2(ws.qt2)
	}

	// Radius δ from the solver's reported residual, rescaled by ‖q̃2‖ — the
	// exact metric computeTopKFactor calibrated the factor against (safety
	// absorbs recurrence drift and sampling error), so it costs one
	// multiply per iteration. It doubles as the check gate: a full check
	// (iterate assembly + partial back-substitution + ranking pass) costs
	// roughly the whole non-solve half of a query, so it only runs once δ
	// says the certificate could actually fire (δ ≤ gap/2). Until a gap has
	// been learned the gate instead waits for the scores to form
	// (residual ≤ topkLearnResid). Exact ties never pass the gate — such
	// solves pay one learning check and then run to tolerance with one
	// multiply per iteration.
	delta := float64(topkBoundSafety * c.factor * residual * c.qt2Norm)
	if c.gapKnown {
		if delta > c.gap/2 {
			return false
		}
	} else if residual > topkLearnResid && iter < topkMaxCheckStride {
		return false
	}

	c.checks++
	r2 := iterate()
	c.delta = delta

	// Current full score snapshot (permuted order — only score values and
	// the k-th gap matter here; the answer is ranked in original-id space
	// after the solve).
	e.permutedScores(ws, r2, ws.tkScores)
	skip := c.skip
	top := rankTopK(ws.tkTop[:0], ws.tkScores[:e.n], c.k+1, func(i int) bool { return i == skip })
	c.top = top
	if len(top) <= c.k {
		// The iterate shows at most k positive candidates. That is NOT a
		// certificate: early iterates can have small support that later
		// spreads, and a node whose true score lies in (0, δ) is invisible
		// now yet belongs in the full solve's ranking. Keep solving — at
		// tolerance the vector (and set) is bitwise the full solve's.
		c.gapKnown = false
		c.gap = 0
		c.nextCheck = iter + topkMaxCheckStride
		return false
	}
	gap := top[c.k-1].Score - top[c.k].Score
	c.gap, c.gapKnown = gap, true
	// Separation certificate: gap > 2δ means even if the k-th true score
	// sits δ below its estimate and the (k+1)-th sits δ above, the k-th
	// still wins — the set can no longer change.
	if gap > 2*delta {
		c.resolved = true
		return true
	}
	// Certification would need the residual down to gap/(2·safety·factor·
	// ‖q̃2‖); if that is within topkMinHeadroom of the tolerance, a check
	// there costs more than the last iterations it could skip — stop
	// chasing and let the solve run out (ties land here with gap 0).
	if gap < 2*topkBoundSafety*c.factor*c.qt2Norm*topkMinHeadroom*e.opts.Tol {
		c.nextCheck = math.MaxInt
		return false
	}
	// Not separated: the gate re-arms on the fresh gap and lets the next
	// plausible iteration through.
	c.nextCheck = iter + 1
	return false
}

// permutedScores rebuilds the full permuted-order score vector from a
// mid-solve r2 iterate: r1 and r3 by reconstruct (left in the workspace's
// buffers), concatenated with r2 into out.
func (e *Engine) permutedScores(ws *Workspace, r2, out []float64) {
	e.reconstruct(ws, r2)
	n1 := e.ord.n1
	l := n1 + e.ord.n2
	copy(out[:n1], ws.r1)
	copy(out[n1:l], r2)
	copy(out[l:e.n], ws.r3)
}

// estimateSavedIters extrapolates how many more iterations the solve would
// have needed to reach tol, assuming the geometric decay implied by the
// residual at the stopping point: total ≈ iters·log(tol)/log(residual).
func estimateSavedIters(st solver.Stats, tol float64) int {
	if st.Iterations <= 0 || st.Residual <= 0 || st.Residual >= 1 || tol <= 0 || st.Residual <= tol {
		return 0
	}
	est := float64(st.Iterations) * math.Log(tol) / math.Log(st.Residual)
	saved := int(math.Ceil(est)) - st.Iterations
	if saved < 0 {
		return 0
	}
	return saved
}
