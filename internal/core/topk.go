package core

import (
	"context"
	"fmt"
	"math"
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
// (topkFactor in bound.go): the worst per-node score error per unit of
// that same solver-reported residual metric, measured on instrumented
// reference solves against the engine-tolerance solution. Every node's current score is then within
// δ of its score in the vector Engine.TopK would rank: lower bound =
// score − δ, upper bound = score + δ. When the k-th candidate's lower
// bound clears the (k+1)-th's upper bound — i.e. the observed gap exceeds
// 2δ — no further iteration can change WHICH k nodes win, only their exact
// scores, so the solve halts and one ranking pass orders the candidates.
// (The Theorem-4 ℓ2 envelope in bound.go would give an a-priori valid δ,
// but at scale it is orders larger than real per-node errors and the
// certificate would never fire; the calibrated ratio is the same quantity
// measured instead of majorized.) Ties and near-uniform score
// distributions never separate, in which case the solve simply runs to the
// engine tolerance and the result is bit-identical to Engine.TopK.

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
// usable (iterate support still spreading): each full check costs a
// partial back-substitution plus a ranking pass — roughly the whole
// non-solve half of a query — so they must stay rare.
const topkMaxCheckStride = 8

// topkLearnResid is the solver-residual level at which the checker runs
// its first full check to learn the k-th gap. Earlier iterates rank
// half-formed scores: the measured gap would be noise and the check cost
// pure overhead. One full check learns the gap; afterwards the cheap
// per-iteration residual proxy decides when certification has become
// plausible and only then pays for another reconstruction.
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
	ws := e.acquireWorkspace()
	defer e.releaseWorkspace(ws)
	q := ws.unitQuery(seed)
	defer func() { q[seed] = 0 }()
	tops, _, stats, errs := e.TopKBoundedBatch(nil, [][]float64{q}, []int{seed}, []int{k}, ws)
	return tops[0], stats[0], errs[0]
}

// TopKBoundedBatch answers a batch of bounded top-k queries in one
// block-elimination pass, sharing the permute/forward/back phases with
// QueryVectorBatch. qs[i] is the starting distribution, excludes[i] the
// node left out of ranking i (negative: none), ks[i] the requested k.
// Results are positional like QueryVectorBatch: tops[i]/res[i] are nil iff
// errs[i] is non-nil. res[i] is the full score vector in original ids —
// exact when !stats[i].EarlyStopped, otherwise within stats[i].Bound per
// node (callers must not treat early-stopped vectors as full-tolerance
// results). Each solve stops independently: a batch never waits on its
// slowest member beyond that member's own certificate.
func (e *Engine) TopKBoundedBatch(ctxs []context.Context, qs [][]float64, excludes, ks []int, ws *Workspace) ([][]Ranked, [][]float64, []TopKStats, []error) {
	K := len(qs)
	tops := make([][]Ranked, K)
	res := make([][]float64, K)
	stats := make([]TopKStats, K)
	errs := make([]error, K)
	if K == 0 {
		return tops, res, stats, errs
	}
	if len(excludes) != K || len(ks) != K {
		for i := range errs {
			errs[i] = fmt.Errorf("core: top-k batch shape mismatch: %d queries, %d excludes, %d ks",
				K, len(excludes), len(ks))
		}
		return tops, res, stats, errs
	}
	start := time.Now()
	if ws == nil || ws.e != e {
		ws = e.acquireWorkspace()
		defer e.releaseWorkspace(ws)
	}
	ws.grow(K)
	ws.growTopK()

	// The calibrated factor computes lazily here on first use; engines that
	// cannot be calibrated (or have no hub block) serve full solves.
	factor, ferr := e.topkFactor()
	bounded := ferr == nil && factor > 0 && e.ord.N2 > 0

	active := e.admitBatch(ctxs, qs, errs)
	permuteDur := e.permutePhase(ws, qs, active)
	forwardDur := e.forwardPhase(ws, active)

	solved := make([]int, 0, len(active))
	chks := make([]*tkChecker, K)
	for _, slot := range active {
		kk := ks[slot]
		cand := e.n
		if x := excludes[slot]; x >= 0 && x < e.n {
			cand--
		}
		opts := solver.GMRESOptions{Ctx: batchCtx(ctxs, slot)}
		var chk *tkChecker
		// A k that covers every candidate can't early-stop (there is no
		// (k+1)-th bound to clear) — run those to tolerance.
		if bounded && kk > 0 && kk < cand {
			chk = &tkChecker{e: e, ws: ws, slot: slot, k: kk, skip: -1, factor: factor,
				qt2Norm: vec.Norm2(ws.qt2s[slot]), nextCheck: 1}
			if x := excludes[slot]; x >= 0 && x < e.n {
				chk.skip = e.ord.Perm[x]
			}
			opts.Probe = chk.probe
			opts.StopWhen = chk.stop
		}
		tSolve := time.Now()
		r2, st, err := e.runSchurSolve(ws, ws.qt2s[slot], opts)
		stats[slot].Iterations, stats[slot].Residual = st.Iterations, st.Residual
		stats[slot].Stages.Solve = time.Since(tSolve)
		if chk != nil {
			chks[slot] = chk
			stats[slot].BoundChecks, stats[slot].Bound, stats[slot].Gap = chk.checks, chk.delta, chk.gap
		}
		if err != nil {
			errs[slot] = fmt.Errorf("core: solving Schur system: %w", err)
			continue
		}
		if st.StopReason == solver.StopEarly {
			stats[slot].EarlyStopped = true
			stats[slot].SavedIters = estimateSavedIters(st, e.opts.Tol)
		}
		copy(ws.r2s[slot], r2)
		solved = append(solved, slot)
	}
	active = solved

	tPhase := time.Now()
	// Early-stopped slots skip the back phase's r1/r3 recomputation: the
	// solver's returned iterate is assembled by the same arithmetic as the
	// probe's, so the resolving gap check's reconstruction (already parked
	// in the slot's r1/r3 buffers) is bitwise current — only the unpermute
	// into original ids remains.
	recompute := make([]int, 0, len(active))
	for _, slot := range active {
		if c := chks[slot]; c != nil && c.resolved {
			res[slot] = e.unpermuteSlot(ws, slot)
		} else {
			recompute = append(recompute, slot)
		}
	}
	e.backPhase(ws, recompute, res)
	for _, slot := range active {
		// The final exact ranking pass over the reconstructed vector — in
		// original-id space, so order and tie-breaks match Engine.TopK.
		tops[slot] = RankTopK(res[slot], ks[slot], excludes[slot])
	}
	backDur := time.Since(tPhase)
	elapsed := time.Since(start)
	for i := range stats {
		stats[i].Duration = elapsed
		stats[i].Stages.Permute = permuteDur
		stats[i].Stages.Forward = forwardDur
		stats[i].Stages.Back = backDur
	}
	return tops, res, stats, errs
}

// tkChecker is the per-solve state of the bounded search: probe() turns
// selected iterates into (certified radius, current k-th gap) and stop()
// reports the verdict to the solver's StopWhen.
type tkChecker struct {
	e       *Engine
	ws      *Workspace
	slot    int
	k       int
	skip    int // permuted index excluded from ranking; -1 none
	factor  float64
	qt2Norm float64 // ‖q̃2‖₂, rescales the solver's relative residual

	resolved  bool
	gapKnown  bool
	checks    int
	nextCheck int
	delta     float64
	gap       float64
}

func (c *tkChecker) stop(iter int, residual float64) bool { return c.resolved }

func (c *tkChecker) probe(iter int, residual float64, iterate func() []float64) {
	if c.resolved || iter < c.nextCheck {
		return
	}
	e, ws := c.e, c.ws

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
	delta := topkBoundSafety * c.factor * residual * c.qt2Norm
	if c.gapKnown {
		if delta > c.gap/2 {
			return
		}
	} else if residual > topkLearnResid && iter < topkMaxCheckStride {
		return
	}

	c.checks++
	r2 := iterate()
	c.delta = delta

	// Current full score snapshot (permuted order — only score values and
	// the k-th gap matter here; the final ranking re-ranks in original-id
	// space after the solve).
	e.reconstructSlot(ws, c.slot, r2, ws.tkScores)
	skip := c.skip
	top := RankTopKFunc(ws.tkScores[:e.n], c.k+1, func(i int) bool { return i == skip })
	if len(top) <= c.k {
		// The iterate shows at most k positive candidates. That is NOT a
		// certificate: early iterates can have small support that later
		// spreads, and a node whose true score lies in (0, δ) is invisible
		// now yet belongs in the full solve's ranking. Keep solving — at
		// tolerance the vector (and set) is bitwise the full solve's.
		c.gapKnown = false
		c.gap = 0
		c.nextCheck = iter + topkMaxCheckStride
		return
	}
	gap := top[c.k-1].Score - top[c.k].Score
	c.gap, c.gapKnown = gap, true
	// Separation certificate: gap > 2δ means even if the k-th true score
	// sits δ below its estimate and the (k+1)-th sits δ above, the k-th
	// still wins — the set can no longer change.
	if gap > 2*delta {
		c.resolved = true
		return
	}
	// Certification would need the residual down to gap/(2·safety·factor·
	// ‖q̃2‖); if that is within topkMinHeadroom of the tolerance, a check
	// there costs more than the last iterations it could skip — stop
	// chasing and let the solve run out (ties land here with gap 0).
	if gap < 2*topkBoundSafety*c.factor*c.qt2Norm*topkMinHeadroom*e.opts.Tol {
		c.nextCheck = math.MaxInt
		return
	}
	// Not separated: the gate re-arms on the fresh gap and lets the next
	// plausible iteration through.
	c.nextCheck = iter + 1
}

// reconstructSlot rebuilds the full permuted-order score vector for one
// batch slot from a mid-solve r2 iterate: r1 = H11⁻¹(c·q1 − H12·r2),
// r3 = c·q3 − H31·r1 − H32·r2, concatenated into out. It reuses the slot's
// r1/r3/tmp buffers (they are rewritten by the final back phase anyway)
// and must not touch the solver workspace — the solve is still running.
func (e *Engine) reconstructSlot(ws *Workspace, slot int, r2, out []float64) {
	n1, n2 := e.ord.N1, e.ord.N2
	l := n1 + n2
	c := e.opts.C
	qp := ws.qps[slot]
	r1, r3, tmp := ws.r1s[slot], ws.r3s[slot], ws.tmps[slot]

	e.h12.MulVec(r1, r2)
	for i := range r1 {
		r1[i] = c*qp[i] - r1[i]
	}
	e.h11LU.SolvePool(r1, e.pool)
	e.h31.MulVec(r3, r1)
	e.h32.MulVec(tmp, r2)
	q3 := qp[l:]
	for i := range r3 {
		r3[i] = c*q3[i] - r3[i] - tmp[i]
	}
	copy(out[:n1], r1)
	copy(out[n1:l], r2)
	copy(out[l:e.n], r3)
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
