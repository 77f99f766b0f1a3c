package core

import (
	"context"
	"fmt"
	"slices"

	"bepi/internal/solver"
)

// Query computes the RWR score vector for the given seed node
// (Algorithm 2/4). The returned vector is indexed by the original node ids.
func (e *Engine) Query(seed int) ([]float64, QueryStats, error) {
	if seed < 0 || seed >= e.n {
		return nil, QueryStats{}, fmt.Errorf("core: seed %d out of range [0,%d)", seed, e.n)
	}
	ws := e.acquireWorkspace()
	defer e.releaseWorkspace(ws)
	q := ws.unitQuery(seed)
	defer func() { q[seed] = 0 }()
	return e.queryOn(ws, q, solver.GMRESOptions{})
}

// QueryVector computes the personalized PageRank vector for an arbitrary
// starting distribution q (indexed by original node ids). RWR is the
// special case of a single-entry q; multi-seed q gives PPR, which the
// block-elimination machinery supports unchanged. It solves on a workspace
// from the engine's free list.
func (e *Engine) QueryVector(q []float64) ([]float64, QueryStats, error) {
	return e.QueryVectorWS(context.Background(), q)
}

// runSchurSolve solves S·r2 = q̃2 by GMRES, and is the only place the engine
// does: queries, top-k and bound calibration all funnel through here, so
// every one of them sees the same system. The caller's opts carry the
// per-solve Ctx and Probe; tolerance and iteration budget come from the
// engine, and the solve runs on the workspace's solver workspace, through
// its timedOperator, which holds the solve's kernel counters once it
// returns. The returned solution points into the workspace and is only
// valid until its next solve.
//
// For full BePI the solve is split-preconditioned and runs on the
// one-pass operator: GMRES(Ŝ, b̂ = D·L̂⁻¹·q̃2), then r2 = Û⁻¹·y — the
// residual Tol bounds is ‖D·L̂⁻¹(q̃2 − S·r2)‖/‖b̂‖. Unpreconditioned
// (BePI-B, BePI-S) it is plain GMRES on S, whose products S·x read the same
// factors. A split solve with a caller's Probe runs on the workspace's
// krylovImages, which keep Û⁻¹·v_j for every basis vector v_j, and the
// probe's iterate is Σ y_j·z_j, assembled with no triangular sweep; an
// unpreconditioned solve's probe gets the solver's own V·y. A probe that
// stops the solve early gets that same vector back as r2; a solve that runs
// to tolerance returns Û⁻¹·(V·y), the full answer's arithmetic, probed or
// not.
func (e *Engine) runSchurSolve(ws *Workspace, qt2 []float64, opts solver.GMRESOptions) ([]float64, solver.Stats, error) {
	opts.Tol, opts.MaxIter = e.opts.Tol, e.opts.MaxIter
	opts.Work = &ws.slv
	n2 := e.ord.n2

	sp := e.splitOperator(ws)
	var op solver.Operator = e.ilu
	bytes, leftB, rightB := e.ilu.MemoryBytes()+int64(16*n2), int64(0), int64(0)
	if sp != nil {
		op = sp
		bytes, leftB, rightB = sp.TrafficBytes()
	}
	keep := opts.Probe != nil && sp != nil
	ws.images.split = nil
	if keep {
		ws.images.reset(sp, n2)
		if ws.imageIterate == nil {
			ws.imageIterate = ws.probedIterate
		}
		op, bytes = &ws.images, bytes+int64(8*n2)
	}
	// One hook: the test seam first, then the caller's probe. The images'
	// assembly is untimed, as the solver's own is: the kernel counters
	// count the solve's kernels.
	ws.probe, ws.tele = opts.Probe, e.iterHook
	defer func() { ws.probe, ws.tele = nil, nil }()
	if ws.probe != nil || ws.tele != nil {
		if ws.hook == nil {
			ws.hook = ws.solveProbe
		}
		opts.Probe = ws.hook
	}
	ws.op = timedOperator{op: op, bytes: bytes}
	b := qt2
	if sp != nil {
		ws.op.precond(sp.Left, ws.bhat, qt2, leftB)
		b = ws.bhat
	}
	r2, stats, err := solver.GMRES(&ws.op, b, opts)
	switch {
	case err != nil:
	case keep && stats.StopReason == solver.StopEarly:
		r2 = ws.images.iterate(ws.slv.Coefficients())
	case sp != nil:
		ws.op.precond(sp.Right, r2, r2, rightB)
	}
	return r2, stats, err
}

// solveProbe is the Probe of a solve with a caller's probe or an iteration
// hook: the hook, then the probe, handed the iterate from the kept images
// when the solve keeps them and the solver's own otherwise.
func (ws *Workspace) solveProbe(iter int, residual float64, iterate func() []float64) bool {
	if ws.tele != nil {
		ws.tele(iter, residual)
	}
	if ws.probe == nil {
		return false
	}
	if ws.images.split != nil {
		iterate = ws.imageIterate
	}
	return ws.probe(iter, residual, iterate)
}

// probedIterate assembles the current iterate of a probed split solve from
// its kept images.
func (ws *Workspace) probedIterate() []float64 {
	return ws.images.iterate(ws.slv.Coefficients())
}

// QueryWithCallback runs a query invoking cb with the fully assembled RWR
// vector (original ids) after every GMRES iteration on the Schur system.
// It exists for the Appendix-I accuracy-vs-iterations experiment; regular
// callers should use Query.
func (e *Engine) QueryWithCallback(seed int, cb func(iter int, r []float64)) ([]float64, QueryStats, error) {
	if seed < 0 || seed >= e.n {
		return nil, QueryStats{}, fmt.Errorf("core: seed %d out of range [0,%d)", seed, e.n)
	}
	ws := e.acquireWorkspace()
	defer e.releaseWorkspace(ws)
	q := ws.unitQuery(seed)
	defer func() { q[seed] = 0 }()
	var opts solver.GMRESOptions
	if cb != nil {
		opts.Probe = func(iter int, _ float64, iterate func() []float64) bool {
			cb(iter, e.assemble(ws, iterate()))
			return false
		}
	}
	return e.queryOn(ws, q, opts)
}

// TopK returns the k highest-scoring nodes for the seed, excluding the seed
// itself, as (node, score) pairs in descending score order.
func (e *Engine) TopK(seed, k int) ([]Ranked, error) {
	r, _, err := e.Query(seed)
	if err != nil {
		return nil, err
	}
	return RankTopK(r, k, seed), nil
}

// Ranked is a node with its RWR score. It is the one ranking entry of
// every layer: bepi.Ranked and the serving tiers' JSON "top" rows are this
// type.
type Ranked struct {
	Node  int     `json:"node"`
	Score float64 `json:"score"`
}

// RankTopK returns the k nodes with the highest scores, excluding `exclude`
// (pass a negative value to exclude nothing). Ties break on lower node id.
func RankTopK(scores []float64, k int, exclude int) []Ranked {
	return RankTopKFunc(scores, k, func(node int) bool { return node == exclude })
}

// Outranks reports whether a ranks strictly above b: higher score wins,
// ties break on lower node id. It is the total order every ranking in the
// system uses — Engine.TopK, the bounded top-k search, and the cluster
// tier's merge — so equal-score ties resolve identically on every replica
// and merged rankings are independent of arrival order.
func (a Ranked) Outranks(b Ranked) bool {
	if a.Score != b.Score {
		return a.Score > b.Score
	}
	return a.Node < b.Node
}

// outranks is the free-function spelling the heap code below uses.
func outranks(a, b Ranked) bool { return a.Outranks(b) }

// compareRanked is Outranks as a sort comparison: a sorts first when it
// outranks b.
func compareRanked(a, b Ranked) int {
	switch {
	case a.Outranks(b):
		return -1
	case b.Outranks(a):
		return 1
	}
	return 0
}

// RankTopKFunc returns the k highest-scoring nodes among those not skipped,
// in descending order (ties break on lower node id). It maintains a bounded
// min-heap of k candidates — O(n·log k) instead of the O(n·k)
// insertion-sort it replaces — and is shared by Engine.TopK and the HTTP
// handlers' multi-seed rankings. skip may be nil. A k beyond len(scores)
// returns every node not skipped.
func RankTopKFunc(scores []float64, k int, skip func(node int) bool) []Ranked {
	if k <= 0 {
		return nil
	}
	// k comes from requests, so it sizes the heap only up to the nodes
	// there are.
	return rankTopK(make([]Ranked, 0, min(k, len(scores))), scores, k, skip)
}

// rankTopK is RankTopKFunc into h, an empty slice it appends into within
// its capacity. h is a min-heap on the outranks order: h[0] is the weakest
// candidate kept so far, the first to be displaced by a better node.
func rankTopK(h []Ranked, scores []float64, k int, skip func(node int) bool) []Ranked {
	for node, s := range scores {
		if skip != nil && skip(node) {
			continue
		}
		e := Ranked{Node: node, Score: s}
		if len(h) < k {
			h = append(h, e)
			// Sift up.
			for i := len(h) - 1; i > 0; {
				p := (i - 1) / 2
				if !outranks(h[p], h[i]) {
					break
				}
				h[p], h[i] = h[i], h[p]
				i = p
			}
			continue
		}
		if !outranks(e, h[0]) {
			continue
		}
		// Replace the weakest and sift down.
		h[0] = e
		for i := 0; ; {
			l, r := 2*i+1, 2*i+2
			worst := i
			if l < len(h) && outranks(h[worst], h[l]) {
				worst = l
			}
			if r < len(h) && outranks(h[worst], h[r]) {
				worst = r
			}
			if worst == i {
				break
			}
			h[i], h[worst] = h[worst], h[i]
			i = worst
		}
	}
	slices.SortFunc(h, compareRanked)
	return h
}
