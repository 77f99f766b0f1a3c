package core

import (
	"context"
	"fmt"
	"sort"

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
// per-solve Ctx and Probe; tolerance, iteration budget, telemetry and the
// Krylov arena come from the engine and the workspace. The returned
// solution points into the workspace and is only valid until its next
// solve.
//
// For full BePI the solve is split-preconditioned and runs on the
// one-pass operator: GMRES(Ŝ, b̂ = D·L̂⁻¹·q̃2), then r2 = Û⁻¹·y — the
// residual Tol bounds is ‖D·L̂⁻¹(q̃2 − S·r2)‖/‖b̂‖ — and every iterate the
// caller's Probe assembles is mapped through Û⁻¹ first, by the same
// arithmetic as the returned solution. Unpreconditioned (BePI-B, BePI-S) it
// is plain GMRES on S, whose products S·x read the same factors.
func (e *Engine) runSchurSolve(ws *Workspace, qt2 []float64, opts solver.GMRESOptions) ([]float64, solver.Stats, error) {
	opts.Tol, opts.MaxIter = e.opts.Tol, e.opts.MaxIter
	opts.Work = &ws.slv
	hook := e.kernelHook

	sp := e.splitOperator(ws)
	// One hook: the engine's telemetry first, then the caller's probe, whose
	// iterates a split solve maps through Û⁻¹ — untimed, as their assembly
	// inside the solver is: the kernel hook reports the solve's own kernels.
	if probe, tele := opts.Probe, e.iterHook; probe != nil || tele != nil {
		opts.Probe = func(iter int, residual float64, iterate func() []float64) bool {
			if tele != nil {
				tele(iter, residual)
			}
			if probe == nil {
				return false
			}
			if sp != nil {
				y := iterate
				iterate = func() []float64 {
					sp.Right(ws.iterate, y())
					return ws.iterate
				}
			}
			return probe(iter, residual, iterate)
		}
	}
	if sp == nil {
		var op solver.Operator = e.ilu
		if hook != nil {
			op = &timedOperator{op: op, hook: hook, bytes: e.ilu.MemoryBytes() + int64(16*e.ord.n2)}
		}
		return solver.GMRES(op, qt2, opts)
	}
	var op solver.Operator = sp
	left, right := sp.Left, sp.Right
	if hook != nil {
		mulB, leftB, rightB := sp.TrafficBytes()
		op = &timedOperator{op: sp, hook: hook, bytes: mulB}
		left = (&timedPrecond{apply: sp.Left, hook: hook, bytes: leftB}).Apply
		right = (&timedPrecond{apply: sp.Right, hook: hook, bytes: rightB}).Apply
	}
	left(ws.bhat, qt2)
	r2, stats, err := solver.GMRES(op, ws.bhat, opts)
	if err == nil {
		right(r2, r2)
	}
	return r2, stats, err
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
	// h is a min-heap on the outranks order: h[0] is the weakest candidate
	// kept so far, the first to be displaced by a better node. k comes from
	// requests, so it sizes the heap only up to the nodes there are.
	h := make([]Ranked, 0, min(k, len(scores)))
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
	sort.Slice(h, func(i, j int) bool { return outranks(h[i], h[j]) })
	return h
}
