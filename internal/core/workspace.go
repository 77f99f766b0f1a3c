package core

import (
	"context"
	"fmt"
	"runtime"
	"time"

	"bepi/internal/lu"
	"bepi/internal/solver"
)

// Workspace holds the block-elimination temporaries and the iterative
// solver's Krylov workspace for one engine. A workspace is owned by one query
// at a time (it is not safe for concurrent use) but is reused across queries,
// so a serving worker that runs query after query allocates nothing on the
// hot path except the result vectors it hands back.
type Workspace struct {
	e *Engine
	// Buffers in the reordered space: the permuted query, t1 = H11⁻¹·c·q1,
	// the Schur right-hand side q̃2, the r1 and r3 result blocks and the
	// H32·r2 temporary. r2 itself lives in the solver workspace. z1 and z2
	// hold a spoke- and a hub-length vector scaled by its columns' weights,
	// what the H-block gathers read.
	qp, t1, qt2, r1, r3, tmp, z1, z2 []float64
	slv                              solver.Workspace
	// split is this workspace's one-pass preconditioned operator (engines
	// with DILU factors), bhat the split system's
	// right-hand side D·L̂⁻¹·q̃2, and iterate the Û⁻¹-mapped iterate handed
	// to a solve's Probe. Built together, lazily, by Engine.splitOperator.
	split         *lu.Eisenstat
	bhat, iterate []float64
	// unit (length n) is the all-zero query vector Engine.Query and
	// TopKBounded set one entry of, so a single-seed query allocates no
	// input vector; see unitQuery.
	unit []float64
	// tkScores (length n, permuted order) is the bounded top-k search's
	// scratch: the mid-solve score snapshot the gap checks rank.
	tkScores []float64
}

// newWorkspace returns an empty workspace for the engine. Buffers are
// allocated on first use.
func (e *Engine) newWorkspace() *Workspace { return &Workspace{e: e} }

// acquireWorkspace takes an idle workspace from the engine's free list (or
// builds an empty one). Every public query entry point solves on one.
func (e *Engine) acquireWorkspace() *Workspace {
	e.wsMu.Lock()
	defer e.wsMu.Unlock()
	if last := len(e.wsFree) - 1; last >= 0 {
		ws := e.wsFree[last]
		e.wsFree = e.wsFree[:last]
		return ws
	}
	return e.newWorkspace()
}

// releaseWorkspace returns a workspace once nothing the caller hands back
// points into it. The list holds at most one workspace per P: more callers
// than that cannot be solving at once for long.
func (e *Engine) releaseWorkspace(ws *Workspace) {
	e.wsMu.Lock()
	defer e.wsMu.Unlock()
	if len(e.wsFree) < runtime.GOMAXPROCS(0) {
		e.wsFree = append(e.wsFree, ws)
	}
}

// unitQuery returns the workspace's zero vector with q[seed] = 1. The
// caller resets that entry before releasing the workspace.
func (w *Workspace) unitQuery(seed int) []float64 {
	if len(w.unit) != w.e.n {
		w.unit = make([]float64, w.e.n)
	}
	w.unit[seed] = 1
	return w.unit
}

// QueryVectorWS is QueryVector with a context that cancels the iterative
// Schur solve (per-query deadlines on the serving path); ctx may be nil (no
// cancellation). It solves on a workspace of the engine's free list, which
// a solve that panics drops instead of returning.
func (e *Engine) QueryVectorWS(ctx context.Context, q []float64) ([]float64, QueryStats, error) {
	ws := e.acquireWorkspace()
	r, stats, err := e.queryOn(ws, q, solver.GMRESOptions{Ctx: ctx})
	e.releaseWorkspace(ws)
	return r, stats, err
}

// queryOn is Algorithm 4 on a workspace the caller holds: solveR2 with the
// caller's per-solve hooks, then the back phase.
func (e *Engine) queryOn(ws *Workspace, q []float64, opts solver.GMRESOptions) ([]float64, QueryStats, error) {
	start := time.Now()
	var stats QueryStats
	r2, _, err := e.solveR2(ws, q, opts, &stats)
	var r []float64
	if err == nil {
		tBack := time.Now()
		r = e.assemble(ws, r2)
		stats.Stages.Back = time.Since(tBack)
	}
	stats.Duration = time.Since(start)
	return r, stats, err
}

// solveR2 runs Algorithm 4 through line 4 on the workspace: admit the query
// (length, context), permute it, form q̃2 and solve S·r2 = q̃2 with the
// caller's per-solve hooks. It fills the Permute/Forward/Solve stages and
// the solver counters of stats. The returned r2 points into the solver
// workspace and is valid until its next solve.
func (e *Engine) solveR2(ws *Workspace, q []float64, opts solver.GMRESOptions, stats *QueryStats) ([]float64, solver.Stats, error) {
	if len(q) != e.n {
		return nil, solver.Stats{}, fmt.Errorf("core: query vector length %d want %d", len(q), e.n)
	}
	if opts.Ctx != nil {
		if err := opts.Ctx.Err(); err != nil {
			return nil, solver.Stats{}, err
		}
	}
	tPhase := time.Now()
	e.permute(ws, q)
	stats.Stages.Permute = time.Since(tPhase)
	tPhase = time.Now()
	e.forward(ws)
	stats.Stages.Forward = time.Since(tPhase)

	tPhase = time.Now()
	r2, st, err := e.runSchurSolve(ws, ws.qt2, opts)
	stats.Iterations, stats.Residual = st.Iterations, st.Residual
	stats.Stages.Solve = time.Since(tPhase)
	if err != nil {
		return nil, st, fmt.Errorf("core: solving Schur system: %w", err)
	}
	return r2, st, nil
}

// permute scatters the query into the reordered space and forms t1 = c·q1,
// allocating the workspace's block buffers on first use.
func (e *Engine) permute(ws *Workspace, q []float64) {
	n1, n2 := e.ord.n1, e.ord.n2
	if ws.qp == nil {
		n3 := e.n - n1 - n2
		ws.qp = make([]float64, e.n)
		ws.t1, ws.r1 = make([]float64, n1), make([]float64, n1)
		ws.qt2 = make([]float64, n2)
		ws.r3, ws.tmp = make([]float64, n3), make([]float64, n3)
		ws.z1, ws.z2 = make([]float64, n1), make([]float64, n2)
	}
	qp := ws.qp
	for i := range qp {
		qp[i] = 0
	}
	perm := e.ord.perm
	for old, v := range q {
		if v != 0 {
			qp[perm[old]] = v
		}
	}
	c := e.opts.C
	for i, v := range qp[:n1] {
		ws.t1[i] = c * v
	}
}

// forward computes q̃2 = c·q2 − H21·(H11⁻¹·(c·q1)) (Algorithm 4, line 3);
// blocks of the substitution and rows of the SpMV run in parallel over the
// engine pool.
func (e *Engine) forward(ws *Workspace) {
	n1 := e.ord.n1
	c := e.opts.C
	e.h11LU.SolvePool(ws.t1, e.pool)
	e.h21.MulVecScaled(ws.qt2, ws.z1, e.hw[:n1], ws.t1)
	q2 := ws.qp[n1 : n1+e.ord.n2]
	for i, v := range ws.qt2 {
		ws.qt2[i] = c*q2[i] - v
	}
}

// reconstruct rebuilds r1 and r3 from an r2 — the solution or a mid-solve
// iterate — into the workspace's buffers (Algorithm 4, lines 5-6). It must
// not touch the solver workspace: the solve may still be running.
func (e *Engine) reconstruct(ws *Workspace, r2 []float64) {
	c := e.opts.C
	n1 := e.ord.n1
	qp, r1, r3, tmp := ws.qp, ws.r1, ws.r3, ws.tmp

	// r1 = H11⁻¹·(c·q1 − H12·r2)   (line 5); z2 = w2∘r2 serves H32 below
	e.h12.MulVecScaled(r1, ws.z2, e.hw[n1:], r2)
	for i := range r1 {
		r1[i] = c*qp[i] - r1[i]
	}
	e.h11LU.SolvePool(r1, e.pool)

	// r3 = c·q3 − H31·r1 − H32·r2   (line 6)
	e.h31.MulVecScaled(r3, ws.z1, e.hw[:n1], r1)
	e.h32.MulVec(tmp, ws.z2)
	q3 := qp[n1+e.ord.n2:]
	for i := range r3 {
		r3[i] = c*q3[i] - r3[i] - tmp[i]
	}
}

// assemble is the back phase (lines 5-7): r1 and r3 from r2, then the
// un-permute into a fresh original-id vector.
func (e *Engine) assemble(ws *Workspace, r2 []float64) []float64 {
	e.reconstruct(ws, r2)
	return e.unpermute(ws, r2)
}

// unpermute concatenates the workspace's current r1/r3 blocks and the given
// r2 into a fresh original-id vector (line 7) — the one allocation that must
// escape.
func (e *Engine) unpermute(ws *Workspace, r2 []float64) []float64 {
	n1 := e.ord.n1
	l := n1 + e.ord.n2
	r := make([]float64, e.n)
	r1, r3 := ws.r1, ws.r3
	for old, p := range e.ord.perm {
		switch nw := int(p); {
		case nw < n1:
			r[old] = r1[nw]
		case nw < l:
			r[old] = r2[nw-n1]
		default:
			r[old] = r3[nw-l]
		}
	}
	return r
}
