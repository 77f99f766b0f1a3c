package core

import (
	"time"

	"bepi/internal/lu"
	"bepi/internal/solver"
)

// splitOperator returns the workspace's one-pass operator over the engine's
// DILU factors, or nil when the variant solves unpreconditioned.
func (e *Engine) splitOperator(ws *Workspace) *lu.Eisenstat {
	if !e.Preconditioned() {
		return nil
	}
	if ws.split == nil || ws.split.ILU() != e.ilu {
		ws.split = e.ilu.Eisenstat()
		ws.bhat = make([]float64, e.ord.n2)
		ws.iterate = make([]float64, e.ord.n2)
	}
	return ws.split
}

// timedOperator is a workspace's wrapper around the operator a solve runs
// on: it counts and times every application into stats, adding bytes, the
// traffic of one application, each time. precond does the same for a
// half-pass outside the operator. A solve resets it before it starts.
type timedOperator struct {
	op    solver.Operator
	bytes int64
	stats KernelStats
}

func (t *timedOperator) MulVec(dst, x []float64) {
	start := time.Now()
	t.op.MulVec(dst, x)
	t.stats.SchurTime += time.Since(start)
	t.stats.SchurApplies++
	t.stats.Bytes += t.bytes
}

// precond applies one half-pass of a split solve, counted and timed.
func (t *timedOperator) precond(apply func(dst, src []float64), dst, src []float64, bytes int64) {
	start := time.Now()
	apply(dst, src)
	t.stats.PrecondTime += time.Since(start)
	t.stats.PrecondApplies++
	t.stats.Bytes += bytes
}
