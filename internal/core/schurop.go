package core

import (
	"time"

	"bepi/internal/lu"
	"bepi/internal/solver"
)

// Kernel names reported through SetKernelHook.
const (
	// KernelSchur is one application of the operator an iterative solve
	// runs on: the one-pass preconditioned Ŝ = D·L̂⁻¹·S·Û⁻¹ for full BePI,
	// S·x read off the same factors for the unpreconditioned variants.
	KernelSchur = "schur"
	// KernelPrecond is one preconditioner sweep outside that operator: the
	// two half-passes of a split solve (b̂ = D·L̂⁻¹·b before it, x = Û⁻¹·y
	// after it).
	KernelPrecond = "precond"
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

// timedOperator wraps an operator to report each application through the
// engine's kernel hook as KernelSchur.
type timedOperator struct {
	op    solver.Operator
	hook  func(kernel string, seconds float64, bytes int64)
	bytes int64
}

func (t *timedOperator) MulVec(dst, x []float64) {
	start := time.Now()
	t.op.MulVec(dst, x)
	t.hook(KernelSchur, time.Since(start).Seconds(), t.bytes)
}

// timedPrecond reports one half-pass of a split solve through the engine's
// kernel hook as KernelPrecond.
type timedPrecond struct {
	apply func(dst, src []float64)
	hook  func(kernel string, seconds float64, bytes int64)
	bytes int64
}

func (t *timedPrecond) Apply(dst, src []float64) {
	start := time.Now()
	t.apply(dst, src)
	t.hook(KernelPrecond, time.Since(start).Seconds(), t.bytes)
}
