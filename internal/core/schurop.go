package core

import (
	"time"

	"bepi/internal/lu"
	"bepi/internal/solver"
)

// Kernel names reported through SetKernelHook.
const (
	// KernelSchur is one application of the operator an iterative solve
	// runs on: the one-pass preconditioned Ŝ = D·L̂⁻¹·S·Û⁻¹ on engines whose
	// DILU factors come from the S they serve, the explicit SpMV on S on
	// unpreconditioned variants, or the fused implicit operator.
	KernelSchur = "schur"
	// KernelPrecond is one preconditioner sweep outside that operator: the
	// two half-passes of a split solve (b̂ = D·L̂⁻¹·b before it, x = Û⁻¹·y
	// after it) and M⁻¹ per iteration on the left-preconditioned paths.
	KernelPrecond = "precond"
)

// SchurOperator applies the Schur complement implicitly as the fused
// computation
//
//	dst = H22·x − H21·(H11⁻¹·(H12·x))
//
// without ever materializing S. A single owned temporary t (length n1)
// carries H12·x through the block back-substitution, and the trailing
// −H21·t lands directly in dst through the AddMulVec epilogue — no
// per-application allocations and one fewer full-vector pass than the
// unfused three-step formulation. It implements solver.Operator; each
// Workspace owns one, so concurrent solves never share a temporary.
type SchurOperator struct {
	e *Engine
	t []float64
}

// newSchurOperator builds a fused operator with its own temporary. The
// caller must have checked that the engine retains H22.
func (e *Engine) newSchurOperator() *SchurOperator {
	return &SchurOperator{e: e, t: make([]float64, e.ord.N1)}
}

// MulVec applies the fused operator.
func (s *SchurOperator) MulVec(dst, x []float64) {
	e := s.e
	e.h12.MulVec(s.t, x)
	e.h11LU.SolvePool(s.t, e.pool)
	e.h22.MulVec(dst, x)
	e.h21.AddMulVec(dst, -1, s.t)
}

// schurOperator returns the unpreconditioned operator iterative solves run
// on: the explicit sparsified S by default, or the workspace's fused
// implicit operator (and its temporary, reused across that workspace's
// solves) when the engine was built with Options.ImplicitSchur.
func (e *Engine) schurOperator(ws *Workspace) solver.Operator {
	if e.h22 == nil {
		return e.schur
	}
	if ws.schurOp == nil {
		ws.schurOp = e.newSchurOperator()
	}
	return ws.schurOp
}

// splitOperator returns the workspace's one-pass operator over the engine's
// DILU factors, or nil when the solve must stay left-preconditioned: the
// trick needs the iteration's operator to be the very matrix the factors
// share their off-diagonals with, which holds for the stored explicit S
// (also as the base of a Woodbury correction) and not for the fused
// implicit operator, whose factors may moreover be stale after a hub delta.
// BiCGSTAB stays left-preconditioned too: it fixes its shadow residual to
// the initial one, and the split system's b̂ = D·L̂⁻¹·q̃2 is as sparse as
// q̃2's lower closure (a single entry for a last-ordered hub seed), so
// r̂ᵀr hits structural exact zeros — ρ = 0 breakdowns that the dense M⁻¹·q̃2
// of the left-preconditioned form does not produce
// (TestBiCGSTABSolverMatchesExact trips on them).
func (e *Engine) splitOperator(ws *Workspace) *lu.Eisenstat {
	if e.ilu == nil || e.h22 != nil || e.opts.Solver == SolverBiCGSTAB {
		return nil
	}
	if ws.split == nil || ws.split.ILU() != e.ilu {
		ws.split = e.ilu.Eisenstat()
		ws.bhat = make([]float64, e.ord.N2)
		ws.iterate = make([]float64, e.ord.N2)
	}
	return ws.split
}

// schurApplyBytes approximates the bytes one Schur-operator application
// moves: the operand matrices (and LU factors, for the implicit form) at
// their stored width plus the input/output vector traffic.
func (e *Engine) schurApplyBytes() int64 {
	vecs := int64(16 * e.ord.N2)
	if e.h22 != nil {
		return e.h12.MemoryBytes() + e.h21.MemoryBytes() + e.h22.MemoryBytes() +
			e.h11LU.MemoryBytes() + vecs + int64(16*e.ord.N1)
	}
	return e.schur.MemoryBytes() + vecs
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

// timedPrecond reports a preconditioner sweep (M⁻¹, or one half-pass of a
// split solve) through the engine's kernel hook as KernelPrecond.
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
