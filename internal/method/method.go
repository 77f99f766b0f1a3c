// Package method wraps every RWR algorithm the paper evaluates behind one
// interface, so the benchmark harness can run them interchangeably:
//
//	BePI / BePI-S / BePI-B — the proposed method (package core)
//	Power                  — power iteration (iterative baseline)
//	GMRES                  — GMRES on the full system H r = c q (iterative)
//	LU                     — sparse-LU preprocessing (Fujiwara et al.)
//	Bear                   — block elimination with a dense Schur inverse
//	                         (Shin et al., the state-of-the-art competitor)
//
// Preprocessing baselines accept memory and deadline budgets; exceeding
// them surfaces as the paper's o.o.m. / o.o.t. outcomes.
package method

import (
	"errors"
	"time"

	"bepi/internal/core"
	"bepi/internal/graph"
)

// QueryInfo reports the cost of a single query.
type QueryInfo struct {
	Duration   time.Duration
	Iterations int
}

// Method is one RWR algorithm with an explicit preprocessing phase.
type Method interface {
	// Name is the display name used in tables ("BePI", "Bear", ...).
	Name() string
	// IsPreprocessing reports whether the method belongs to the
	// preprocessing family (stores precomputed matrices) rather than the
	// iterative family.
	IsPreprocessing() bool
	// Preprocess builds whatever the method needs to answer queries.
	Preprocess(g *graph.Graph) error
	// Query returns the RWR vector for a seed node (original ids).
	Query(seed int) ([]float64, QueryInfo, error)
	// PrepTime reports how long Preprocess took.
	PrepTime() time.Duration
	// MemoryBytes reports the footprint of the preprocessed data
	// (0 for purely iterative methods).
	MemoryBytes() int64
}

// Budget bounds a preprocessing run, mirroring the paper's experiment
// protocol (24-hour limit, machine memory limit).
type Budget struct {
	Memory   int64         // bytes; 0 = unlimited
	Deadline time.Duration // 0 = unlimited
}

// Config carries the shared RWR parameters.
type Config struct {
	C       float64 // restart probability (default core.DefaultC)
	Tol     float64 // solver tolerance ε (default core.DefaultTol)
	MaxIter int     // iteration cap (default 1000)
	// Parallelism caps preprocessing/kernel workers for methods that
	// support it (0 = shared GOMAXPROCS pool, 1 = serial).
	Parallelism int
	Budget      Budget
}

func (c Config) withDefaults() Config {
	if c.C <= 0 || c.C >= 1 {
		c.C = core.DefaultC
	}
	if c.Tol <= 0 {
		c.Tol = core.DefaultTol
	}
	if c.MaxIter <= 0 {
		c.MaxIter = 1000
	}
	return c
}

// Budget outcome errors, re-exported for callers that classify results.
var (
	ErrOutOfMemory = errors.New("method: out of memory budget")
	ErrOutOfTime   = errors.New("method: out of time budget")
)

// ErrNotPreprocessed is returned by Query before Preprocess has run.
var ErrNotPreprocessed = errors.New("method: Preprocess has not been run")

// BePI adapts core.Engine to the Method interface.
type BePI struct {
	cfg     Config
	variant core.Variant
	k       float64
	engine  *core.Engine
}

// NewBePI returns the full BePI method (ILU-preconditioned, sparsified S).
func NewBePI(cfg Config) *BePI {
	return &BePI{cfg: cfg.withDefaults(), variant: core.VariantFull, k: 0.2}
}

// NewBePIS returns the BePI-S variant.
func NewBePIS(cfg Config) *BePI {
	return &BePI{cfg: cfg.withDefaults(), variant: core.VariantS, k: 0.2}
}

// NewBePIB returns the BePI-B variant (paper hub ratio 0.001).
func NewBePIB(cfg Config) *BePI {
	return &BePI{cfg: cfg.withDefaults(), variant: core.VariantB, k: 0.001}
}

// SetHubRatio overrides the SlashBurn hub ratio before Preprocess.
func (b *BePI) SetHubRatio(k float64) { b.k = k }

// Name implements Method.
func (b *BePI) Name() string { return b.variant.String() }

// IsPreprocessing implements Method.
func (b *BePI) IsPreprocessing() bool { return true }

// Preprocess implements Method.
func (b *BePI) Preprocess(g *graph.Graph) error {
	e, err := core.Preprocess(g, core.Options{
		C:            b.cfg.C,
		Tol:          b.cfg.Tol,
		Variant:      b.variant,
		HubRatio:     b.k,
		MaxIter:      b.cfg.MaxIter,
		Parallelism:  b.cfg.Parallelism,
		MemoryBudget: b.cfg.Budget.Memory,
		Deadline:     b.cfg.Budget.Deadline,
	})
	if err != nil {
		return classify(err)
	}
	b.engine = e
	return nil
}

// Query implements Method.
func (b *BePI) Query(seed int) ([]float64, QueryInfo, error) {
	if b.engine == nil {
		return nil, QueryInfo{}, ErrNotPreprocessed
	}
	r, st, err := b.engine.Query(seed)
	return r, QueryInfo{Duration: st.Duration, Iterations: st.Iterations}, err
}

// PrepTime implements Method.
func (b *BePI) PrepTime() time.Duration {
	if b.engine == nil {
		return 0
	}
	return b.engine.PrepStats().Total
}

// MemoryBytes implements Method.
func (b *BePI) MemoryBytes() int64 {
	if b.engine == nil {
		return 0
	}
	return b.engine.MemoryBytes()
}

// classify maps budget errors from lower layers onto the method package's
// outcome errors so the harness can label bars o.o.m. / o.o.t.
func classify(err error) error {
	switch {
	case errors.Is(err, core.ErrMemoryBudget):
		return errors.Join(ErrOutOfMemory, err)
	case errors.Is(err, core.ErrDeadline):
		return errors.Join(ErrOutOfTime, err)
	default:
		return err
	}
}
