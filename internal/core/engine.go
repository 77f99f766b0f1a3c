// Package core implements BePI itself: the preprocessing phase
// (Algorithms 1 and 3 of the paper — deadend + SlashBurn reordering, block
// partitioning of H, per-block LU of H11, Schur complement construction,
// and optional incomplete-LU preconditioner), and the query phase
// (Algorithms 2 and 4 — block elimination with an iterative Schur solve).
//
// The three published variants are exposed through Options.Variant:
//
//	VariantB    — block elimination + plain GMRES on S (BePI-B, §3.3)
//	VariantS    — + hub ratio chosen to sparsify S (BePI-S, §3.4)
//	VariantFull — + incomplete-LU-preconditioned GMRES (BePI, §3.5); the
//	              factors are DILU, applied in one pass (DESIGN.md §19)
package core

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"bepi/internal/graph"
	"bepi/internal/lu"
	"bepi/internal/par"
	"bepi/internal/reorder"
	"bepi/internal/sparse"
)

// Variant selects which of the paper's three algorithm versions to run.
type Variant int

const (
	// VariantFull is BePI, the complete algorithm: sparsified Schur
	// complement plus incomplete-LU preconditioning — DILU factors (ILU(0)
	// with only the pivots updated) where the paper uses ILU(0), so that a
	// preconditioned iteration is one pass over S's entries instead of
	// three (DESIGN.md §19). It is the zero value, so an unconfigured
	// Options runs full BePI.
	VariantFull Variant = iota
	// VariantB is BePI-B: block elimination with an unpreconditioned
	// iterative Schur solve and a small fixed hub ratio (paper uses 0.001).
	VariantB
	// VariantS is BePI-S: like BePI-B but with a hub ratio that sparsifies
	// the Schur complement (paper uses 0.2–0.3).
	VariantS
)

// String returns the paper's name for the variant.
func (v Variant) String() string {
	switch v {
	case VariantB:
		return "BePI-B"
	case VariantS:
		return "BePI-S"
	case VariantFull:
		return "BePI"
	default:
		return fmt.Sprintf("Variant(%d)", int(v))
	}
}

// DefaultC is the restart probability used throughout the paper's
// experiments.
const DefaultC = 0.05

// DefaultTol is the paper's error tolerance ε.
const DefaultTol = 1e-9

// Options configures preprocessing and querying.
type Options struct {
	// C is the restart probability (0 < C < 1); default 0.05.
	C float64
	// Tol is the iterative-solver tolerance ε; default 1e-9.
	Tol float64
	// Variant selects BePI-B, BePI-S or full BePI; default VariantFull.
	Variant Variant
	// HubRatio overrides the SlashBurn hub selection ratio k. Zero selects
	// the paper's defaults: 0.001 for BePI-B, 0.2 for BePI-S/BePI; any
	// other value outside (0, 1) is refused with an error.
	HubRatio float64
	// MaxIter bounds GMRES iterations per query; default 1000.
	MaxIter int
	// MemoryBudget, if positive, aborts preprocessing with
	// ErrMemoryBudget when the preprocessed data would exceed this many
	// bytes. Models the paper's out-of-memory outcomes.
	MemoryBudget int64
	// Deadline, if positive, aborts preprocessing with ErrDeadline once
	// exceeded. Models the paper's 24-hour preprocessing timeout.
	Deadline time.Duration
	// Parallelism caps how many cores preprocessing and the query kernels
	// use. Zero (default) shares the process-wide GOMAXPROCS-sized pool
	// with every other engine; 1 forces serial execution; n > 1 gives the
	// engine its own n-worker pool. Parallel and serial execution produce
	// bit-identical results.
	Parallelism int
}

// maxIterLimit is the largest per-query iteration budget an engine accepts:
// GMRES sizes its rotation and Hessenberg bookkeeping by the budget before
// the first iteration (72 B per iteration allowed), so the budget is an
// allocation per solve, and a stored index's header chooses it.
const maxIterLimit = 1 << 16

func (o Options) withDefaults() Options {
	if !(o.C > 0 && o.C < 1) {
		o.C = DefaultC
	}
	if !(o.Tol > 0 && o.Tol < 1) {
		o.Tol = DefaultTol
	}
	if o.HubRatio == 0 {
		if o.Variant == VariantB {
			o.HubRatio = 0.001
		} else {
			o.HubRatio = 0.2
		}
	}
	if o.MaxIter <= 0 {
		o.MaxIter = 1000
	}
	if o.MaxIter > maxIterLimit {
		o.MaxIter = maxIterLimit
	}
	return o
}

// validate reports option values no engine carries after withDefaults — the
// check on the option words of a stored index. The comparisons are written
// so that NaN fails them.
func (o Options) validate() error {
	switch {
	case !(o.C > 0 && o.C < 1):
		return fmt.Errorf("restart probability %v outside (0,1)", o.C)
	case !(o.Tol > 0 && o.Tol < 1):
		return fmt.Errorf("tolerance %v outside (0,1)", o.Tol)
	case o.Variant != VariantFull && o.Variant != VariantB && o.Variant != VariantS:
		return fmt.Errorf("unknown variant %d", int(o.Variant))
	case o.MaxIter <= 0 || o.MaxIter > maxIterLimit:
		return fmt.Errorf("iteration budget %d outside [1,%d]", o.MaxIter, maxIterLimit)
	}
	return reorder.CheckHubRatio(o.HubRatio)
}

// Errors reported by preprocessing budget guards.
var (
	ErrMemoryBudget = errors.New("core: preprocessed data exceeds memory budget")
	ErrDeadline     = errors.New("core: preprocessing deadline exceeded")
)

// PrepStats records where preprocessing time went and the sizes that
// determine query cost. The stages of a build (ApplyDelta reports its own
// counterparts):
//
//   - Reorder: deadends to the tail, SlashBurn on the rest;
//   - BuildH: H12, H21, H31 and H32 built from the graph as the patterns
//     the engine keeps, and their weights;
//   - FactorH11: H11's diagonal blocks filled dense from the graph and
//     LU-factored;
//   - Schur: S's columns, and their assembly into the DILU triangles L̂, Û;
//   - ILU: D_S and the DILU pivots, whatever the variant.
type PrepStats struct {
	Total      time.Duration
	Reorder    time.Duration
	BuildH     time.Duration
	FactorH11  time.Duration
	Schur      time.Duration
	ILU        time.Duration
	N, M       int
	N1, N2, N3 int
	Blocks     int
	SchurNNZ   int
	HubRatio   float64
	// Workers is the effective parallel worker count the engine's pool
	// admits (1 = serial).
	Workers int
}

// QueryStats records the cost of one RWR query.
type QueryStats struct {
	Duration   time.Duration
	Iterations int
	Residual   float64
	// Stages breaks Duration down by pipeline phase.
	Stages StageTimings
}

// StageTimings is the engine-side phase breakdown of one query: where the
// time between entering QueryVectorWS and returning the score vector went.
type StageTimings struct {
	// Permute covers scattering q into the reordered space and forming
	// t1 = c·q1.
	Permute time.Duration
	// Forward covers the H11 back-substitution, the H21 SpMV, and
	// assembling q̃2 (Algorithm 4, line 3).
	Forward time.Duration
	// Solve is the iterative solve of S·r2 = q̃2 (line 4).
	Solve time.Duration
	// Back covers r1/r3 reconstruction and the un-permute into original
	// node ids (lines 5-7).
	Back time.Duration
}

// Engine is a preprocessed BePI index able to answer RWR queries for any
// seed node. It is safe for concurrent queries (all query state is local).
//
// What it holds is the output of the paper's Algorithm 3 plus the node
// permutation: the LU factors of H11, S (with its incomplete factors), and
// H12, H21, H31, H32 as patterns beside one weight per non-deadend node.
// H22 is not kept — S replaces it — so an engine is the same state, byte
// for byte, whether Preprocess built it, ReadEngine loaded it or ApplyDelta
// patched it.
type Engine struct {
	opts Options
	n    int
	ord  nodeOrder

	// The four off-diagonal blocks of H are built from the graph as, and
	// served as, value-free patterns with compact indexes (ApplyDelta
	// splices its sources' rebuilt columns into them): every off-diagonal
	// entry of column j of H is the same number, −(1−c)/outdeg of the node
	// at j (BuildH), so hw holds it once per column, for the l = n1+n2
	// non-deadend nodes in new-id order — H21/H31 read hw[:n1], H12/H32
	// hw[n1:]. hw is canonical: 0 at a column none of the four blocks holds
	// an entry of (buildHBlocks sets both), so the weights are a function of
	// the graph and the ordering alone.
	h12, h21, h31, h32 *sparse.Pattern
	hw                 []float64
	// S is stored once, whatever the variant, as its DILU factors: S's own
	// triangles and diagonal plus the pivots (lu.ILU). The variant picks
	// only the operator a solve runs on them (runSchurSolve).
	h11LU *lu.BlockLU
	ilu   *lu.ILU

	// wsFree recycles Workspaces for the query entry points that are not
	// handed one (Query, QueryVector, TopKBounded, …), so a library caller's
	// steady state allocates little beyond the score vector it gets back.
	// It is a plain free list, not a sync.Pool: the runtime keeps every pool
	// that was ever Put to — and, through its workspaces' back-pointers, the
	// whole engine — reachable for two more GC cycles, and an update stream
	// that swaps engines every 100 ms then carried 30 MB of retired indexes
	// (update-stream peak_rss_mb +24%). A free list dies with its engine.
	wsMu   sync.Mutex
	wsFree []*Workspace

	pool *par.Pool // compute pool for kernels; nil means serial
	prep PrepStats

	// iterHook, when set, receives (iteration, residual) from inside every
	// iterative Schur solve — live convergence telemetry for the serving
	// layer. It must be safe for concurrent calls (solves run on many
	// workers) and cheap (it fires once per solver iteration).
	iterHook func(iter int, residual float64)

	// kernelHook, when set, receives one sample per hot-path kernel
	// application during iterative solves: the kernel name (KernelSchur,
	// KernelPrecond), its wall time, and the approximate bytes it moved.
	// Same contract as iterHook: concurrent-safe and cheap.
	kernelHook func(kernel string, seconds float64, bytes int64)

	// tk caches the calibrated ℓ∞ error-to-residual ratio the bounded
	// top-k certificate scales per-iteration residuals by. It is measured:
	// reference solves record the worst observed max-node score error per
	// unit of true Schur residual, and topkBoundSafety inflates it at check
	// time. Computed once per engine, under the Once: by CalibrateBound
	// before the engine serves, or else by its first bounded query.
	// tkDone is set once the Once has run, so BoundCalibrated can answer
	// without entering it.
	tkOnce   sync.Once
	tkDone   atomic.Bool
	tkFactor float64
	tkErr    error
}

// nodeOrder is the node ordering as an engine serves it: the permutation at
// 4 bytes per node (n < 2³², which graph.New and checkNodeCount hold) and
// the partition sizes. It holds no inverse — a query scatters its input and
// gathers its answer through perm alone, and the cold paths that walk new
// ids (preprocessing, ApplyDelta) invert it for the call — and no H11 block
// bounds: the block LU's are the one copy (lu.BlockLU.BlockRange).
type nodeOrder struct {
	perm       []uint32 // old id → new id
	n1, n2, n3 int      // spokes, hubs, deadends
}

// servedOrder narrows a reorder.Ordering to the form an engine holds.
func servedOrder(o *reorder.Ordering) nodeOrder {
	perm := make([]uint32, len(o.Perm))
	for u, p := range o.Perm {
		perm[u] = uint32(p)
	}
	return nodeOrder{perm: perm, n1: o.N1, n2: o.N2, n3: o.N3}
}

// inverse returns the new id → old id map of the permutation.
func (o nodeOrder) inverse() []uint32 {
	inv := make([]uint32, len(o.perm))
	for u, p := range o.perm {
		inv[p] = uint32(u)
	}
	return inv
}

// SetIterHook installs a per-iteration solver observer (nil removes it).
// Set it before serving queries; it must not race with in-flight solves.
func (e *Engine) SetIterHook(f func(iter int, residual float64)) { e.iterHook = f }

// SetKernelHook installs a per-kernel-application observer (nil removes
// it): each Schur-operator and preconditioner application during an
// iterative solve reports (kernel, seconds, bytes moved). Set it before
// serving queries; it must not race with in-flight solves.
func (e *Engine) SetKernelHook(f func(kernel string, seconds float64, bytes int64)) {
	e.kernelHook = f
}

// poolFor resolves the Parallelism option to a pool: 0 shares the
// process-wide pool, 1 is serial (nil pool), n > 1 is a dedicated n-worker
// pool.
func poolFor(parallelism int) *par.Pool {
	switch {
	case parallelism == 1:
		return nil
	case parallelism > 1:
		return par.NewPool(parallelism)
	default:
		return par.Shared()
	}
}

// attachPool points every stored matrix at the engine's pool so the
// query-path SpMVs row-partition across it (the triangular sweeps are
// serial); each matrix computes its row partition once, here.
func (e *Engine) attachPool() {
	for _, m := range []*sparse.Pattern{e.h12, e.h21, e.h31, e.h32} {
		m.SetPool(e.pool)
	}
	e.ilu.SetPool(e.pool)
	e.prep.Workers = e.pool.Workers()
}

// maxNodes bounds the indexes an engine can load: the serving layout holds
// row and column indexes and the permutation in 32 bits. A graph is bounded
// by the same 32 bits when it is built (graph.New).
const maxNodes = int64(1) << 32

func checkNodeCount(n int) error {
	if int64(n) >= maxNodes {
		return fmt.Errorf("core: %d nodes exceed the 32-bit index range of the serving layout", n)
	}
	return nil
}

// SetParallelism re-points the engine (and its matrices) at a pool for the
// given parallelism level, using the same resolution as
// Options.Parallelism. It is meant for right after loading a saved index;
// it must not race with in-flight queries.
func (e *Engine) SetParallelism(n int) {
	e.opts.Parallelism = n
	e.pool = poolFor(n)
	e.attachPool()
}

// Pool exposes the engine's compute pool (nil means serial).
func (e *Engine) Pool() *par.Pool { return e.pool }

// Preprocess runs Algorithm 1/3 on the graph and returns a query-ready
// engine.
func Preprocess(g *graph.Graph, opts Options) (*Engine, error) {
	start := time.Now()
	e, err := newEngine(g, opts)
	if err != nil {
		return nil, err
	}

	// 1. Node reordering: deadends to the tail, SlashBurn on the rest.
	t0 := time.Now()
	ord := reorder.HubAndSpokePool(g, e.opts.HubRatio, e.pool)
	e.prep.Reorder = time.Since(t0)
	if err := e.deadline(start); err != nil {
		return nil, err
	}
	return e.preprocessFrom(g, ord, start)
}

// PreprocessWithOrdering runs preprocessing stages 2–5 (H's blocks, the
// block LU of H11, S assembled into its served layout, the DILU pivots)
// under a caller-supplied node ordering, skipping the SlashBurn reordering
// stage entirely. It is the from-scratch reference for the delta-rebuild
// path: a spoke-only delta rebuild must be bit-identical to
// PreprocessWithOrdering of the updated graph under the reused ordering.
// The ordering must cover exactly g.N() nodes and pass its own validation.
func PreprocessWithOrdering(g *graph.Graph, opts Options, ord *reorder.Ordering) (*Engine, error) {
	if len(ord.Perm) != g.N() {
		return nil, fmt.Errorf("core: ordering covers %d nodes, graph has %d", len(ord.Perm), g.N())
	}
	if err := ord.Validate(); err != nil {
		return nil, fmt.Errorf("core: invalid ordering: %w", err)
	}
	start := time.Now()
	e, err := newEngine(g, opts)
	if err != nil {
		return nil, err
	}
	return e.preprocessFrom(g, ord, start)
}

// newEngine is the engine both entry points start from: defaulted options,
// the pool, the graph's sizes — and the refusal of a hub ratio a stored
// index could not carry, before any work is spent on it.
func newEngine(g *graph.Graph, opts Options) (*Engine, error) {
	opts = opts.withDefaults()
	if err := reorder.CheckHubRatio(opts.HubRatio); err != nil {
		return nil, err
	}
	e := &Engine{opts: opts, n: g.N(), pool: poolFor(opts.Parallelism)}
	e.prep.N, e.prep.M = g.N(), g.M()
	e.prep.HubRatio = opts.HubRatio
	e.prep.Workers = e.pool.Workers()
	return e, nil
}

// preprocessFrom runs stages 2–5 of preprocessing under the ordering ord,
// which the engine keeps as its nodeOrder and the block LU's bounds. start
// anchors the deadline budget and the Total stat.
func (e *Engine) preprocessFrom(g *graph.Graph, ord *reorder.Ordering, start time.Time) (*Engine, error) {
	e.prep.N1, e.prep.N2, e.prep.N3 = ord.N1, ord.N2, ord.N3
	e.prep.Blocks = len(ord.Blocks)
	in, err := e.buildSchur(g, ord, start)
	if err != nil {
		return nil, err
	}

	// 4. Schur complement S = H22 − H21·H11⁻¹·H12, columns in parallel,
	// assembled straight into S's two DILU triangles, whose pivots (step 5)
	// make them the factors.
	t0 := time.Now()
	tri, nnz, err := in.triangles(ord.N2, e.pool)
	if err != nil {
		return nil, fmt.Errorf("core: DILU of S: %w", err)
	}
	e.prep.SchurNNZ = nnz
	e.prep.Schur += time.Since(t0)
	// 5. The DILU pivots: D_S and the one O(nnz(S)) recurrence.
	t0 = time.Now()
	e.ilu = lu.FactorTriangles(tri)
	e.prep.ILU = time.Since(t0)
	if err := e.deadline(start); err != nil {
		return nil, err
	}
	e.prep.Total = time.Since(start)
	if e.opts.MemoryBudget > 0 && e.MemoryBytes() > e.opts.MemoryBudget {
		return nil, fmt.Errorf("preprocessed data needs %d bytes: %w", e.MemoryBytes(), ErrMemoryBudget)
	}
	e.attachPool()
	return e, nil
}

// buildSchur runs preprocessing's stages 2–4 under the ordering o, up to
// the inputs of S's columns, which it returns: 2. H's off-diagonal blocks,
// built from the graph as the patterns the engine keeps, and their weights,
// once per column (buildHBlocks); 3. the per-block LU of the block-diagonal
// H11, blocks in parallel, each filled dense from the graph (h11Fill); then
// the column views S's columns read (graphSchurInputs). It keeps what it
// builds, and the stage times, in e, and stops on e's deadline and, once
// H11 is factored, on its memory budget. preprocessFrom runs it, and so
// does SchurColumns, on an engine it discards.
func (e *Engine) buildSchur(g *graph.Graph, o *reorder.Ordering, start time.Time) (*schurInputs, error) {
	c := e.opts.C
	e.ord, e.hw = servedOrder(o), make([]float64, o.N1+o.N2)
	inv := e.ord.inverse()
	t0 := time.Now()
	e.h12, e.h21, e.h31, e.h32 = buildHBlocks(g, e.ord, inv, nil, e.pool, e.hw, c)
	e.prep.BuildH = time.Since(t0)
	if err := e.deadline(start); err != nil {
		return nil, err
	}
	t0 = time.Now()
	var err error
	if e.h11LU, err = lu.FactorBlocksPool(o.N1, o.Blocks, h11Fill(g, e.ord, inv, c), e.pool); err != nil {
		return nil, fmt.Errorf("core: factoring H11: %w", err)
	}
	e.prep.FactorH11 = time.Since(t0)
	if budget := e.opts.MemoryBudget; budget > 0 && e.h11LU.MemoryBytes() > budget {
		return nil, fmt.Errorf("H11 factors need %d bytes: %w", e.h11LU.MemoryBytes(), ErrMemoryBudget)
	}
	if err := e.deadline(start); err != nil {
		return nil, err
	}
	t0 = time.Now()
	in := graphSchurInputs(g, e.ord, inv, c, e.h11LU, e.h12, e.h21, e.hw, e.pool)
	e.prep.Schur = time.Since(t0)
	return in, nil
}

// deadline refuses a build that started at start and has run past the
// engine's Deadline option.
func (e *Engine) deadline(start time.Time) error {
	if e.opts.Deadline > 0 && time.Since(start) > e.opts.Deadline {
		return fmt.Errorf("after %v: %w", time.Since(start).Round(time.Millisecond), ErrDeadline)
	}
	return nil
}

// BuildH constructs the reordered system matrix H = P(I − (1−c)Ãᵀ)Pᵀ
// directly from the graph in O(n + m): entry (perm[v], perm[u]) receives
// −(1−c)/outdeg(u) for every edge (u, v), and the diagonal is 1 (a
// self-loop's weight is added to it). Rows are counted, then filled while
// the source nodes u are walked in increasing perm[u]: every row receives
// its columns in increasing order, so the CSR is born sorted and
// duplicate-free with no triplet list and no per-row sort.
func BuildH(g *graph.Graph, perm []int, c float64) *sparse.CSR {
	n := g.N()
	inv := make([]int, n) // new id -> old id
	for u := range inv {
		if perm == nil {
			inv[u] = u
		} else {
			inv[perm[u]] = u
		}
	}
	if perm == nil {
		perm = inv // the identity is its own inverse
	}
	rowPtr := make([]int, n+1)
	for u := 0; u < n; u++ {
		rowPtr[perm[u]+1]++ // the diagonal
		for _, v := range g.OutNeighbors(u) {
			if int(v) != u {
				rowPtr[perm[v]+1]++
			}
		}
	}
	for i := 0; i < n; i++ {
		rowPtr[i+1] += rowPtr[i]
	}
	col := make([]int, rowPtr[n])
	val := make([]float64, rowPtr[n])
	next := make([]int, n)
	copy(next, rowPtr[:n])
	for j, u := range inv {
		diag := next[j]
		next[j]++
		col[diag], val[diag] = j, 1
		if g.OutDegree(u) == 0 {
			continue
		}
		w := -(1 - c) / float64(g.OutDegree(u))
		for _, v := range g.OutNeighbors(u) {
			if int(v) == u {
				val[diag] += w
				continue
			}
			p := next[perm[v]]
			next[perm[v]]++
			col[p], val[p] = j, w
		}
	}
	return sparse.NewCSR(n, n, rowPtr, col, val)
}

// N returns the number of nodes the engine was built for.
func (e *Engine) N() int { return e.n }

// Options returns the (defaulted) options the engine was built with.
func (e *Engine) Options() Options { return e.opts }

// PrepStats returns preprocessing statistics.
func (e *Engine) PrepStats() PrepStats { return e.prep }

// Ordering returns the engine's node ordering as a reorder.Ordering: Perm,
// its inverse and the H11 block sizes, widened from the 32-bit permutation
// and the block LU's bounds — the one copy of each the engine holds. For
// experiments and tests; each call allocates 16 bytes per node.
func (e *Engine) Ordering() *reorder.Ordering {
	o := &reorder.Ordering{
		Perm: make([]int, e.n), Inv: make([]int, e.n),
		N1: e.ord.n1, N2: e.ord.n2, N3: e.ord.n3,
		Blocks: e.h11LU.BlockSizes(),
	}
	for u, p := range e.ord.perm {
		o.Perm[u], o.Inv[p] = int(p), u
	}
	return o
}

// Schur exposes the Schur complement as a wide copy on the engine's pool,
// bit for bit the S preprocessing computed (for experiments and the
// accuracy bound; each call copies S).
func (e *Engine) Schur() *sparse.CSR { return e.ilu.Matrix().SetPool(e.pool) }

// IndexPart is one part of an index's footprint, in bytes.
type IndexPart struct {
	Name  string
	Bytes int64
}

// IndexParts splits the footprint of the preprocessed data by what holds
// it, in the one order the split is reported in:
//
//   - "schur": the Schur complement, stored once, as its DILU factors — S's
//     two triangles, its diagonal and the pivots — whatever the variant;
//   - "h": the partition blocks H12/H21/H31/H32 (not H22 — S replaces it)
//     as patterns, 2 bytes per entry (4 in a block of more than 65 536
//     columns) and 4 per row pointer;
//   - "weights": the blocks' one 8-byte weight per non-deadend node;
//   - "blocklu": the H11 LU factors;
//   - "perm": the permutation, 4 bytes per node (no inverse is held).
//
// MemoryBytes is their sum.
func (e *Engine) IndexParts() []IndexPart {
	return []IndexPart{
		{"schur", e.ilu.MemoryBytes()},
		{"h", e.h12.MemoryBytes() + e.h21.MemoryBytes() + e.h31.MemoryBytes() + e.h32.MemoryBytes()},
		{"weights", int64(8 * len(e.hw))},
		{"blocklu", e.h11LU.MemoryBytes()},
		{"perm", int64(4 * len(e.ord.perm))},
	}
}

// MemoryBytes reports the total footprint of the preprocessed data, the sum
// of IndexParts. This is the quantity in Figure 1(b) of the paper, and the
// same number for an index whether it was built, loaded or patched.
func (e *Engine) MemoryBytes() int64 {
	var total int64
	for _, p := range e.IndexParts() {
		total += p.Bytes
	}
	return total
}

// Preconditioned reports whether the engine's solves are preconditioned by
// S's DILU factors — full BePI's — rather than plain GMRES on S.
func (e *Engine) Preconditioned() bool { return e.opts.Variant == VariantFull }

// ILU exposes the DILU factors of S, which every engine holds as its only
// copy of S whatever the variant, for the spectrum experiments: MulVec on
// them is S·x, and Apply the left preconditioner M⁻¹.
func (e *Engine) ILU() *lu.ILU { return e.ilu }
