// Package bepi computes Random Walk with Restart (RWR) proximity scores on
// large directed graphs. It implements BePI (Jung, Park, Sael, Kang —
// SIGMOD 2017), a hybrid of preprocessing and iterative methods: a one-time
// preprocessing phase reorders the graph around its deadends and
// hub-and-spoke structure, factors the easy block-diagonal part exactly,
// and keeps only a sparse Schur complement that each query solves with
// ILU-preconditioned GMRES.
//
// Basic usage:
//
//	g, _ := bepi.NewGraph(4, []bepi.Edge{{0, 1}, {1, 2}, {2, 0}, {2, 3}})
//	eng, _ := bepi.New(g)
//	scores, _ := eng.Query(0)            // RWR scores w.r.t. node 0
//	top, _ := eng.TopK(0, 10)            // ten most related nodes
//
// The preprocessed index can be persisted with Engine.Save and reloaded
// with Load, so the (comparatively expensive) preprocessing phase runs only
// once per graph.
//
// Dynamic serves a graph that receives edge updates: it rebuilds the index
// in the background and reports every settled rebuild, with the new engine
// when it swapped one in, to its one OnRebuild hook — the hook the HTTP
// serving layer (cmd/bepi-serve) follows swaps with. Ranked, the entry of
// every ranking here, is also the row of the serving layer's JSON
// rankings, {"node": …, "score": …}.
package bepi

import (
	"fmt"
	"io"
	"time"

	"bepi/internal/core"
	"bepi/internal/gen"
	"bepi/internal/graph"
)

// Version identifies this build of the serving system; it is surfaced as
// the bepi_build_info gauge on every Prometheus exposition and carried on
// /metrics/snapshot payloads so a mixed-version fleet is visible at the
// coordinator. Bump it with behavior-visible releases.
const Version = "0.9.0"

// Edge is a directed edge from Src to Dst.
type Edge struct {
	Src, Dst int
}

// Graph is an immutable directed graph over nodes 0..N-1.
type Graph struct {
	inner *graph.Graph
}

// NewGraph builds a graph with n nodes from the given edges. Duplicate
// edges collapse; nodes without out-edges are deadends (handled natively by
// the solver). Node ids are held in 32 bits: more than 2³² − 1 nodes is an
// error.
func NewGraph(n int, edges []Edge) (*Graph, error) {
	es := make([]graph.Edge, len(edges))
	for i, e := range edges {
		es[i] = graph.Edge{Src: e.Src, Dst: e.Dst}
	}
	g, err := graph.New(n, es)
	if err != nil {
		return nil, err
	}
	return &Graph{inner: g}, nil
}

// ReadGraph parses a whitespace-separated "src dst" edge list ('#' and '%'
// lines are comments). The node count is the one a "# nodes=N" header line
// gives, as Graph.WriteEdgeList writes it, or else the largest id seen plus
// one. A node count the input's size cannot justify is refused with a
// *NodeCountError before anything is allocated for it.
func ReadGraph(r io.Reader) (*Graph, error) {
	g, err := graph.ReadEdgeList(r)
	if err != nil {
		return nil, err
	}
	return &Graph{inner: g}, nil
}

// NodeCountError is ReadGraph's refusal of an edge list whose node count
// its size cannot justify; Error states the bound.
type NodeCountError = graph.NodeCountError

// ReadGraphMatrixMarket parses a MatrixMarket coordinate stream as a
// directed graph (each stored entry (i, j) is the edge i→j).
func ReadGraphMatrixMarket(r io.Reader) (*Graph, error) {
	g, err := graph.ReadMatrixMarketGraph(r)
	if err != nil {
		return nil, err
	}
	return &Graph{inner: g}, nil
}

// WriteMatrixMarket writes the graph's adjacency pattern in MatrixMarket
// coordinate format.
func (g *Graph) WriteMatrixMarket(w io.Writer) error { return g.inner.WriteMatrixMarket(w) }

// RMAT generates a synthetic power-law graph with 2^scale nodes and about
// edgeFactor·2^scale edges — the structure (hubs, spokes, deadends) BePI is
// designed for. Deterministic in seed.
func RMAT(scale, edgeFactor int, seed int64) *Graph {
	return &Graph{inner: gen.RMAT(gen.DefaultRMAT(scale, edgeFactor, seed))}
}

// N returns the number of nodes.
func (g *Graph) N() int { return g.inner.N() }

// M returns the number of distinct directed edges.
func (g *Graph) M() int { return g.inner.M() }

// WriteEdgeList writes the graph as a "src dst" edge list.
func (g *Graph) WriteEdgeList(w io.Writer) error { return g.inner.WriteEdgeList(w) }

// Edges returns all edges in (src, dst) order.
func (g *Graph) Edges() []Edge {
	out := make([]Edge, 0, g.M())
	for u := range g.N() {
		for _, v := range g.inner.OutNeighbors(u) {
			out = append(out, Edge{Src: u, Dst: int(v)})
		}
	}
	return out
}

// HasEdge reports whether the directed edge (u, v) exists.
func (g *Graph) HasEdge(u, v int) bool { return g.inner.HasEdge(u, v) }

// OutDegree returns the number of out-edges of node u.
func (g *Graph) OutDegree(u int) int { return g.inner.OutDegree(u) }

// OutNeighbors returns the sorted out-neighbors of node u, copied out of
// the graph's 32-bit adjacency into a fresh slice. Loops over every node
// read the shared lists of Internal().OutNeighbors instead.
func (g *Graph) OutNeighbors(u int) []int {
	nbrs := g.inner.OutNeighbors(u)
	out := make([]int, len(nbrs))
	for i, v := range nbrs {
		out[i] = int(v)
	}
	return out
}

// Internal exposes the internal graph representation for the example and
// benchmark programs inside this module.
func (g *Graph) Internal() *graph.Graph { return g.inner }

// Variant selects the algorithm version; the default (full BePI) is right
// for almost all uses. The reduced variants exist for ablation studies.
type Variant = core.Variant

// Algorithm variants.
const (
	// BePIB disables both Schur sparsification and preconditioning.
	BePIB = core.VariantB
	// BePIS enables Schur sparsification only.
	BePIS = core.VariantS
	// BePIFull is the complete algorithm (default).
	BePIFull = core.VariantFull
)

// Option customizes engine construction.
type Option func(*core.Options)

// WithRestartProb sets the restart probability c ∈ (0, 1); default 0.05.
// Smaller c spreads scores further from the seed.
func WithRestartProb(c float64) Option {
	return func(o *core.Options) { o.C = c }
}

// WithTolerance sets the solver tolerance ε; default 1e-9.
func WithTolerance(tol float64) Option {
	return func(o *core.Options) { o.Tol = tol }
}

// WithVariant selects BePIB, BePIS or BePIFull (default BePIFull).
func WithVariant(v Variant) Option {
	return func(o *core.Options) { o.Variant = v }
}

// WithHubRatio overrides the SlashBurn hub selection ratio k ∈ (0, 1);
// defaults follow the paper (0.2, or 0.001 for BePIB). New returns an error
// for a k outside that range other than 0, which selects the default.
func WithHubRatio(k float64) Option {
	return func(o *core.Options) { o.HubRatio = k }
}

// WithMaxIterations bounds GMRES iterations per query; default 1000, values
// above 65536 are lowered to it.
func WithMaxIterations(n int) Option {
	return func(o *core.Options) { o.MaxIter = n }
}

// WithMemoryBudget aborts preprocessing if the index would exceed the given
// number of bytes.
func WithMemoryBudget(bytes int64) Option {
	return func(o *core.Options) { o.MemoryBudget = bytes }
}

// WithDeadline aborts preprocessing if it runs longer than d.
func WithDeadline(d time.Duration) Option {
	return func(o *core.Options) { o.Deadline = d }
}

// WithParallelism caps how many cores preprocessing and the query kernels
// use: 0 (default) shares a process-wide GOMAXPROCS-sized pool with every
// other engine, 1 forces serial execution, n > 1 gives the engine its own
// n-worker pool. Results are bit-identical at every setting.
func WithParallelism(n int) Option {
	return func(o *core.Options) { o.Parallelism = n }
}

// Engine is a preprocessed RWR index. It is safe for concurrent queries.
type Engine struct {
	inner *core.Engine
}

// New preprocesses the graph and returns a query-ready engine.
func New(g *Graph, opts ...Option) (*Engine, error) {
	if g == nil {
		return nil, fmt.Errorf("bepi: nil graph")
	}
	var o core.Options
	for _, opt := range opts {
		opt(&o)
	}
	e, err := core.Preprocess(g.inner, o)
	if err != nil {
		return nil, err
	}
	return &Engine{inner: e}, nil
}

// N returns the number of nodes the engine was built for.
func (e *Engine) N() int { return e.inner.N() }

// Query returns the RWR score vector for the seed node: scores[u] is the
// steady-state probability that a random surfer restarting at seed is at u.
func (e *Engine) Query(seed int) ([]float64, error) {
	r, _, err := e.inner.Query(seed)
	return r, err
}

// QueryStats reports the cost of one query alongside its result.
type QueryStats struct {
	Duration   time.Duration
	Iterations int // GMRES iterations on the Schur system
	Residual   float64
}

// QueryWithStats is Query plus solve statistics.
func (e *Engine) QueryWithStats(seed int) ([]float64, QueryStats, error) {
	r, st, err := e.inner.Query(seed)
	return r, QueryStats{Duration: st.Duration, Iterations: st.Iterations, Residual: st.Residual}, err
}

// Personalized computes Personalized PageRank for an arbitrary starting
// distribution q (length N; entries should sum to 1). RWR is the
// single-seed special case.
func (e *Engine) Personalized(q []float64) ([]float64, error) {
	r, _, err := e.inner.QueryVector(q)
	return r, err
}

// Ranked is a node with its RWR score.
type Ranked = core.Ranked

// TopK returns the k nodes most related to seed (descending score, seed
// excluded).
func (e *Engine) TopK(seed, k int) ([]Ranked, error) { return e.inner.TopK(seed, k) }

// TopKBounded is TopK with certified early termination: the Schur solve
// halts as soon as a calibrated score-error radius proves the k-th /
// (k+1)-th gap can no longer change which k nodes win. The returned SET
// is always identical to TopK's; earlyStopped reports whether the
// certificate fired (when false the solve ran to the engine tolerance and
// the result is bit-identical to TopK, order included). The first bounded
// call calibrates the radius with a few reference solves; services that
// care about first-query latency should issue a throwaway call at warmup.
func (e *Engine) TopKBounded(seed, k int) ([]Ranked, bool, error) {
	rs, st, err := e.inner.TopKBounded(seed, k)
	return rs, st.EarlyStopped, err
}

// MemoryBytes reports the footprint of the preprocessed index.
func (e *Engine) MemoryBytes() int64 { return e.inner.MemoryBytes() }

// SetParallelism re-points the engine at a compute pool for the given
// parallelism level (same semantics as WithParallelism). Indexes loaded
// with Load start on the shared pool; call this before serving queries —
// it must not race with them.
func (e *Engine) SetParallelism(n int) { e.inner.SetParallelism(n) }

// PreprocessTime reports how long preprocessing took.
func (e *Engine) PreprocessTime() time.Duration { return e.inner.PrepStats().Total }

// Save persists the preprocessed index.
func (e *Engine) Save(w io.Writer) error {
	_, err := e.inner.WriteTo(w)
	return err
}

// Load reloads an index written by Save.
func Load(r io.Reader) (*Engine, error) {
	inner, err := core.ReadEngine(r)
	if err != nil {
		return nil, err
	}
	return &Engine{inner: inner}, nil
}

// Internal exposes the core engine for the benchmark and example programs
// inside this module.
func (e *Engine) Internal() *core.Engine { return e.inner }
