package core

import (
	"errors"
	"fmt"
	"slices"
	"time"

	"bepi/internal/graph"
	"bepi/internal/lu"
	"bepi/internal/sparse"
)

// Incremental rebuilds. ApplyDelta turns an engine plus a small batch of
// edge updates into a new engine for the updated graph without re-running
// SlashBurn or the full factorization pipeline, exploiting the block
// structure the paper's reordering creates:
//
//   - An edge update changes column perm[u] of H, for its source u, and
//     nothing else. A spoke source's column lives inside u's H11 diagonal
//     block plus the H21/H31 columns below it; a hub source's in H12, H22
//     and H32, so exactly one column of S changes per hub source.
//   - Every part of the index that a source's column reaches is rebuilt by
//     the routine preprocessing runs, and spliced in: the column's entries
//     in H12/H21/H31/H32 by buildHBlocks over the sources' columns
//     (sparse.Pattern.Splice), with one new weight; the touched H11 blocks
//     by h11Fill, then LU-factored (lu.BlockLU.Refactor); and the affected
//     Schur columns by schurInputs.column, spliced into S's DILU triangles
//     (lu.ILU.SpliceColumns). The pivots are re-derived from the patched
//     S — the one O(nnz(S)) recurrence Preprocess runs — so every absorbed
//     delta, first or n-th in a chain, on a built or a loaded engine, is
//     bit-identical to PreprocessWithOrdering on the updated graph
//     (DESIGN.md §16, §20). Everything else is shared with the receiver.
//   - Anything that breaks the reused ordering's structure — a new node
//     with out-edges, a deadend gaining its first out-edge, a spoke edge
//     crossing H11 blocks — is refused with ErrDeltaFull.
//
// Pure node growth appends the new (necessarily deadend) nodes to the
// ordering's tail, where they are H31/H32's new rows.

// EdgeDelta is one buffered graph update: insert or delete the edge
// Src → Dst.
type EdgeDelta struct {
	Src, Dst int
	Insert   bool
}

// DeltaClass summarizes how ApplyDelta absorbed (or refused) a delta.
type DeltaClass int

const (
	// DeltaSpoke: every op had a spoke source (or the delta was pure node
	// growth).
	DeltaSpoke DeltaClass = iota
	// DeltaHub: at least one op had a hub source. A reported class only —
	// both classes take the same exact path.
	DeltaHub
	// DeltaFull: the delta cannot reuse the ordering; callers must run a
	// full rebuild.
	DeltaFull
)

// String names the class the way RebuildStatus.Mode reports it.
func (c DeltaClass) String() string {
	switch c {
	case DeltaSpoke:
		return "delta-spoke"
	case DeltaHub:
		return "delta-hub"
	default:
		return "full"
	}
}

// ErrDeltaFull is what ApplyDelta refuses with: run a full rebuild instead.
var ErrDeltaFull = errors.New("core: delta requires a full rebuild")

// DeltaStats describes one ApplyDelta application.
type DeltaStats struct {
	Class           DeltaClass
	Ops             int
	NewNodes        int
	TouchedBlocks   int // H11 diagonal blocks re-factored
	AffectedColumns int // Schur columns recomputed
	Duration        time.Duration
}

// colEntry is one stored entry of a matrix column, in ascending-row order
// within a column slice.
type colEntry struct {
	row int
	val float64
}

// ApplyDelta builds a new engine for gNew — the updated graph — from the
// receiver plus the edge updates that turned the receiver's graph into
// gNew. The receiver is not modified and keeps serving; the returned engine
// shares every H pattern no source spans with it, keeps the weights of
// every other node and the factors of every untouched H11 block, and
// shares the H11 factors outright when no block is touched. Each source of ops has its
// column of H re-read from gNew and takes the weight of its new out-degree.
// Where the receiver came from — a build, a file, an earlier ApplyDelta —
// changes nothing about the result: not its bits, not its MemoryBytes(),
// not the work done here.
//
// Preconditions: gNew.N() ≥ e.N(); ops names every node whose out-edges
// changed, since only the ops' sources are re-read (an insert for an edge
// gNew lacks, or a delete for one it has, is refused); nodes beyond e.N()
// are new and must have no out-edges. ErrDeltaFull means the delta cannot
// be absorbed incrementally — run a full Preprocess instead. Any other
// error likewise leaves the receiver untouched.
func (e *Engine) ApplyDelta(gNew *graph.Graph, ops []EdgeDelta) (*Engine, DeltaStats, error) {
	start := time.Now()
	st := DeltaStats{Class: DeltaFull, Ops: len(ops)}
	if gNew.N() < e.n {
		return nil, st, fmt.Errorf("graph shrank %d → %d: %w", e.n, gNew.N(), ErrDeltaFull)
	}
	if err := checkNodeCount(gNew.N()); err != nil {
		return nil, st, fmt.Errorf("%v: %w", err, ErrDeltaFull)
	}
	growth := gNew.N() - e.n
	st.NewNodes = growth

	// Extend the ordering over the new nodes: appended at the tail of the
	// deadend region in id order, exactly where HubAndSpoke would place
	// out-edge-free nodes that sort after every existing deadend.
	ord := e.ord
	if growth > 0 {
		perm := make([]uint32, gNew.N())
		copy(perm, e.ord.perm)
		for i := e.n; i < gNew.N(); i++ {
			perm[i] = uint32(i)
		}
		ord = nodeOrder{perm: perm, n1: e.ord.n1, n2: e.ord.n2, n3: e.ord.n3 + growth}
	}
	n1, n2 := ord.n1, ord.n2
	l := n1 + n2

	// Classify. Sources must be pre-existing non-deadend nodes; spoke
	// sources may not reach spokes outside their own H11 block.
	srcs := make(map[int]bool)
	hub := false
	for _, op := range ops {
		if op.Src < 0 || op.Src >= gNew.N() || op.Dst < 0 || op.Dst >= gNew.N() {
			return nil, st, fmt.Errorf("op %d→%d out of range: %w", op.Src, op.Dst, ErrDeltaFull)
		}
		if op.Insert != gNew.HasEdge(op.Src, op.Dst) {
			return nil, st, fmt.Errorf("op %d→%d (insert=%v) inconsistent with updated graph: %w",
				op.Src, op.Dst, op.Insert, ErrDeltaFull)
		}
		if op.Src >= e.n {
			return nil, st, fmt.Errorf("new node %d has out-edges: %w", op.Src, ErrDeltaFull)
		}
		pu := int(ord.perm[op.Src])
		if pu >= l {
			return nil, st, fmt.Errorf("deadend node %d gains an out-edge: %w", op.Src, ErrDeltaFull)
		}
		if pu >= n1 {
			hub = true
		}
		srcs[op.Src] = true
	}

	// Sources in ascending id, so a refusal names the smallest crossing
	// source whatever the map's order.
	sorted := make([]int, 0, len(srcs))
	for u := range srcs {
		sorted = append(sorted, u)
	}
	slices.Sort(sorted)
	var touched []int // H11 blocks the spoke sources span, ascending
	for _, u := range sorted {
		pu := int(ord.perm[u])
		if pu >= n1 {
			continue
		}
		b := e.h11LU.BlockOf(pu)
		lo, hi := e.h11LU.BlockRange(b)
		for _, v := range gNew.OutNeighbors(u) {
			if pv := int(ord.perm[v]); pv < n1 && (pv < lo || pv >= hi) {
				return nil, st, fmt.Errorf("edge %d→%d crosses H11 blocks: %w", u, v, ErrDeltaFull)
			}
		}
		touched = append(touched, b)
	}
	slices.Sort(touched)
	touched = slices.Compact(touched)
	st.TouchedBlocks = len(touched)
	if hub {
		st.Class = DeltaHub
	} else {
		st.Class = DeltaSpoke
	}

	// The blocks and columns rebuilt below are walked in new ids; the engine
	// holds no inverse permutation, so the delta inverts it once.
	inv := ord.inverse()

	// H's blocks: each source's column is rebuilt from gNew by the build's
	// own routine (buildHBlocks over the sources' columns) and spliced into
	// the stored patterns in place of the old one — a spoke's into H21 and
	// H31, a hub's into H12 and H32 — and takes the weight of its new
	// out-degree. H11's part of a spoke column is refilled with its block
	// below; H22's part of a hub column is not stored — S replaced it, and
	// the hub's S column takes it from gNew. A block no source spans, and
	// whose rows did not grow, is shared with the serving engine.
	c := e.opts.C
	tPatch := time.Now()
	hw := slices.Clone(e.hw)
	cols := make([]int, 0, len(sorted))
	spokeCols, hubCols := make([]bool, n1), make([]bool, n2)
	for _, u := range sorted {
		pu := int(ord.perm[u])
		cols = append(cols, pu)
		hw[pu] = ord.hWeight(gNew, c, u)
		if pu < n1 {
			spokeCols[pu] = true
		} else {
			hubCols[pu-n1] = true
		}
	}
	slices.Sort(cols)
	nw12, nw21, nw31, nw32 := buildHBlocks(gNew, ord, inv, cols)
	splice := func(old, nw *sparse.Pattern, replaced []bool, spanned bool) *sparse.Pattern {
		if !spanned && nw.Rows() == old.Rows() {
			return old
		}
		return old.Splice(nw, replaced).SetPool(e.pool)
	}
	spoke := len(touched) > 0
	h12New := splice(e.h12, nw12, hubCols, hub)
	h21New := splice(e.h21, nw21, spokeCols, spoke)
	h31New := splice(e.h31, nw31, spokeCols, spoke)
	h32New := splice(e.h32, nw32, hubCols, hub)
	patchDur := time.Since(tPatch)

	// Partial H11 refactorization: the touched diagonal blocks are refilled
	// from gNew by the fill preprocessing factors every block through
	// (h11Fill) and LU-factored, in a copy of the factor array; a delta
	// that touches no block shares the whole factorization. The
	// classification above refused every spoke edge that leaves its block,
	// so a failure here is numerical.
	tFactor := time.Now()
	h11LUNew, err := e.h11LU.Refactor(touched, h11Fill(gNew, ord, inv, c))
	if err != nil {
		return nil, st, fmt.Errorf("core: refactoring touched H11 blocks: %w", err)
	}
	factorDur := time.Since(tFactor)

	// Affected Schur columns: every hub source's own column, plus every
	// column whose H12 support reaches a touched H11 block (those columns'
	// back-substitutions — and the H21 columns they gather through — run
	// through refactored blocks).
	affected := slices.Clone(hubCols)
	for _, b := range touched {
		lo, hi := e.h11LU.BlockRange(b)
		h12New.MarkColumns(lo, hi, affected)
	}
	var schurCols []int
	for j, a := range affected {
		if a {
			schurCols = append(schurCols, j)
		}
	}
	st.AffectedColumns = len(schurCols)

	// Recompute each affected S column with the full build's column routine
	// (schurInputs.column) against the patched blocks and gNew, splice the
	// columns into S's triangles and re-derive the pivots, as Preprocess does.
	ilu := e.ilu
	var schurDur, iluDur time.Duration
	if len(schurCols) > 0 {
		tSchur := time.Now()
		in := graphSchurInputs(gNew, ord, inv, c, h11LUNew, h12New, h21New, hw)
		w := newSchurScratch(n2, h11LUNew)
		var rows []uint32
		var vals []float64
		end := make([]int, len(schurCols))
		for k, j := range schurCols {
			in.column(w, j)
			for _, i := range w.touched {
				rows = append(rows, uint32(i))
				vals = append(vals, w.acc[i])
			}
			end[k] = len(rows)
		}
		tri, err := e.ilu.SpliceColumns(func(emit func(j int, rows []uint32, vals []float64)) {
			start := 0
			for k, j := range schurCols {
				emit(j, rows[start:end[k]], vals[start:end[k]])
				start = end[k]
			}
		})
		if err != nil {
			return nil, st, fmt.Errorf("core: splicing S's patched columns: %w", err)
		}
		schurDur = time.Since(tSchur)
		tILU := time.Now()
		ilu = lu.FactorTriangles(tri).SetPool(e.pool)
		iluDur = time.Since(tILU)
	}

	ne := &Engine{
		opts: e.opts, n: gNew.N(), ord: ord,
		h12: h12New, h21: h21New, h31: h31New, h32: h32New, hw: hw,
		h11LU: h11LUNew, ilu: ilu,
		pool: e.pool, prep: e.prep,
	}
	ne.prep.N, ne.prep.M, ne.prep.N3 = gNew.N(), gNew.M(), ord.n3
	ne.prep.Reorder = 0
	ne.prep.BuildH = patchDur
	ne.prep.FactorH11 = factorDur
	ne.prep.Schur = schurDur
	ne.prep.ILU = iluDur
	ne.prep.SchurNNZ = ilu.NNZ()
	ne.prep.Total = time.Since(start)
	st.Duration = ne.prep.Total
	return ne, st, nil
}
