package core

import (
	"errors"
	"fmt"
	"slices"
	"sort"
	"time"

	"bepi/internal/dense"
	"bepi/internal/graph"
	"bepi/internal/lu"
	"bepi/internal/sparse"
)

// Incremental rebuilds. ApplyDelta turns an engine plus a small batch of
// edge updates into a new engine for the updated graph without re-running
// SlashBurn or the full factorization pipeline, exploiting the block
// structure the paper's reordering creates:
//
//   - An edge update with a spoke source u rescales column perm[u] of H,
//     which lives entirely inside u's H11 diagonal block plus the H21/H31
//     columns below it — for those two, one weight and the inserted or
//     deleted entries. Only that block's LU factors and the Schur columns
//     fed by the block change; everything else is reused byte-for-byte.
//   - An edge update with a hub source u rescales column perm[u]−n1 of
//     H12/H22/H32, so exactly one column of S changes per hub source.
//   - Either way the changed Schur columns are recomputed by the column
//     routine preprocessing runs (schurInputs.column: the cross term merged
//     with the H22 column read off the updated graph) and spliced into S's
//     DILU triangles in place of the old ones (lu.ILU.SpliceColumns), and
//     the pivots are re-derived from the patched S — the one O(nnz(S))
//     recurrence Preprocess runs — so every absorbed delta, first
//     or n-th in a chain, on a built or a loaded engine, is bit-identical to
//     PreprocessWithOrdering on the updated graph (DESIGN.md §16, §20).
//   - Anything that breaks the reused ordering's structure — a new node
//     with out-edges, a deadend gaining its first out-edge, a spoke edge
//     crossing H11 blocks — is refused with ErrDeltaFull.
//
// Pure node growth appends the new (necessarily deadend) nodes to the
// ordering's tail and pads H31/H32 with empty rows.

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

// srcDelta groups a delta's ops by source node.
type srcDelta struct {
	ins, del []int
}

// ApplyDelta builds a new engine for gNew — the updated graph — from the
// receiver plus the edge updates that turned the receiver's graph into
// gNew. The receiver is not modified and keeps serving; the returned engine
// shares every untouched H pattern, matrix and LU factor with it and holds
// its own copy of the H weights, in which each source of ops has taken the
// weight of its new out-degree. Where the receiver came from — a build, a
// file, an earlier ApplyDelta — changes nothing about the result: not its
// bits, not its MemoryBytes(), not the work done here.
//
// Preconditions: gNew.N() ≥ e.N(); ops lists every change, since the H
// patterns are patched from the ops alone (an insert for an edge gNew
// lacks, or a delete for one it has, is refused); nodes beyond e.N() are
// new and must have no out-edges. ErrDeltaFull means the
// delta cannot be absorbed incrementally — run a full Preprocess instead.
// Any other error likewise leaves the receiver untouched.
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

	// Group and classify. Sources must be pre-existing non-deadend nodes;
	// spoke sources may not reach spokes outside their own H11 block.
	srcs := make(map[int]*srcDelta)
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
		d := srcs[op.Src]
		if d == nil {
			d = &srcDelta{}
			srcs[op.Src] = d
		}
		if op.Insert {
			d.ins = append(d.ins, op.Dst)
		} else {
			d.del = append(d.del, op.Dst)
		}
	}

	// Sources in ascending id, so a refusal names the smallest crossing
	// source whatever the map's order.
	sorted := make([]int, 0, len(srcs))
	for u := range srcs {
		sorted = append(sorted, u)
	}
	slices.Sort(sorted)
	touched := make(map[int]bool)
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
		touched[b] = true
	}
	st.TouchedBlocks = len(touched)
	if hub {
		st.Class = DeltaHub
	} else {
		st.Class = DeltaSpoke
	}

	// Translate the ops into structural edits on the stored blocks: an
	// inserted edge adds an entry, a deleted one removes it. The values are
	// the weights': a source's out-degree changed, so its column takes a new
	// weight — one number, not a rewrite of every entry of the column. Two
	// blocks are skipped: H11, whose touched blocks are rebuilt dense from
	// gNew below, and H22, which no engine stores — S replaced it, and an
	// affected S column takes its H22 part from gNew.
	c := e.opts.C
	var h21E, h31E, h12E, h32E []sparse.Edit
	hubCols := make(map[int]bool)
	hw := slices.Clone(e.hw)
	for u, d := range srcs {
		pu := int(ord.perm[u])
		route := func(pv int, del bool) {
			switch {
			case pu < n1: // spoke column
				switch {
				case pv < n1: // inside the rebuilt H11 block
				case pv < l:
					h21E = append(h21E, sparse.Edit{Row: pv - n1, Col: pu, Delete: del})
				default:
					h31E = append(h31E, sparse.Edit{Row: pv - l, Col: pu, Delete: del})
				}
			default: // hub column j = pu-n1
				j := pu - n1
				switch {
				case pv < n1:
					h12E = append(h12E, sparse.Edit{Row: pv, Col: j, Delete: del})
				case pv < l: // an H22 entry: not stored, see h22Column
				default:
					h32E = append(h32E, sparse.Edit{Row: pv - l, Col: j, Delete: del})
				}
			}
		}
		for _, v := range d.del {
			route(int(ord.perm[v]), true)
		}
		for _, v := range d.ins {
			route(int(ord.perm[v]), false)
		}
		hw[pu] = ord.hWeight(gNew, c, u)
		if pu >= n1 {
			hubCols[pu-n1] = true
		}
	}

	// Copy-on-write patches. Only patterns with edits (or appended rows) are
	// rebuilt — widened, patched with the surgery the wide layout has,
	// narrowed again, on the engine's pool; the rest are shared with the
	// serving engine, untouched.
	tPatch := time.Now()
	patch := func(m *sparse.Pattern, w []float64, appendRows int, edits []sparse.Edit) *sparse.Pattern {
		if appendRows == 0 && len(edits) == 0 {
			return m
		}
		wide := m.Expand(w)
		if appendRows > 0 {
			wide = wide.WithRowsAppended(appendRows)
		}
		return sparse.PatternOf(wide.WithEdits(edits)).SetPool(e.pool)
	}
	wSpoke, wHub := hw[:n1], hw[n1:]
	h12New := patch(e.h12, wHub, 0, h12E)
	h21New := patch(e.h21, wSpoke, 0, h21E)
	h31New := patch(e.h31, wSpoke, growth, h31E)
	h32New := patch(e.h32, wHub, growth, h32E)
	patchDur := time.Since(tPatch)

	// The blocks and columns rebuilt below are walked in new ids; the engine
	// holds no inverse permutation, so the delta inverts it once.
	inv := ord.inverse()

	// Partial H11 refactorization: rebuild the touched diagonal blocks
	// dense from gNew, the way preprocessing fills every block (h11Block),
	// and LU-factor only those.
	tFactor := time.Now()
	h11LUNew := e.h11LU
	if len(touched) > 0 {
		raw := make(map[int]*dense.Matrix, len(touched))
		for b := range touched {
			lo, hi := e.h11LU.BlockRange(b)
			blk := dense.New(hi-lo, hi-lo)
			if err := h11Block(gNew, ord, inv, c, b, lo, blk); err != nil {
				return nil, st, fmt.Errorf("%v: %w", err, ErrDeltaFull)
			}
			raw[b] = blk
		}
		var err error
		h11LUNew, err = e.h11LU.RefactorBlocks(raw)
		if err != nil {
			return nil, st, fmt.Errorf("core: refactoring touched H11 blocks: %w", err)
		}
	}
	factorDur := time.Since(tFactor)

	// Affected Schur columns: every hub source's own column, plus every
	// column whose H12 support reaches a touched H11 block (those columns'
	// back-substitutions — and the H21 columns they gather through — run
	// through refactored blocks).
	affected := make(map[int]bool, len(hubCols))
	for j := range hubCols {
		affected[j] = true
	}
	h12W := h12New.Expand(wHub)
	for b := range touched {
		lo, hi := e.h11LU.BlockRange(b)
		for i := lo; i < hi; i++ {
			s, en := h12W.RowRange(i)
			for p := s; p < en; p++ {
				affected[h12W.ColIdx()[p]] = true
			}
		}
	}
	cols := make([]int, 0, len(affected))
	for j := range affected {
		cols = append(cols, j)
	}
	sort.Ints(cols)
	st.AffectedColumns = len(cols)

	// Recompute each affected S column with the full build's column routine
	// (schurInputs.column) against the patched blocks and gNew, splice the
	// columns into S's triangles and re-derive the pivots, as Preprocess does.
	ilu := e.ilu
	var schurDur, iluDur time.Duration
	if len(cols) > 0 {
		tSchur := time.Now()
		in := graphSchurInputs(gNew, ord, inv, c, h11LUNew, h12New, h21New, hw)
		w := newSchurScratch(n2, h11LUNew)
		var rows []uint32
		var vals []float64
		end := make([]int, len(cols))
		for k, j := range cols {
			in.column(w, j)
			for _, i := range w.touched {
				rows = append(rows, uint32(i))
				vals = append(vals, w.acc[i])
			}
			end[k] = len(rows)
		}
		tri, err := e.ilu.SpliceColumns(func(emit func(j int, rows []uint32, vals []float64)) {
			start := 0
			for k, j := range cols {
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
