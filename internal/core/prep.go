package core

import (
	"fmt"
	"time"

	"bepi/internal/dense"
	"bepi/internal/graph"
	"bepi/internal/lu"
	"bepi/internal/par"
	"bepi/internal/reorder"
	"bepi/internal/sparse"
)

// Preprocessing never forms the reordered H. What it keeps or consumes of H
// is built straight from the graph, in the layout it is used in:
//
//   - H11's diagonal blocks, dense, by the block LU that factors them
//     (h11Fill);
//   - H12, H21, H31 and H32 as the patterns an engine keeps (buildHBlocks),
//     and the column views of H12 and H21 the Schur columns read
//     (sparse.Pattern.ExpandT);
//   - H22 one column at a time, inside the column of S that replaces it
//     (h22Column).
//
// Each holds BuildH's values: −(1−c)/outdeg(u) in the column of node u's
// new id, 1 on the diagonal, and a self-loop's weight added to that 1.

// buildHBlocks builds H12, H21, H31 and H32 of the reordered H from the
// graph by one counting sort (sparse.PatternBuilder) on the pool: the
// columns are cut into contiguous ranges balanced by out-degree, each
// range's worker counts its columns' entries per block row, and after the
// prefix each worker puts its entries walking its columns in ascending new
// id, so every row is born sorted — the same at any worker count — and
// every column array is allocated once, at its served width. With cols nil
// it covers every non-deadend column — the build. Otherwise it covers only
// the new ids cols lists, in ascending order, and the four blocks hold
// those columns' entries alone (ApplyDelta splices them into the stored
// patterns). It is the one code that places an entry of H in the four
// blocks. inv is the new id → old id map of ord. With hw not nil it also
// sets the stored weight hw[j] of every column j it covers, for restart
// probability c: the value BuildH writes into every off-diagonal entry of
// the column, −(1−c)/outdeg of its node, when the column places an entry
// in one of the four blocks, and 0 when every entry falls in H11 or H22,
// which the engine does not store as values. The build and ApplyDelta both
// take their weights from here. A nil pool runs serially.
func buildHBlocks(g *graph.Graph, ord nodeOrder, inv []uint32, cols []int, pool *par.Pool, hw []float64, c float64) (h12, h21, h31, h32 *sparse.Pattern) {
	n1, l := ord.n1, ord.n1+ord.n2
	items := l // the columns covered: x-th is x, or cols[x]
	if cols != nil {
		items = len(cols)
	}
	colAt := func(x int) int {
		if cols == nil {
			return x
		}
		return cols[x]
	}
	// A column costs about as much as columnCost of its entries: its own
	// lookups, and the low-degree spokes' columns are most of them.
	const columnCost = 8
	bounds := []int{0, items}
	if pool.Workers() > 1 && items >= 2 {
		bounds = par.BoundsByWeight(items, pool.Workers(), func(x int) int { return g.OutDegree(int(inv[colAt(x)])) + columnCost })
	}
	parts := len(bounds) - 1
	b12 := sparse.NewPatternBuilder(n1, ord.n2, parts)
	b21 := sparse.NewPatternBuilder(ord.n2, n1, parts)
	b31 := sparse.NewPatternBuilder(ord.n3, n1, parts)
	b32 := sparse.NewPatternBuilder(ord.n3, ord.n2, parts)
	builders := []*sparse.PatternBuilder{b12, b21, b31, b32}
	// pass counts, or puts, the entries of part's columns [lo, hi) that
	// fall in the four blocks, as (block, row, column) within the block.
	pass := func(put bool) func(part, lo, hi int) {
		return func(part, lo, hi int) {
			for x := lo; x < hi; x++ {
				j := colAt(x)
				u := int(inv[j])
				placed := false
				for _, v := range g.OutNeighbors(u) {
					var b *sparse.PatternBuilder
					var row, col int
					switch pv := int(ord.perm[v]); {
					case j < n1 && pv >= l:
						b, row, col = b31, pv-l, j
					case j < n1 && pv >= n1:
						b, row, col = b21, pv-n1, j
					case j < n1: // H11: the block LU fills it
						continue
					case pv >= l:
						b, row, col = b32, pv-l, j-n1
					case pv < n1:
						b, row, col = b12, pv, j-n1
					default: // H22: S's columns read it
						continue
					}
					if put {
						b.Put(part, row, col)
					} else {
						b.Count(part, row)
						placed = true
					}
				}
				if hw != nil && !put {
					hw[j] = 0
					if placed {
						hw[j] = -(1 - c) / float64(g.OutDegree(u))
					}
				}
			}
		}
	}
	pool.ForBounds(bounds, pass(false))
	for _, b := range builders {
		b.Alloc()
	}
	pool.ForBounds(bounds, pass(true))
	var p [4]*sparse.Pattern
	pool.Each(len(builders), func(i int) { p[i] = builders[i].Pattern() })
	return p[0], p[1], p[2], p[3]
}

// h11Fill returns the fill (lu.FactorBlocksPool's contract) that writes
// block b of the reordered H11 — rows and columns [lo, lo+blk.R) — into the
// zeroed dense blk, straight from g: each column's weight at the row of
// every out-neighbor, then 1 on the diagonal. A cell sums at most two
// terms, a self-loop's weight and the 1, and those sum to BuildH's bits in
// either order. An out-neighbor among the spokes outside the block is an
// entry the block-diagonal H11 cannot hold, and is refused. Preprocessing
// factors every block through it, ApplyDelta refactors the ones a delta
// touches.
func h11Fill(g *graph.Graph, ord nodeOrder, inv []uint32, c float64) func(b, lo int, blk *dense.Matrix) error {
	return func(b, lo int, blk *dense.Matrix) error {
		hi := lo + blk.R
		for col := lo; col < hi; col++ {
			u := int(inv[col])
			if deg := g.OutDegree(u); deg > 0 {
				w := -(1 - c) / float64(deg)
				for _, v := range g.OutNeighbors(u) {
					switch pv := int(ord.perm[v]); {
					case pv >= lo && pv < hi:
						blk.Set(pv-lo, col-lo, blk.At(pv-lo, col-lo)+w)
					case pv < ord.n1:
						return fmt.Errorf("core: H11 entry (%d,%d) outside block %d [%d,%d)", pv, col, b, lo, hi)
					}
				}
			}
			blk.Set(col-lo, col-lo, blk.At(col-lo, col-lo)+1)
		}
		return nil
	}
}

// h22Column appends column j of the reordered H22 to col, read off the
// graph: the weight of the hub u owning the column at the row of every hub
// out-neighbor other than u, then the diagonal — 1, plus the weight when u
// has a self-loop, summed 1 + w as BuildH sums it. Each row appears once.
func h22Column(g *graph.Graph, ord nodeOrder, c float64, j, u int, col []colEntry) []colEntry {
	n1, l := uint32(ord.n1), uint32(ord.n1+ord.n2)
	diag := 1.0
	if deg := g.OutDegree(u); deg > 0 {
		w := -(1 - c) / float64(deg)
		for _, v := range g.OutNeighbors(u) {
			if int(v) == u {
				diag += w
			} else if pv := ord.perm[v]; pv >= n1 && pv < l {
				col = append(col, colEntry{int(pv - n1), w})
			}
		}
	}
	return append(col, colEntry{j, diag})
}

// graphSchurInputs is what an engine's columns of S are computed from: its
// H11 factors, the column views of its H21 and H12 patterns under the
// weights hw, the two built side by side on the pool, and H22's columns
// read off the graph by h22Column.
func graphSchurInputs(g *graph.Graph, ord nodeOrder, inv []uint32, c float64, h11LU *lu.BlockLU, h12, h21 *sparse.Pattern, hw []float64, pool *par.Pool) *schurInputs {
	in := &schurInputs{
		h11LU: h11LU,
		h22: func(j int, col []colEntry) []colEntry {
			return h22Column(g, ord, c, j, int(inv[ord.n1+j]), col)
		},
	}
	pool.Each(2, func(k int) {
		if k == 0 {
			in.h21T = h21.ExpandT(hw[:ord.n1])
		} else {
			in.h12T = h12.ExpandT(hw[ord.n1:])
		}
	})
	return in
}

// SchurColumns runs preprocessing under the ordering ord of g's nodes, for
// restart probability c, on the pool (nil runs serially), and stops before
// S's triangles: it hands every column j of S = H22 − H21·H11⁻¹·H12 to emit
// when it is not nil — its rows, each once, and their values, valid only
// during the call — and returns H11's block LU and the profile of S, K left
// 0. Each worker of the pool computes a contiguous range of columns and
// emits them itself, in ascending j: calls for distinct j may run
// concurrently, and no column is kept once emitted. The columns are the
// ones an engine built under ord stores, bit for bit, at any worker count.
func SchurColumns(g *graph.Graph, ord *reorder.Ordering, c float64, pool *par.Pool, emit func(j int, rows []uint32, vals []float64)) (*lu.BlockLU, SchurProfile, error) {
	e := &Engine{opts: Options{C: c}, pool: pool} // discarded: no deadline, no budget
	in, err := e.buildSchur(g, ord, time.Now())
	if err != nil {
		return nil, SchurProfile{}, err
	}
	bounds := in.bounds(ord.N2, pool)
	counts := make([]schurCounts, len(bounds)-1)
	nnz := make([]int, len(bounds)-1)
	pool.ForBounds(bounds, func(part, jlo, jhi int) {
		w := newSchurScratch(ord.N2, in.h11LU)
		var rows []uint32
		var vals []float64
		for j := jlo; j < jhi; j++ {
			in.column(w, j)
			nnz[part] += len(w.touched)
			if emit == nil {
				continue
			}
			rows, vals = rows[:0], vals[:0]
			for _, i := range w.touched {
				rows, vals = append(rows, uint32(i)), append(vals, w.acc[i])
			}
			emit(j, rows, vals)
		}
		counts[part] = w.counts
	})
	p := SchurProfile{N1: ord.N1, N2: ord.N2, N3: ord.N3}
	for part, n := range counts {
		p.H22NNZ += n.h22
		p.CrossNNZ += n.cross
		p.SchurNNZ += nnz[part]
	}
	return e.h11LU, p, nil
}

// schurInputs is what the columns of S = H22 − H21·H11⁻¹·H12 are computed
// from: H11's factors, the column views of H21 (n1×n2, row i = column i of
// H21) and H12 (n2×n1, row j = column j of H12), and H22's columns, which
// h22 appends to a slice, each row once.
type schurInputs struct {
	h11LU      *lu.BlockLU
	h21T, h12T *sparse.CSR
	h22        func(j int, col []colEntry) []colEntry
}

// column leaves column j of S in w: w.touched lists its rows, each once, in
// no particular order, and w.acc[i] holds entry i. It is the cross term
// −H21·H11⁻¹·H12 (schurScratch.column) merged with H22's column exactly as
// sparse.CSR.Add merges the two: a row in both holds h22 + cross, kept even
// when that is an exact zero; a row in one holds its own value. It is the
// one definition of a column of S — every Schur build runs it for every j,
// a delta for the affected ones — so the two agree bit for bit by
// construction.
func (in *schurInputs) column(w *schurScratch, j int) {
	w.column(j, in.h21T, in.h12T, in.h11LU)
	w.counts.cross += len(w.touched)
	w.h22 = in.h22(j, w.h22[:0])
	w.counts.h22 += len(w.h22)
	for _, e := range w.h22 {
		// The cross term dropped its exact zeros, so a row it holds is one
		// marked for j with a nonzero value.
		if i := e.row; w.mark[i] == j && w.acc[i] != 0 {
			w.acc[i] = e.val + w.acc[i]
		} else {
			w.mark[i] = j
			w.acc[i] = e.val
			w.touched = append(w.touched, i)
		}
	}
}

// schurShard is a run of finished columns of S, from column jlo on: column
// jlo+k holds rows[end[k-1]:end[k]] with their vals (from 0 for k = 0), in
// the order the column routine left them.
type schurShard struct {
	jlo  int
	end  []int
	rows []uint32
	vals []float64
}

// schurShardEntries is the size a shard is allocated at: a worker fills its
// shards in turn, each with whole columns (a longer column gets a shard of
// its own size), so no shard is ever regrown and copied, and what is
// allocated beyond S's 12 bytes per entry is at most the unfilled tail of
// one shard per worker (96 KiB).
const schurShardEntries = 1 << 13

// schurColumns is S as its columns: the column ranges bounds cut [0, n2)
// into, and each range's shards, in column order, and each range's counts.
type schurColumns struct {
	bounds []int
	parts  [][]schurShard
	counts []schurCounts
}

// schurCounts counts what a run of the column routine merged: the entries
// of H22's columns and those of the cross term's, before the merge.
type schurCounts struct {
	h22, cross int
}

// bounds cuts S's n2 columns into one contiguous range per worker of the
// pool, balanced by H12-column fill (what drives each column's
// substitution fan-out); a nil pool gives one range.
func (in *schurInputs) bounds(n2 int, pool *par.Pool) []int {
	if pool.Workers() > 1 && n2 >= 2 {
		return par.BoundsByPrefix(in.h12T.RowPtr(), pool.Workers())
	}
	return []int{0, n2}
}

// columns computes the n2 columns of S across the pool, one range of
// bounds per worker: each worker runs the column routine over its columns
// in ascending order, into a private scratch and its own shards, and hands
// each finished column to count, when it is not nil, under its range's
// index. Every column is computed once, with its accumulation order
// unchanged, so the columns are the same at any worker count. A nil pool
// runs serially.
func (in *schurInputs) columns(n2 int, bounds []int, pool *par.Pool, count func(part, j int, rows []uint32)) schurColumns {
	s := schurColumns{bounds: bounds, parts: make([][]schurShard, len(bounds)-1), counts: make([]schurCounts, len(bounds)-1)}
	pool.ForBounds(bounds, func(part, jlo, jhi int) {
		w := newSchurScratch(n2, in.h11LU)
		var out []schurShard
		var sh *schurShard
		for j := jlo; j < jhi; j++ {
			in.column(w, j)
			if sh == nil || cap(sh.rows)-len(sh.rows) < len(w.touched) {
				size := max(schurShardEntries, len(w.touched))
				out = append(out, schurShard{jlo: j, rows: make([]uint32, 0, size), vals: make([]float64, 0, size)})
				sh = &out[len(out)-1]
			}
			start, end := len(sh.rows), len(sh.rows)+len(w.touched)
			sh.rows, sh.vals = sh.rows[:end], sh.vals[:end]
			rows, vals := sh.rows[start:], sh.vals[start:end]
			for k, i := range w.touched {
				rows[k], vals[k] = uint32(i), w.acc[i]
			}
			sh.end = append(sh.end, end)
			if count != nil {
				count(part, j, rows)
			}
		}
		s.parts[part], s.counts[part] = out, w.counts
	})
	return s
}

// triangles computes S's n2 columns on the pool and assembles them into
// S's two DILU triangles: each worker counts its columns' rows of L̂ and Û
// as it computes them (lu.TriangleBuilder), and after the prefix scatters
// its own shards. It returns the triangles and S's entry count; it refuses
// what the builder refuses.
func (in *schurInputs) triangles(n2 int, pool *par.Pool) (*lu.Triangles, int, error) {
	bounds := in.bounds(n2, pool)
	tb, err := lu.NewTriangleBuilder(n2, len(bounds)-1)
	if err != nil {
		return nil, 0, err
	}
	cols := in.columns(n2, bounds, pool, tb.Count)
	if err := tb.Alloc(); err != nil {
		return nil, 0, err
	}
	cols.scatter(pool, tb.Put)
	tri, err := tb.Triangles()
	return tri, cols.nnz(), err
}

// nnz returns S's entry count.
func (s schurColumns) nnz() int {
	n := 0
	for _, shards := range s.parts {
		for _, sh := range shards {
			n += len(sh.rows)
		}
	}
	return n
}

// visitPart hands emit the columns of one range, in ascending order.
func (s schurColumns) visitPart(part int, emit func(j int, rows []uint32, vals []float64)) {
	for _, sh := range s.parts[part] {
		start := 0
		for k, end := range sh.end {
			emit(sh.jlo+k, sh.rows[start:end], sh.vals[start:end])
			start = end
		}
	}
}

// scatter hands put every column across the pool, each range's columns in
// ascending order on the worker of that range, under its index — the
// parts columns counted them under.
func (s schurColumns) scatter(pool *par.Pool, put func(part, j int, rows []uint32, vals []float64)) {
	pool.ForBounds(s.bounds, func(part, _, _ int) {
		s.visitPart(part, func(j int, rows []uint32, vals []float64) { put(part, j, rows, vals) })
	})
}

// schurScratch is the working state of Schur-column computations: a dense
// accumulator with last-touched column marks, a substitution scratch
// vector, the rows the current column reached and a buffer for H22's
// column, and the counts of what its columns merged. Each worker of a
// Schur build holds one.
type schurScratch struct {
	acc     []float64
	mark    []int
	scratch []float64
	touched []int
	h22     []colEntry
	counts  schurCounts
}

func newSchurScratch(n2 int, h11LU *lu.BlockLU) *schurScratch {
	mark := make([]int, n2)
	for i := range mark {
		mark[i] = -1
	}
	return &schurScratch{
		acc:     make([]float64, n2),
		mark:    mark,
		scratch: make([]float64, max(h11LU.MaxBlockSize(), 1)),
	}
}

// column computes column j of −H21·H11⁻¹·H12 over the column views h21T and
// h12T: y = H21·(H11⁻¹·H12[:,j]) accumulated sparsely in the order the
// substitution emits its rows, exact zeros dropped, the rest negated. On
// return w.touched lists the rows of the column's entries in the order they
// were first reached and w.acc[i] holds entry i. schurInputs.column merges
// H22 into it. A scratch may be reused across columns as long as no j
// repeats.
func (w *schurScratch) column(j int, h21T, h12T *sparse.CSR, h11LU *lu.BlockLU) {
	w.touched = w.touched[:0]
	s, e := h12T.RowRange(j)
	h11LU.SolveSparse(h12T.ColIdx()[s:e], h12T.Values()[s:e], w.scratch, func(row int, x float64) {
		rs, re := h21T.RowRange(row)
		cols := h21T.ColIdx()[rs:re]
		vs := h21T.Values()[rs:re]
		for p, i := range cols {
			if w.mark[i] != j {
				w.mark[i] = j
				w.acc[i] = 0
				w.touched = append(w.touched, i)
			}
			w.acc[i] += float64(vs[p] * x)
		}
	})
	kept := w.touched[:0]
	for _, i := range w.touched {
		if w.acc[i] != 0 {
			w.acc[i] = -w.acc[i]
			kept = append(kept, i)
		}
	}
	w.touched = kept
}
