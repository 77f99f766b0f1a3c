package core

import (
	"fmt"
	"slices"

	"bepi/internal/dense"
	"bepi/internal/graph"
	"bepi/internal/lu"
	"bepi/internal/par"
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
// graph by one counting pass: the columns' entries are counted per block
// row, then scattered with the columns walked in ascending new id, so every
// row is born sorted and every column array is allocated once, at its
// served width. With cols nil it covers every non-deadend column — the
// build, whose count visits the nodes in id order, reading the graph's
// adjacency front to back. Otherwise it covers only the new ids cols lists,
// in ascending order, and the four blocks hold those columns' entries alone
// (ApplyDelta splices them into the stored patterns). It is the one code
// that places an entry of H in the four blocks. inv is the new id → old id
// map of ord.
func buildHBlocks(g *graph.Graph, ord nodeOrder, inv []uint32, cols []int) (h12, h21, h31, h32 *sparse.Pattern) {
	n1, l := ord.n1, ord.n1+ord.n2
	b12 := sparse.NewPatternBuilder(n1, ord.n2)
	b21 := sparse.NewPatternBuilder(ord.n2, n1)
	b31 := sparse.NewPatternBuilder(ord.n3, n1)
	b32 := sparse.NewPatternBuilder(ord.n3, ord.n2)
	// column visits the entries of column j, the column of node u, that
	// fall in the four blocks, as (block, row, column) within the block.
	column := func(j, u int, visit func(b *sparse.PatternBuilder, row, col int)) {
		for _, v := range g.OutNeighbors(u) {
			switch pv := int(ord.perm[v]); {
			case j < n1 && pv >= l:
				visit(b31, pv-l, j)
			case j < n1 && pv >= n1:
				visit(b21, pv-n1, j)
			case j < n1: // H11: the block LU fills it
			case pv >= l:
				visit(b32, pv-l, j-n1)
			case pv < n1:
				visit(b12, pv, j-n1)
			default: // H22: S's columns read it
			}
		}
	}
	count := func(b *sparse.PatternBuilder, row, _ int) { b.Count(row) }
	put := func(b *sparse.PatternBuilder, row, col int) { b.Put(row, col) }
	if cols == nil {
		for u := range g.N() {
			if j := int(ord.perm[u]); j < l {
				column(j, u, count)
			}
		}
	} else {
		for _, j := range cols {
			column(j, int(inv[j]), count)
		}
	}
	for _, b := range []*sparse.PatternBuilder{b12, b21, b31, b32} {
		b.Alloc()
	}
	if cols == nil {
		for j, u := range inv[:l] {
			column(j, int(u), put)
		}
	} else {
		for _, j := range cols {
			column(j, int(inv[j]), put)
		}
	}
	return b12.Pattern(), b21.Pattern(), b31.Pattern(), b32.Pattern()
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
			if v == u {
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
// weights hw, and H22's columns read off the graph by h22Column.
func graphSchurInputs(g *graph.Graph, ord nodeOrder, inv []uint32, c float64, h11LU *lu.BlockLU, h12, h21 *sparse.Pattern, hw []float64) *schurInputs {
	return &schurInputs{
		h11LU: h11LU,
		h21T:  h21.ExpandT(hw[:ord.n1]),
		h12T:  h12.ExpandT(hw[ord.n1:]),
		h22: func(j int, col []colEntry) []colEntry {
			return h22Column(g, ord, c, j, int(inv[ord.n1+j]), col)
		},
	}
}

// csrH22 is the H22 column source of a CSR H22: column j is row j of its
// transpose.
func csrH22(h22 *sparse.CSR) func(j int, col []colEntry) []colEntry {
	h22T := h22.Transpose()
	return func(j int, col []colEntry) []colEntry {
		s, e := h22T.RowRange(j)
		vals := h22T.Values()
		for p, i := range h22T.ColIdx()[s:e] {
			col = append(col, colEntry{i, vals[s+p]})
		}
		return col
	}
}

// SchurComplement computes S = H22 − H21·H11⁻¹·H12 column by column,
// exploiting the block-diagonal H11: each H12 column only activates the
// blocks it touches. It builds the column views (transposes) of H12/H21
// itself and runs serially; callers that already hold the transposes should
// use SchurComplementT directly.
func SchurComplement(h22, h21, h12 *sparse.CSR, h11LU *lu.BlockLU) *sparse.CSR {
	return SchurComplementT(h22, h21.Transpose(), h12.Transpose(), h11LU, nil)
}

// SchurComplementT is SchurComplement over the pre-transposed column views
// h21T (n1×n2, row i = column i of H21) and h12T (n2×n1, row j = column j
// of H12), with the n2 columns partitioned across the pool. It runs the
// assembly preprocessing runs — the one column routine into per-worker
// shards, then one counting sort into rows (schurInputs.columns) — with
// H22's columns taken from h22, and the result is bit-identical at any
// worker count. A nil pool runs serially.
func SchurComplementT(h22, h21T, h12T *sparse.CSR, h11LU *lu.BlockLU, pool *par.Pool) *sparse.CSR {
	in := &schurInputs{h11LU: h11LU, h21T: h21T, h12T: h12T, h22: csrH22(h22)}
	n2 := h22.Rows()
	cols := in.columns(n2, pool)
	return sparse.CompactFromColumns(n2, n2, cols.nnz(), cols.visit).ToCSR()
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
	w.h22 = in.h22(j, w.h22[:0])
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

// schurColumns is S as its columns: the shards, in column order.
type schurColumns []schurShard

// columns computes the n2 columns of S across the pool. The columns are cut
// into contiguous chunks balanced by H12-column fill (what drives each
// column's substitution fan-out), and each chunk's worker runs the column
// routine over its columns in ascending order, into a private scratch and
// its own shards. Every column is computed once, with its accumulation
// order unchanged, so the columns are the same at any worker count. A nil
// pool runs serially.
func (in *schurInputs) columns(n2 int, pool *par.Pool) schurColumns {
	bounds := []int{0, n2}
	if pool.Workers() > 1 && n2 >= 2 {
		bounds = par.BoundsByPrefix(in.h12T.RowPtr(), pool.Workers())
	}
	chunks := make([]schurColumns, len(bounds)-1)
	run := func(chunk, jlo, jhi int) {
		w := newSchurScratch(n2, in.h11LU)
		var out schurColumns
		var sh *schurShard
		for j := jlo; j < jhi; j++ {
			in.column(w, j)
			if sh == nil || cap(sh.rows)-len(sh.rows) < len(w.touched) {
				size := max(schurShardEntries, len(w.touched))
				out = append(out, schurShard{jlo: j, rows: make([]uint32, 0, size), vals: make([]float64, 0, size)})
				sh = &out[len(out)-1]
			}
			for _, i := range w.touched {
				sh.rows = append(sh.rows, uint32(i))
				sh.vals = append(sh.vals, w.acc[i])
			}
			sh.end = append(sh.end, len(sh.rows))
		}
		chunks[chunk] = out
	}
	if len(bounds) == 2 {
		run(0, 0, n2)
	} else {
		pool.ForBounds(bounds, run)
	}
	return slices.Concat(chunks...)
}

// nnz returns S's entry count.
func (s schurColumns) nnz() int {
	n := 0
	for _, sh := range s {
		n += len(sh.rows)
	}
	return n
}

// visit is S as a sparse.Columns: every column, in ascending order.
func (s schurColumns) visit(emit func(j int, rows []uint32, vals []float64)) {
	for _, sh := range s {
		start := 0
		for k, end := range sh.end {
			emit(sh.jlo+k, sh.rows[start:end], sh.vals[start:end])
			start = end
		}
	}
}

// schurScratch is the working state of Schur-column computations: a dense
// accumulator with last-touched column marks, a substitution scratch
// vector, the rows the current column reached and a buffer for H22's
// column. Each worker of a Schur build holds one.
type schurScratch struct {
	acc     []float64
	mark    []int
	scratch []float64
	touched []int
	h22     []colEntry
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
			w.acc[i] += vs[p] * x
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
