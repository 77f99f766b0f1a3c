// Package lu provides the factorization substrate of the BePI
// reproduction: a per-block dense LU of the block-diagonal spoke matrix
// H11, every block's factors in one array; the diagonal ILU (DILU) of the
// Schur complement, which holds S once and which the engine applies as its
// preconditioner in one pass by Eisenstat's trick; the paper's ILU(0),
// which serves only the Figure 7 eigenvalue experiment (and the repository
// benchmark's factor-time row); sparse triangular solves; and a
// Gilbert–Peierls sparse LU used by the LU-decomposition baseline.
//
// None of the factorizations pivot: every matrix factored here (H, H11 and
// its diagonal blocks, the Schur complement's ILU surrogate) is strictly
// column diagonally dominant for restart probabilities 0 < c < 1, for which
// pivot-free LU is numerically stable.
package lu

import (
	"fmt"
	"slices"
	"sort"

	"bepi/internal/dense"
	"bepi/internal/par"
	"bepi/internal/sparse"
)

// BlockLU holds the packed LU factors of a block-diagonal matrix, every
// block's in one array: block b's factors are data[at[b]:at[b+1]], row-major,
// whether a build, a file or a refactor produced them. A 1×1 block is one
// entry, its pivot.
type BlockLU struct {
	offsets []int     // len nblocks+1; block b covers rows [offsets[b], offsets[b+1])
	at      []int     // len nblocks+1; prefix sums of size²: where each block's factors start in data
	data    []float64 // every block's packed LU factors, in block order
}

// block views block i's factors as a dense matrix over the shared array.
func (b *BlockLU) block(i int) dense.Matrix {
	s := b.offsets[i+1] - b.offsets[i]
	return dense.Matrix{R: s, C: s, Data: b.data[b.at[i]:b.at[i+1]:b.at[i+1]]}
}

// factorBlock is the one per-block body of a build and a refactor: it points
// blk at block i, zeroes it, has fill write the block into it, and
// LU-factors it in place.
func (b *BlockLU) factorBlock(i int, blk *dense.Matrix, fill func(b, lo int, blk *dense.Matrix) error) error {
	*blk = b.block(i)
	clear(blk.Data)
	if err := fill(i, b.offsets[i], blk); err != nil {
		return err
	}
	if err := blk.LU(); err != nil {
		return fmt.Errorf("lu: factoring block %d: %w", i, err)
	}
	return nil
}

// FactorBlockDiag factors the block-diagonal matrix m whose diagonal blocks
// have the given sizes (in order). It returns an error if m has an entry
// outside the claimed block structure or a block is singular. It is the
// serial case of FactorBlockDiagPool.
func FactorBlockDiag(m *sparse.CSR, blockSizes []int) (*BlockLU, error) {
	return FactorBlockDiagPool(m, blockSizes, nil)
}

// FactorBlockDiagPool is FactorBlockDiag with the independent diagonal
// blocks factored in parallel over the pool (FactorBlocksPool), each block
// filled from m's rows. A nil pool runs serially.
func FactorBlockDiagPool(m *sparse.CSR, blockSizes []int, p *par.Pool) (*BlockLU, error) {
	if m.Rows() != m.Cols() {
		return nil, fmt.Errorf("lu: block-diagonal matrix must be square, got %v", m)
	}
	col := m.ColIdx()
	val := m.Values()
	return FactorBlocksPool(m.Rows(), blockSizes, func(b, lo int, blk *dense.Matrix) error {
		hi := lo + blk.R
		for i := lo; i < hi; i++ {
			start, end := m.RowRange(i)
			for p := start; p < end; p++ {
				j := col[p]
				if j < lo || j >= hi {
					return fmt.Errorf("lu: entry (%d,%d) outside block %d [%d,%d)", i, j, b, lo, hi)
				}
				blk.Set(i-lo, j-lo, val[p])
			}
		}
		return nil
	}, p)
}

// FactorBlocksPool factors the n×n block-diagonal matrix whose diagonal
// blocks have the given sizes, in order: fill(b, lo, blk) writes block b —
// rows and columns [lo, lo+size) — into the zeroed dense blk, a view of the
// block's place in the one factor array that fill must not retain, or
// reports why it cannot, and the block is LU-factored in place. Blocks are
// partitioned into contiguous ranges balanced by estimated factorization
// cost (size³) and factored in parallel over the pool; each block's
// factorization is unchanged, so the factors are bit-identical to the serial
// path, and on failure the reported error is the same lowest-index one the
// serial sweep would hit. fill must be safe for concurrent calls on
// distinct blocks. A nil pool runs serially.
func FactorBlocksPool(n int, blockSizes []int, fill func(b, lo int, blk *dense.Matrix) error, p *par.Pool) (*BlockLU, error) {
	nb := len(blockSizes)
	offsets, at, factorCost := make([]int, nb+1), make([]int, nb+1), make([]int, nb+1)
	for i, s := range blockSizes {
		if s <= 0 {
			return nil, fmt.Errorf("lu: block %d has size %d", i, s)
		}
		offsets[i+1] = offsets[i] + s
		at[i+1] = at[i] + s*s
		factorCost[i+1] = factorCost[i] + s*s*s
	}
	if offsets[nb] != n {
		return nil, fmt.Errorf("lu: block sizes sum to %d, matrix is %d", offsets[nb], n)
	}
	f := &BlockLU{offsets: offsets, at: at, data: make([]float64, at[nb])}
	factorRange := func(blo, bhi int) error {
		var blk dense.Matrix
		for b := blo; b < bhi; b++ {
			if err := f.factorBlock(b, &blk, fill); err != nil {
				return err
			}
		}
		return nil
	}
	if p.Workers() <= 1 || nb < 2 {
		if err := factorRange(0, nb); err != nil {
			return nil, err
		}
	} else {
		bounds := par.BoundsByPrefix(factorCost, p.Workers())
		chunkErrs := make([]error, len(bounds)-1)
		p.ForBounds(bounds, func(chunk, blo, bhi int) {
			chunkErrs[chunk] = factorRange(blo, bhi)
		})
		// Chunks are in block order and each stops at its first failure, so
		// the first chunk error is the lowest-index block error — the one
		// the serial sweep reports.
		for _, err := range chunkErrs {
			if err != nil {
				return nil, err
			}
		}
	}
	return f, nil
}

// Refactor returns a copy of b whose listed blocks, ascending, are refilled
// through fill (FactorBlocksPool's contract) and LU-factored by the build's
// own per-block body, so a failure is reported at the lowest listed block.
// b is never written and keeps serving; an empty list returns b itself.
// This is the partial refactorization behind spoke-only delta rebuilds.
func (b *BlockLU) Refactor(blocks []int, fill func(b, lo int, blk *dense.Matrix) error) (*BlockLU, error) {
	if len(blocks) == 0 {
		return b, nil
	}
	f := &BlockLU{offsets: b.offsets, at: b.at, data: slices.Clone(b.data)}
	var blk dense.Matrix
	prev := -1
	for _, i := range blocks {
		if i <= prev || i >= b.NumBlocks() {
			return nil, fmt.Errorf("lu: Refactor block %d out of ascending order in [0,%d)", i, b.NumBlocks())
		}
		prev = i
		if err := f.factorBlock(i, &blk, fill); err != nil {
			return nil, err
		}
	}
	return f, nil
}

// N returns the dimension of the factored matrix.
func (b *BlockLU) N() int { return b.offsets[len(b.offsets)-1] }

// NumBlocks returns the number of diagonal blocks.
func (b *BlockLU) NumBlocks() int { return len(b.offsets) - 1 }

// BlockRange returns the half-open row range of block i.
func (b *BlockLU) BlockRange(i int) (lo, hi int) { return b.offsets[i], b.offsets[i+1] }

// BlockSizes returns the block dimensions in order: the sizes the factors
// were built from.
func (b *BlockLU) BlockSizes() []int {
	sizes := make([]int, b.NumBlocks())
	for i := range sizes {
		sizes[i] = b.offsets[i+1] - b.offsets[i]
	}
	return sizes
}

// BlockOf returns the index of the block containing row i.
func (b *BlockLU) BlockOf(i int) int {
	return sort.SearchInts(b.offsets, i+1) - 1
}

// Solve solves the full block-diagonal system in place on x.
func (b *BlockLU) Solve(x []float64) {
	if len(x) != b.N() {
		panic(fmt.Sprintf("lu: BlockLU.Solve length %d want %d", len(x), b.N()))
	}
	b.solveRange(x, 0, b.NumBlocks())
}

// solveRange substitutes blocks [blo, bhi) in place on their slices of x.
func (b *BlockLU) solveRange(x []float64, blo, bhi int) {
	for i := blo; i < bhi; i++ {
		f := b.block(i)
		f.LUSolve(x[b.offsets[i]:b.offsets[i+1]])
	}
}

// parallelMinUnknowns is the system size below which SolvePool stays
// serial: substitution on a few thousand unknowns is cheaper than a chunk
// handoff.
const parallelMinUnknowns = 1 << 12

// SolvePool is Solve with the independent per-block substitutions run in
// parallel over the pool. Blocks are partitioned into contiguous ranges
// balanced by substitution cost; each block's substitution is unchanged and
// writes only its own slice of x, so the result is bit-identical to Solve.
// A nil pool (or a small system) runs serially.
func (b *BlockLU) SolvePool(x []float64, p *par.Pool) {
	if len(x) != b.N() {
		panic(fmt.Sprintf("lu: BlockLU.SolvePool length %d want %d", len(x), b.N()))
	}
	if p.Workers() <= 1 || b.NumBlocks() < 2 || b.N() < parallelMinUnknowns {
		b.Solve(x)
		return
	}
	p.ForBounds(par.BoundsByPrefix(b.at, p.Workers()), func(_, blo, bhi int) {
		b.solveRange(x, blo, bhi)
	})
}

// SolveSparse solves H11·x = col for a sparse right-hand side given as
// (row index, value) pairs, writing the (block-dense) result through emit.
// Only blocks containing a nonzero are solved; the scratch slice must have
// length ≥ the largest block size and is reused across calls.
func (b *BlockLU) SolveSparse(idx []int, vals []float64, scratch []float64, emit func(row int, v float64)) {
	if len(idx) == 0 {
		return
	}
	// idx is assumed sorted ascending (CSR order); group by block.
	p := 0
	for p < len(idx) {
		blk := b.BlockOf(idx[p])
		lo, hi := b.BlockRange(blk)
		x := scratch[:hi-lo]
		for i := range x {
			x[i] = 0
		}
		for p < len(idx) && idx[p] < hi {
			x[idx[p]-lo] = vals[p]
			p++
		}
		f := b.block(blk)
		f.LUSolve(x)
		for i, v := range x {
			if v != 0 {
				emit(lo+i, v)
			}
		}
	}
}

// MaxBlockSize returns the largest block dimension (scratch sizing).
func (b *BlockLU) MaxBlockSize() int {
	mx := 0
	for i := range b.NumBlocks() {
		if s := b.offsets[i+1] - b.offsets[i]; s > mx {
			mx = s
		}
	}
	return mx
}

// MemoryBytes reports the storage footprint of the packed factors. This is
// the analogue of the paper's storage for L1⁻¹ and U1⁻¹ (Σᵢ n1i²).
func (b *BlockLU) MemoryBytes() int64 {
	return int64(len(b.data))*8 + int64(len(b.offsets))*8
}
