// Package lu provides the factorization substrate of the BePI
// reproduction: a per-block dense LU of the block-diagonal spoke matrix
// H11, ILU(0) incomplete factorization of the Schur complement (the BePI
// preconditioner), sparse triangular solves, and a Gilbert–Peierls sparse
// LU used by the LU-decomposition baseline.
//
// None of the factorizations pivot: every matrix factored here (H, H11 and
// its diagonal blocks, the Schur complement's ILU surrogate) is strictly
// column diagonally dominant for restart probabilities 0 < c < 1, for which
// pivot-free LU is numerically stable.
package lu

import (
	"fmt"
	"sort"
	"sync"

	"bepi/internal/dense"
	"bepi/internal/par"
	"bepi/internal/sparse"
)

// BlockLU holds per-block packed LU factors of a block-diagonal matrix.
type BlockLU struct {
	offsets []int           // len nblocks+1; block b covers [offsets[b], offsets[b+1])
	factors []*dense.Matrix // packed LU factors, one per block

	costOnce sync.Once
	costPfx  []int // prefix sums of per-block size², for solve partitioning
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
// rows and columns [lo, lo+size) — into the zeroed dense blk, or reports
// why it cannot, and the block is LU-factored in place. Blocks are
// partitioned into contiguous ranges balanced by estimated factorization
// cost (size³) and factored in parallel over the pool; each block's
// factorization is unchanged, so the factors are bit-identical to the serial
// path, and on failure the reported error is the same lowest-index one the
// serial sweep would hit. fill must be safe for concurrent calls on
// distinct blocks. A nil pool runs serially.
func FactorBlocksPool(n int, blockSizes []int, fill func(b, lo int, blk *dense.Matrix) error, p *par.Pool) (*BlockLU, error) {
	offsets := make([]int, len(blockSizes)+1)
	factorCost := make([]int, len(blockSizes)+1)
	for i, s := range blockSizes {
		if s <= 0 {
			return nil, fmt.Errorf("lu: block %d has size %d", i, s)
		}
		offsets[i+1] = offsets[i] + s
		factorCost[i+1] = factorCost[i] + s*s*s
	}
	if offsets[len(blockSizes)] != n {
		return nil, fmt.Errorf("lu: block sizes sum to %d, matrix is %d", offsets[len(blockSizes)], n)
	}
	factors := make([]*dense.Matrix, len(blockSizes))
	factorRange := func(blo, bhi int) error {
		for b := blo; b < bhi; b++ {
			lo, hi := offsets[b], offsets[b+1]
			blk := dense.New(hi-lo, hi-lo)
			if err := fill(b, lo, blk); err != nil {
				return err
			}
			if err := blk.LU(); err != nil {
				return fmt.Errorf("lu: factoring block %d: %w", b, err)
			}
			factors[b] = blk
		}
		return nil
	}
	if p.Workers() <= 1 || len(blockSizes) < 2 {
		if err := factorRange(0, len(blockSizes)); err != nil {
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
	return &BlockLU{offsets: offsets, factors: factors}, nil
}

// RefactorBlocks returns a new BlockLU that shares every untouched factor
// (and the offsets slice) with b, replacing only the blocks named in raw.
// Each raw entry maps a block index to that block's fresh, unfactored dense
// content; RefactorBlocks LU-factors it in place. This is the partial
// refactorization behind spoke-only delta rebuilds: a delta that touches k
// of the H11 diagonal blocks costs k block factorizations instead of a full
// FactorBlockDiagPool sweep. The receiver stays valid and keeps serving —
// the shared factors are never written.
func (b *BlockLU) RefactorBlocks(raw map[int]*dense.Matrix) (*BlockLU, error) {
	factors := make([]*dense.Matrix, len(b.factors))
	copy(factors, b.factors)
	for i, blk := range raw {
		if i < 0 || i >= len(b.factors) {
			return nil, fmt.Errorf("lu: RefactorBlocks block %d out of range [0,%d)", i, len(b.factors))
		}
		if s := b.offsets[i+1] - b.offsets[i]; blk.R != s || blk.C != s {
			return nil, fmt.Errorf("lu: RefactorBlocks block %d is %dx%d, want %dx%d", i, blk.R, blk.C, s, s)
		}
		if err := blk.LU(); err != nil {
			return nil, fmt.Errorf("lu: refactoring block %d: %w", i, err)
		}
		factors[i] = blk
	}
	return &BlockLU{offsets: b.offsets, factors: factors}, nil
}

// N returns the dimension of the factored matrix.
func (b *BlockLU) N() int { return b.offsets[len(b.offsets)-1] }

// NumBlocks returns the number of diagonal blocks.
func (b *BlockLU) NumBlocks() int { return len(b.factors) }

// BlockRange returns the half-open row range of block i.
func (b *BlockLU) BlockRange(i int) (lo, hi int) { return b.offsets[i], b.offsets[i+1] }

// BlockSizes returns the block dimensions in order: the sizes the factors
// were built from.
func (b *BlockLU) BlockSizes() []int {
	sizes := make([]int, len(b.factors))
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
	for i, f := range b.factors {
		f.LUSolve(x[b.offsets[i]:b.offsets[i+1]])
	}
}

// ensureCost builds the lazy prefix of per-block substitution costs (s²),
// used to balance the parallel solve partitions.
func (b *BlockLU) ensureCost() []int {
	b.costOnce.Do(func() {
		pfx := make([]int, len(b.factors)+1)
		for i := range b.factors {
			s := b.offsets[i+1] - b.offsets[i]
			pfx[i+1] = pfx[i] + s*s
		}
		b.costPfx = pfx
	})
	return b.costPfx
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
	if p.Workers() <= 1 || len(b.factors) < 2 || b.N() < parallelMinUnknowns {
		b.Solve(x)
		return
	}
	p.ForBounds(par.BoundsByPrefix(b.ensureCost(), p.Workers()), func(_, blo, bhi int) {
		for i := blo; i < bhi; i++ {
			b.factors[i].LUSolve(x[b.offsets[i]:b.offsets[i+1]])
		}
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
		b.factors[blk].LUSolve(x)
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
	for i := range b.factors {
		if s := b.offsets[i+1] - b.offsets[i]; s > mx {
			mx = s
		}
	}
	return mx
}

// MemoryBytes reports the storage footprint of the packed factors. This is
// the analogue of the paper's storage for L1⁻¹ and U1⁻¹ (Σᵢ n1i²).
func (b *BlockLU) MemoryBytes() int64 {
	var total int64
	for _, f := range b.factors {
		total += f.MemoryBytes()
	}
	return total + int64(len(b.offsets))*8
}
