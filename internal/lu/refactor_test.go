package lu

import (
	"math/rand"
	"testing"

	"bepi/internal/dense"
	"bepi/internal/sparse"
)

// blockDiagCSR builds a strictly diagonally dominant block-diagonal matrix
// with the given block sizes.
func blockDiagCSR(rng *rand.Rand, sizes []int) *sparse.CSR {
	n := 0
	for _, s := range sizes {
		n += s
	}
	a := sparse.NewCOO(n, n)
	lo := 0
	for _, s := range sizes {
		for i := lo; i < lo+s; i++ {
			a.Add(i, i, 4+rng.Float64())
			for j := lo; j < lo+s; j++ {
				if j != i && rng.Float64() < 0.5 {
					a.Add(i, j, rng.NormFloat64())
				}
			}
		}
		lo += s
	}
	return a.ToCSR()
}

// denseBlock extracts block b of a block-diagonal CSR as an unfactored dense
// matrix, the form RefactorBlocks consumes.
func denseBlock(m *sparse.CSR, lo, hi int) *dense.Matrix {
	blk := dense.New(hi-lo, hi-lo)
	for i := lo; i < hi; i++ {
		s, e := m.RowRange(i)
		for p := s; p < e; p++ {
			blk.Set(i-lo, m.ColIdx()[p]-lo, m.Values()[p])
		}
	}
	return blk
}

// TestRefactorBlocksDeltaBitIdentical checks that refactoring only the
// changed blocks of a perturbed block-diagonal matrix yields factors
// bit-identical to a from-scratch FactorBlockDiag of the perturbed matrix,
// and that untouched factors are shared, not copied.
func TestRefactorBlocksDeltaBitIdentical(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	sizes := []int{3, 5, 2, 7, 4}
	m := blockDiagCSR(rng, sizes)
	base, err := FactorBlockDiag(m, sizes)
	if err != nil {
		t.Fatal(err)
	}

	// Perturb blocks 1 and 3 (stay dominant).
	m2 := m.Clone()
	for _, b := range []int{1, 3} {
		lo, hi := base.BlockRange(b)
		for i := lo; i < hi; i++ {
			s, e := m2.RowRange(i)
			for p := s; p < e; p++ {
				if m2.ColIdx()[p] == i {
					m2.Values()[p] += 1
				}
			}
		}
	}

	patched, err := base.RefactorBlocks(map[int]*dense.Matrix{
		1: denseBlock(m2, base.offsets[1], base.offsets[2]),
		3: denseBlock(m2, base.offsets[3], base.offsets[4]),
	})
	if err != nil {
		t.Fatal(err)
	}
	full, err := FactorBlockDiag(m2, sizes)
	if err != nil {
		t.Fatal(err)
	}
	for b := range sizes {
		pf, ff := patched.factors[b], full.factors[b]
		if len(pf.Data) != len(ff.Data) {
			t.Fatalf("block %d factor size mismatch", b)
		}
		for k := range pf.Data {
			if pf.Data[k] != ff.Data[k] {
				t.Fatalf("block %d factor differs at %d: %v vs %v", b, k, pf.Data[k], ff.Data[k])
			}
		}
	}
	for _, b := range []int{0, 2, 4} {
		if patched.factors[b] != base.factors[b] {
			t.Fatalf("untouched block %d was copied, want shared", b)
		}
	}
	for _, b := range []int{1, 3} {
		if patched.factors[b] == base.factors[b] {
			t.Fatalf("touched block %d still shared with base", b)
		}
	}
	if &patched.offsets[0] != &base.offsets[0] {
		t.Fatal("offsets slice not shared")
	}
}

// TestRefactorBlocksDeltaErrors checks the out-of-range, shape-mismatch and
// singular-block error paths, and that a failed refactor leaves the base
// factorization untouched.
func TestRefactorBlocksDeltaErrors(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	sizes := []int{2, 3}
	m := blockDiagCSR(rng, sizes)
	base, err := FactorBlockDiag(m, sizes)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := base.RefactorBlocks(map[int]*dense.Matrix{5: dense.New(1, 1)}); err == nil {
		t.Fatal("out-of-range block accepted")
	}
	if _, err := base.RefactorBlocks(map[int]*dense.Matrix{0: dense.New(3, 3)}); err == nil {
		t.Fatal("shape mismatch accepted")
	}
	if _, err := base.RefactorBlocks(map[int]*dense.Matrix{0: dense.New(2, 2)}); err == nil {
		t.Fatal("singular block accepted")
	}
	// Base must still solve correctly after the failures above.
	x := []float64{1, 2, 3, 4, 5}
	base.Solve(x)
	y := make([]float64, 5)
	m.MulVec(y, x)
	for i, want := range []float64{1, 2, 3, 4, 5} {
		if d := y[i] - want; d > 1e-9 || d < -1e-9 {
			t.Fatalf("base corrupted: residual %v at %d", d, i)
		}
	}
}
