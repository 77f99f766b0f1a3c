package lu

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"bepi/internal/sparse"
)

// randDiagDominantCSR builds a random sparse strictly diagonally dominant
// matrix: the class every factorization in this package targets.
func randDiagDominantCSR(rng *rand.Rand, n int, density float64) *sparse.CSR {
	coo := sparse.NewCOO(n, n)
	rowAbs := make([]float64, n)
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			if i != j && rng.Float64() < density {
				v := rng.NormFloat64()
				coo.Add(i, j, v)
				rowAbs[i] += math.Abs(v)
			}
		}
	}
	for i := 0; i < n; i++ {
		coo.Add(i, i, rowAbs[i]+1+rng.Float64())
	}
	return coo.ToCSR()
}

// randBlockDiag builds a block-diagonal diagonally dominant matrix with the
// returned block sizes.
func randBlockDiag(rng *rand.Rand, nblocks, maxBlock int) (*sparse.CSR, []int) {
	sizes := make([]int, nblocks)
	total := 0
	for i := range sizes {
		sizes[i] = 1 + rng.Intn(maxBlock)
		total += sizes[i]
	}
	coo := sparse.NewCOO(total, total)
	off := 0
	for _, s := range sizes {
		rowAbs := make([]float64, s)
		for i := 0; i < s; i++ {
			for j := 0; j < s; j++ {
				if i != j && rng.Float64() < 0.5 {
					v := rng.NormFloat64()
					coo.Add(off+i, off+j, v)
					rowAbs[i] += math.Abs(v)
				}
			}
		}
		for i := 0; i < s; i++ {
			coo.Add(off+i, off+i, rowAbs[i]+1)
		}
		off += s
	}
	return coo.ToCSR(), sizes
}

func TestBlockLUSolve(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for trial := 0; trial < 15; trial++ {
		m, sizes := randBlockDiag(rng, 1+rng.Intn(6), 8)
		f, err := FactorBlockDiag(m, sizes)
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		n := m.Rows()
		xTrue := make([]float64, n)
		for i := range xTrue {
			xTrue[i] = rng.NormFloat64()
		}
		b := make([]float64, n)
		m.MulVec(b, xTrue)
		f.Solve(b)
		for i := range b {
			if math.Abs(b[i]-xTrue[i]) > 1e-8 {
				t.Fatalf("trial %d: x[%d] = %v want %v", trial, i, b[i], xTrue[i])
			}
		}
	}
}

func TestBlockLURejectsOffBlockEntry(t *testing.T) {
	coo := sparse.NewCOO(4, 4)
	for i := 0; i < 4; i++ {
		coo.Add(i, i, 2)
	}
	coo.Add(0, 3, 1) // crosses the claimed 2+2 block structure
	if _, err := FactorBlockDiag(coo.ToCSR(), []int{2, 2}); err == nil {
		t.Fatal("expected error for off-block entry")
	}
}

func TestBlockLURejectsBadSizes(t *testing.T) {
	m := sparse.Identity(4)
	if _, err := FactorBlockDiag(m, []int{2, 1}); err == nil {
		t.Fatal("expected error for sizes not summing to n")
	}
	if _, err := FactorBlockDiag(m, []int{2, 0, 2}); err == nil {
		t.Fatal("expected error for zero-size block")
	}
	if _, err := FactorBlockDiag(sparse.Zero(2, 3), []int{2}); err == nil {
		t.Fatal("expected error for non-square matrix")
	}
}

func TestBlockLUBlockOf(t *testing.T) {
	m := sparse.Identity(6)
	f, err := FactorBlockDiag(m, []int{2, 3, 1})
	if err != nil {
		t.Fatal(err)
	}
	wants := []int{0, 0, 1, 1, 1, 2}
	for i, w := range wants {
		if got := f.BlockOf(i); got != w {
			t.Fatalf("BlockOf(%d) = %d want %d", i, got, w)
		}
	}
	if f.MaxBlockSize() != 3 || f.NumBlocks() != 3 || f.N() != 6 {
		t.Fatal("block metadata wrong")
	}
}

func TestBlockLUSolveSparse(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	m, sizes := randBlockDiag(rng, 5, 6)
	f, err := FactorBlockDiag(m, sizes)
	if err != nil {
		t.Fatal(err)
	}
	n := m.Rows()
	// Sparse RHS touching two blocks.
	idx := []int{0, n - 1}
	vals := []float64{1.5, -2.5}
	got := make([]float64, n)
	scratch := make([]float64, f.MaxBlockSize())
	f.SolveSparse(idx, vals, scratch, func(row int, v float64) { got[row] = v })
	// Reference: dense solve.
	b := make([]float64, n)
	b[0], b[n-1] = 1.5, -2.5
	f.Solve(b)
	for i := range b {
		if math.Abs(got[i]-b[i]) > 1e-10 {
			t.Fatalf("SolveSparse[%d] = %v want %v", i, got[i], b[i])
		}
	}
}

func TestILU0ExactOnFullPattern(t *testing.T) {
	// When A is dense (full pattern), ILU(0) equals exact LU so L·U == A.
	rng := rand.New(rand.NewSource(3))
	a := randDiagDominantCSR(rng, 12, 1.0)
	f, err := FactorILU0(a)
	if err != nil {
		t.Fatal(err)
	}
	if !f.Product().AlmostEqual(a, 1e-8) {
		t.Fatal("dense-pattern ILU(0) should reproduce A exactly")
	}
}

func TestILU0OnPatternApproximation(t *testing.T) {
	// For sparse A, (L·U)ij == Aij on the pattern of A.
	rng := rand.New(rand.NewSource(4))
	for trial := 0; trial < 10; trial++ {
		a := randDiagDominantCSR(rng, 30, 0.15)
		f, err := FactorILU0(a)
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		prod := f.Product()
		col := a.ColIdx()
		val := a.Values()
		for i := 0; i < a.Rows(); i++ {
			s, e := a.RowRange(i)
			for p := s; p < e; p++ {
				j := col[p]
				if d := math.Abs(prod.At(i, j) - val[p]); d > 1e-8 {
					t.Fatalf("trial %d: (LU)[%d][%d] off pattern value by %v", trial, i, j, d)
				}
			}
		}
	}
}

func TestILU0ApplyIsInverseOfProduct(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	a := randDiagDominantCSR(rng, 25, 0.2)
	f, err := FactorILU0(a)
	if err != nil {
		t.Fatal(err)
	}
	prod := f.Product()
	x := make([]float64, 25)
	for i := range x {
		x[i] = rng.NormFloat64()
	}
	b := make([]float64, 25)
	prod.MulVec(b, x)
	got := make([]float64, 25)
	f.Apply(got, b)
	for i := range got {
		if math.Abs(got[i]-x[i]) > 1e-8 {
			t.Fatalf("Apply((LU)x)[%d] = %v want %v", i, got[i], x[i])
		}
	}
	// In-place application must give the same answer.
	f.Apply(b, b)
	for i := range b {
		if math.Abs(b[i]-x[i]) > 1e-8 {
			t.Fatal("in-place Apply differs")
		}
	}
}

func TestILU0RejectsMissingDiagonal(t *testing.T) {
	coo := sparse.NewCOO(2, 2)
	coo.Add(0, 1, 1)
	coo.Add(1, 0, 1)
	if _, err := FactorILU0(coo.ToCSR()); err == nil {
		t.Fatal("expected error for missing diagonal")
	}
}

func TestSparseLUSolve(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	for trial := 0; trial < 15; trial++ {
		n := 2 + rng.Intn(40)
		a := randDiagDominantCSR(rng, n, 0.2)
		f, err := FactorSparse(a, 0)
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		xTrue := make([]float64, n)
		for i := range xTrue {
			xTrue[i] = rng.NormFloat64()
		}
		b := make([]float64, n)
		a.MulVec(b, xTrue)
		f.Solve(b)
		for i := range b {
			if math.Abs(b[i]-xTrue[i]) > 1e-7 {
				t.Fatalf("trial %d: x[%d] = %v want %v", trial, i, b[i], xTrue[i])
			}
		}
	}
}

func TestSparseLUFactorsReconstruct(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 10; trial++ {
		n := 2 + rng.Intn(25)
		a := randDiagDominantCSR(rng, n, 0.25)
		f, err := FactorSparse(a, 0)
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		l, u := f.Factors()
		if !l.Mul(u).AlmostEqual(a, 1e-8) {
			t.Fatalf("trial %d: L·U != A", trial)
		}
	}
}

func TestSparseLUBudget(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	a := randDiagDominantCSR(rng, 50, 0.3)
	if _, err := FactorSparse(a, 10); err == nil {
		t.Fatal("expected budget error")
	} else if !isBudget(err) {
		t.Fatalf("got %v, want ErrBudgetExceeded", err)
	}
}

func isBudget(err error) bool {
	for ; err != nil; err = unwrap(err) {
		if err == ErrBudgetExceeded {
			return true
		}
	}
	return false
}

func unwrap(err error) error {
	u, ok := err.(interface{ Unwrap() error })
	if !ok {
		return nil
	}
	return u.Unwrap()
}

// Property: SparseLU solves random diagonally dominant systems.
func TestQuickSparseLURoundTrip(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		n := 1 + r.Intn(20)
		a := randDiagDominantCSR(r, n, 0.3)
		fac, err := FactorSparse(a, 0)
		if err != nil {
			return false
		}
		x := make([]float64, n)
		for i := range x {
			x[i] = r.NormFloat64()
		}
		b := make([]float64, n)
		a.MulVec(b, x)
		fac.Solve(b)
		for i := range b {
			if math.Abs(b[i]-x[i]) > 1e-6 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

// Property: ILU memory footprint matches the input matrix footprint in the
// serving layout (Theorem 3's storage argument): the same nnz as A, split
// across the L and U structures, which adds a second row-pointer array —
// plus, for DILU, the one diagonal D_S.
func TestQuickILUMemoryMatchesPattern(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		n := 1 + r.Intn(25)
		a := randDiagDominantCSR(r, n, 0.3)
		fac, err := FactorILU0(a)
		if err != nil {
			return false
		}
		dilu, err := FactorDILU(a)
		if err != nil {
			return false
		}
		split := sparse.Compact(a).MemoryBytes() + int64(n+1)*4
		return fac.MemoryBytes() == split && dilu.MemoryBytes() == split+int64(n)*8
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}
