package lu

import (
	"math"
	"math/rand"
	"testing"

	"bepi/internal/par"
	"bepi/internal/sparse"
)

// parBlockDiag builds a random block-diagonal matrix with the given block
// sizes, strictly diagonally dominant so pivot-free LU succeeds.
func parBlockDiag(blockSizes []int, seed int64) *sparse.CSR {
	rng := rand.New(rand.NewSource(seed))
	n := 0
	for _, s := range blockSizes {
		n += s
	}
	coo := sparse.NewCOO(n, n)
	lo := 0
	for _, s := range blockSizes {
		for i := 0; i < s; i++ {
			coo.Add(lo+i, lo+i, float64(s)+1+rng.Float64())
			for e := 0; e < 3 && s > 1; e++ {
				j := rng.Intn(s)
				if j != i {
					coo.Add(lo+i, lo+j, rng.NormFloat64()*0.3)
				}
			}
		}
		lo += s
	}
	return coo.ToCSR()
}

func randSizes(nblocks, maxSize int, seed int64) []int {
	rng := rand.New(rand.NewSource(seed))
	sizes := make([]int, nblocks)
	for i := range sizes {
		sizes[i] = 1 + rng.Intn(maxSize)
	}
	return sizes
}

// TestFactorBlockDiagPoolBitIdentical factors the same matrix serially and
// over pools of several widths and checks the solves agree bitwise.
func TestFactorBlockDiagPoolBitIdentical(t *testing.T) {
	// Enough unknowns to clear parallelMinUnknowns so SolvePool actually
	// partitions.
	sizes := randSizes(200, 50, 1)
	m := parBlockDiag(sizes, 2)
	serial, err := FactorBlockDiag(m, sizes)
	if err != nil {
		t.Fatal(err)
	}
	if serial.N() < parallelMinUnknowns {
		t.Fatalf("test system too small: %d unknowns", serial.N())
	}
	rng := rand.New(rand.NewSource(3))
	rhs := make([]float64, serial.N())
	for i := range rhs {
		rhs[i] = rng.NormFloat64()
	}
	want := append([]float64(nil), rhs...)
	serial.Solve(want)

	for _, workers := range []int{2, 4, 16} {
		pool := par.NewPool(workers)
		f, err := FactorBlockDiagPool(m, sizes, pool)
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		got := append([]float64(nil), rhs...)
		f.SolvePool(got, pool)
		for i := range got {
			if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
				t.Fatalf("workers=%d: x[%d] = %v, want %v", workers, i, got[i], want[i])
			}
		}
	}
}

// TestFactorBlockDiagPoolErrorMatchesSerial makes a middle block singular
// and checks serial and parallel factorization report the same error.
func TestFactorBlockDiagPoolErrorMatchesSerial(t *testing.T) {
	sizes := []int{3, 3, 3, 3, 3, 3, 3, 3}
	m := parBlockDiag(sizes, 20)
	// Zero out block 4's rows to make it singular.
	lo, hi := 12, 15
	val := m.Values()
	for i := lo; i < hi; i++ {
		s, e := m.RowRange(i)
		for p := s; p < e; p++ {
			val[p] = 0
		}
	}
	_, serialErr := FactorBlockDiag(m, sizes)
	if serialErr == nil {
		t.Fatal("expected serial factorization to fail")
	}
	_, poolErr := FactorBlockDiagPool(m, sizes, par.NewPool(4))
	if poolErr == nil {
		t.Fatal("expected parallel factorization to fail")
	}
	if serialErr.Error() != poolErr.Error() {
		t.Fatalf("error mismatch:\n  serial: %v\n  pool:   %v", serialErr, poolErr)
	}
}

// TestSolvePoolSmallSystemFallsBack pins the serial fallback for systems
// under parallelMinUnknowns.
func TestSolvePoolSmallSystemFallsBack(t *testing.T) {
	sizes := []int{4, 5, 6}
	m := parBlockDiag(sizes, 30)
	f, err := FactorBlockDiagPool(m, sizes, par.NewPool(4))
	if err != nil {
		t.Fatal(err)
	}
	rhs := make([]float64, f.N())
	for i := range rhs {
		rhs[i] = float64(i) - 7
	}
	want := append([]float64(nil), rhs...)
	f.Solve(want)
	got := append([]float64(nil), rhs...)
	f.SolvePool(got, par.NewPool(4))
	for i := range got {
		if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
			t.Fatalf("x[%d] = %v, want %v", i, got[i], want[i])
		}
	}
}
