package lu

import (
	"math"
	"math/rand"
	"slices"
	"strings"
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

// TestTriangleBuilderWorkerCounts scatters the same columns into their two
// triangles with 1, 2, 3 and 7 parts, each part counting and then putting
// a contiguous range of columns on its own worker, and requires the
// triangles of one part walking every column, array for array and bit for
// bit. Each column lists its rows in shuffled order, as the Schur
// columns list theirs; 7 parts over the 3×3 matrix leave parts with no
// column.
func TestTriangleBuilderWorkerCounts(t *testing.T) {
	for _, n := range []int{3, 64, 700} {
		m := spliceBase(n, int64(n))
		rng := rand.New(rand.NewSource(int64(n)))
		for _, c := range m {
			rng.Shuffle(len(c.rows), func(a, b int) {
				c.rows[a], c.rows[b] = c.rows[b], c.rows[a]
				c.vals[a], c.vals[b] = c.vals[b], c.vals[a]
			})
		}
		want, err := columnTriangles(n, m.visit)
		if err != nil {
			t.Fatal(err)
		}
		for _, workers := range []int{1, 2, 3, 7} {
			bounds := make([]int, workers+1)
			for c := range bounds {
				bounds[c] = c * n / workers
			}
			b, err := NewTriangleBuilder(n, workers)
			if err != nil {
				t.Fatal(err)
			}
			pool := par.NewPool(workers)
			pool.ForBounds(bounds, func(part, lo, hi int) {
				for j := lo; j < hi; j++ {
					b.Count(part, j, m[j].rows)
				}
			})
			if err := b.Alloc(); err != nil {
				t.Fatal(err)
			}
			pool.ForBounds(bounds, func(part, lo, hi int) {
				for j := lo; j < hi; j++ {
					b.Put(part, j, m[j].rows, m[j].vals)
				}
			})
			got, err := b.Triangles()
			if err != nil {
				t.Fatal(err)
			}
			for name, pair := range map[string][2]*triFactor{"L": {&got.l, &want.l}, "U": {&got.u, &want.u}} {
				g, w := pair[0], pair[1]
				if !slices.Equal(g.rowPtr, w.rowPtr) || !slices.Equal(g.col16, w.col16) || !slices.Equal(g.col32, w.col32) || !bitsEqual(g.val, w.val) {
					t.Fatalf("n=%d, %d workers: %s triangle differs from the one-pass scatter", n, workers, name)
				}
			}
		}
	}
}

// TestTriangleBuilderRefuses32BitIndexes: an order the factors' 32-bit
// columns cannot hold is refused when the builder is made, and more
// entries than their int32 row pointers hold when the counts are in,
// before any entry is allocated.
func TestTriangleBuilderRefuses32BitIndexes(t *testing.T) {
	if _, err := NewTriangleBuilder(1<<32, 1); err == nil || !strings.Contains(err.Error(), "32-bit") {
		t.Fatalf("a 2³²-row matrix: err = %v, want the 32-bit refusal", err)
	}
	b, err := NewTriangleBuilder(3, 2)
	if err != nil {
		t.Fatal(err)
	}
	b.sorts[0].CountN(1, 2, math.MaxInt32)
	b.sorts[1].CountN(0, 0, 1)
	if err := b.Alloc(); err == nil || !strings.Contains(err.Error(), "32-bit") {
		t.Fatalf("2³¹ entries: err = %v, want the 32-bit refusal", err)
	}
	if b.t.l.val != nil || b.t.u.val != nil {
		t.Fatal("the refused entries were allocated")
	}
}
