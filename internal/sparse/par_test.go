package sparse

import (
	"math"
	"math/rand"
	"testing"

	"bepi/internal/par"
)

// randBigCSR builds a random matrix with roughly nnzPerRow entries per row,
// deterministic in seed. A sprinkling of rows is left empty and a few are
// made very heavy so the nnz-balanced partition is exercised.
func randBigCSR(rows, cols, nnzPerRow int, seed int64) *CSR {
	rng := rand.New(rand.NewSource(seed))
	coo := NewCOO(rows, cols)
	for i := 0; i < rows; i++ {
		k := nnzPerRow
		switch {
		case rng.Intn(17) == 0:
			k = 0 // empty row
		case rng.Intn(29) == 0:
			k = 20 * nnzPerRow // heavy row
		}
		for e := 0; e < k; e++ {
			coo.Add(i, rng.Intn(cols), rng.NormFloat64())
		}
	}
	return coo.ToCSR()
}

func randVec(n int, seed int64) []float64 {
	rng := rand.New(rand.NewSource(seed))
	x := make([]float64, n)
	for i := range x {
		x[i] = rng.NormFloat64()
	}
	return x
}

// bitsEqual compares float slices by representation: parallel kernels
// promise bit-identical output, not just close output.
func bitsEqual(a, b []float64) (int, bool) {
	for i := range a {
		if math.Float64bits(a[i]) != math.Float64bits(b[i]) {
			return i, false
		}
	}
	return -1, true
}

// TestParallelMulVecBitIdentical checks every parallel matvec kernel
// against its serial twin at several worker counts, on a matrix big enough
// to clear ParallelMinNNZ.
func TestParallelMulVecBitIdentical(t *testing.T) {
	const rows, cols = 3000, 2500
	m := randBigCSR(rows, cols, 20, 1)
	if m.NNZ() < ParallelMinNNZ {
		t.Fatalf("test matrix too small: nnz=%d < %d", m.NNZ(), ParallelMinNNZ)
	}
	x := randVec(cols, 2)

	wantMul := make([]float64, rows)
	m.MulVec(wantMul, x)

	for _, workers := range []int{2, 3, 8} {
		p := m.Clone().SetPool(par.NewPool(workers))

		got := make([]float64, rows)
		p.MulVec(got, x)
		if i, ok := bitsEqual(got, wantMul); !ok {
			t.Fatalf("workers=%d MulVec differs at %d: %v vs %v", workers, i, got[i], wantMul[i])
		}
	}
}

// TestParallelMulVecPathological covers the shapes where partitioning could
// go wrong: fewer rows than workers, single-row matrices, all-empty rows,
// and one row holding nearly all entries.
func TestParallelMulVecPathological(t *testing.T) {
	pool := par.NewPool(8)

	// One dense mega-row past the threshold, everything else empty.
	coo := NewCOO(4, ParallelMinNNZ)
	for j := 0; j < ParallelMinNNZ; j++ {
		coo.Add(2, j, float64(j%13)-6)
	}
	mega := coo.ToCSR()
	x := randVec(mega.Cols(), 5)
	want := make([]float64, 4)
	mega.MulVec(want, x)
	got := make([]float64, 4)
	mega.Clone().SetPool(pool).MulVec(got, x)
	if i, ok := bitsEqual(got, want); !ok {
		t.Fatalf("mega-row MulVec differs at %d", i)
	}

	// Entirely empty matrix with a pool attached.
	empty := Zero(10, 10).SetPool(pool)
	dst := randVec(10, 6)
	empty.MulVec(dst, randVec(10, 7))
	for i, v := range dst {
		if v != 0 {
			t.Fatalf("empty matrix wrote dst[%d]=%v", i, v)
		}
	}

	// Below-threshold matrix must take the serial path and still be right.
	small := randBigCSR(40, 40, 3, 8)
	xs := randVec(40, 9)
	w := make([]float64, 40)
	small.MulVec(w, xs)
	g := make([]float64, 40)
	small.Clone().SetPool(pool).MulVec(g, xs)
	if i, ok := bitsEqual(g, w); !ok {
		t.Fatalf("small MulVec differs at %d", i)
	}
}

// TestPooledMulVecAllocatesNoPartition: SetPool computes the nnz-balanced
// row partition once, so a pooled apply above ParallelMinNNZ allocates
// nothing beyond what the bare chunk dispatch over that partition does — in
// both layouts, and across Compact / ToCSR, which carry the partition over.
func TestPooledMulVecAllocatesNoPartition(t *testing.T) {
	pool := par.NewPool(4)
	m := randBigCSR(4000, 3000, 12, 50).SetPool(pool)
	if m.NNZ() < ParallelMinNNZ {
		t.Fatalf("fixture nnz=%d is below the parallel gate", m.NNZ())
	}
	c := Compact(m)
	x, dst := randVec(m.Cols(), 51), make([]float64, m.Rows())
	if c.bounds == nil || c.ToCSR().bounds == nil {
		t.Fatal("Compact / ToCSR dropped the cached partition")
	}
	// A different worker count needs a different partition.
	if other := m.Clone().SetPool(pool).SetPool(par.NewPool(2)); len(other.bounds) != 3 {
		t.Fatalf("re-pointed at a 2-worker pool, the partition has %d boundaries", len(other.bounds))
	}
	dispatch := testing.AllocsPerRun(50, func() {
		pool.ForBounds(c.bounds, func(_, lo, hi int) { c.mulVecRange(dst, x, lo, hi) })
	})
	for name, mulVec := range map[string]func(dst, x []float64){"csr": m.MulVec, "csr32": c.MulVec} {
		if got := testing.AllocsPerRun(50, func() { mulVec(dst, x) }); got > dispatch {
			t.Errorf("%s: pooled MulVec allocates %.1f objects per apply, the bare dispatch %.1f", name, got, dispatch)
		}
	}
}
