package sparse

import (
	"math"
	"math/rand"
	"sort"
	"testing"
	"testing/quick"
)

// randCSR builds a random rows×cols matrix with the given fill density.
func randCSR(rng *rand.Rand, rows, cols int, density float64) *CSR {
	coo := NewCOO(rows, cols)
	for i := 0; i < rows; i++ {
		for j := 0; j < cols; j++ {
			if rng.Float64() < density {
				coo.Add(i, j, rng.NormFloat64())
			}
		}
	}
	return coo.ToCSR()
}

func denseMulVec(d [][]float64, x []float64) []float64 {
	out := make([]float64, len(d))
	for i, row := range d {
		for j, v := range row {
			out[i] += v * x[j]
		}
	}
	return out
}

func TestCOOToCSRSortsAndMerges(t *testing.T) {
	coo := NewCOO(3, 3)
	coo.Add(2, 1, 1.0)
	coo.Add(0, 2, 3.0)
	coo.Add(2, 1, 2.0) // duplicate, must merge to 3.0
	coo.Add(0, 0, 5.0)
	coo.Add(1, 1, -1.0)
	m := coo.ToCSR()
	if m.NNZ() != 4 {
		t.Fatalf("nnz = %d, want 4", m.NNZ())
	}
	if got := m.At(2, 1); got != 3.0 {
		t.Errorf("At(2,1) = %v, want 3", got)
	}
	if got := m.At(0, 0); got != 5.0 {
		t.Errorf("At(0,0) = %v, want 5", got)
	}
	if got := m.At(0, 1); got != 0 {
		t.Errorf("At(0,1) = %v, want 0", got)
	}
	// Check sortedness invariant.
	for i := 0; i < m.Rows(); i++ {
		s, e := m.RowRange(i)
		for p := s + 1; p < e; p++ {
			if m.ColIdx()[p] <= m.ColIdx()[p-1] {
				t.Fatalf("row %d not strictly sorted", i)
			}
		}
	}
}

func TestCOOAddOutOfRangePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	NewCOO(2, 2).Add(2, 0, 1)
}

func TestIdentityAndDiagonal(t *testing.T) {
	id := Identity(4)
	x := []float64{1, 2, 3, 4}
	y := make([]float64, 4)
	id.MulVec(y, x)
	for i := range x {
		if y[i] != x[i] {
			t.Fatalf("identity MulVec mismatch at %d", i)
		}
	}
	d := Diagonal([]float64{2, 3})
	if d.At(0, 0) != 2 || d.At(1, 1) != 3 || d.At(0, 1) != 0 {
		t.Fatal("Diagonal wrong")
	}
}

func TestMulVecMatchesDense(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for trial := 0; trial < 20; trial++ {
		rows, cols := 1+rng.Intn(30), 1+rng.Intn(30)
		m := randCSR(rng, rows, cols, 0.3)
		d := m.ToDense()
		x := make([]float64, cols)
		for i := range x {
			x[i] = rng.NormFloat64()
		}
		got := make([]float64, rows)
		m.MulVec(got, x)
		want := denseMulVec(d, x)
		for i := range got {
			if math.Abs(got[i]-want[i]) > 1e-12 {
				t.Fatalf("trial %d: MulVec[%d] = %v, want %v", trial, i, got[i], want[i])
			}
		}
	}
}

func TestTransposeInvolution(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for trial := 0; trial < 10; trial++ {
		m := randCSR(rng, 1+rng.Intn(40), 1+rng.Intn(40), 0.2)
		tt := m.Transpose().Transpose()
		if !m.Equal(tt) {
			t.Fatalf("trial %d: transpose is not an involution", trial)
		}
	}
}

func TestAddSubScale(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	a := randCSR(rng, 20, 15, 0.3)
	b := randCSR(rng, 20, 15, 0.3)
	sum := a.Add(b)
	diff := sum.Sub(b)
	if !diff.AlmostEqual(a, 1e-12) {
		t.Fatal("(a+b)-b != a")
	}
	if !a.Sub(a).AlmostEqual(NewCOO(20, 15).ToCSR(), 0) {
		t.Fatal("a-a != 0")
	}
}

func TestMulMatchesDense(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	for trial := 0; trial < 15; trial++ {
		m, k, n := 1+rng.Intn(20), 1+rng.Intn(20), 1+rng.Intn(20)
		a := randCSR(rng, m, k, 0.3)
		b := randCSR(rng, k, n, 0.3)
		c := a.Mul(b)
		da, db, dc := a.ToDense(), b.ToDense(), c.ToDense()
		for i := 0; i < m; i++ {
			for j := 0; j < n; j++ {
				var want float64
				for t2 := 0; t2 < k; t2++ {
					want += da[i][t2] * db[t2][j]
				}
				if math.Abs(dc[i][j]-want) > 1e-10 {
					t.Fatalf("trial %d: C[%d][%d] = %v, want %v", trial, i, j, dc[i][j], want)
				}
			}
		}
	}
}

func TestBlockExtraction(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	m := randCSR(rng, 30, 25, 0.3)
	r0, r1, c0, c1 := 5, 20, 3, 17
	b := m.Block(r0, r1, c0, c1)
	if b.Rows() != r1-r0 || b.Cols() != c1-c0 {
		t.Fatalf("block shape %dx%d", b.Rows(), b.Cols())
	}
	for i := r0; i < r1; i++ {
		for j := c0; j < c1; j++ {
			if got, want := b.At(i-r0, j-c0), m.At(i, j); got != want {
				t.Fatalf("block[%d][%d] = %v, want %v", i-r0, j-c0, got, want)
			}
		}
	}
	// Degenerate empty block.
	e := m.Block(4, 4, 0, 25)
	if e.Rows() != 0 || e.NNZ() != 0 {
		t.Fatal("empty block not empty")
	}
}

func TestRowNormalize(t *testing.T) {
	coo := NewCOO(3, 3)
	coo.Add(0, 0, 2)
	coo.Add(0, 1, 2)
	coo.Add(2, 2, 5)
	// Row 1 is empty (deadend-like) and must stay empty.
	m := coo.ToCSR().RowNormalize()
	sums := make([]float64, 3)
	m.MulVec(sums, []float64{1, 1, 1})
	if math.Abs(sums[0]-1) > 1e-15 || sums[1] != 0 || math.Abs(sums[2]-1) > 1e-15 {
		t.Fatalf("row sums after normalize: %v", sums)
	}
}

func TestReserveAndNNZ(t *testing.T) {
	coo := NewCOO(3, 3)
	coo.Reserve(10)
	coo.Add(0, 0, 1)
	coo.Add(1, 1, 1)
	if len(coo.v) != 2 || coo.rows != 3 || coo.cols != 3 {
		t.Fatal("COO accounting wrong")
	}
	coo.Reserve(4) // shrinking request is a no-op
	if len(coo.v) != 2 {
		t.Fatal("Reserve lost entries")
	}
}

func TestDenseRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	m := randCSR(rng, 17, 23, 0.25)
	back := FromDense(m.ToDense())
	if !m.Equal(back) {
		t.Fatal("dense round trip lost information")
	}
}

func TestMemoryBytes(t *testing.T) {
	m := Identity(10)
	want := int64(10*16 + 11*8)
	if m.MemoryBytes() != want {
		t.Fatalf("MemoryBytes = %d, want %d", m.MemoryBytes(), want)
	}
}

// Property: for random matrices and vectors, (AB)x == A(Bx).
func TestQuickMulAssociativity(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		m, k, n := 1+r.Intn(12), 1+r.Intn(12), 1+r.Intn(12)
		a := randCSR(r, m, k, 0.4)
		b := randCSR(r, k, n, 0.4)
		x := make([]float64, n)
		for i := range x {
			x[i] = r.NormFloat64()
		}
		bx := make([]float64, k)
		b.MulVec(bx, x)
		abx := make([]float64, m)
		a.MulVec(abx, bx)
		ab := a.Mul(b)
		got := make([]float64, m)
		ab.MulVec(got, x)
		for i := range got {
			if math.Abs(got[i]-abx[i]) > 1e-9*(1+math.Abs(abx[i])) {
				return false
			}
		}
		return true
	}
	cfg := &quick.Config{MaxCount: 50, Rand: rng}
	if err := quick.Check(f, cfg); err != nil {
		t.Fatal(err)
	}
}

// Property: transpose distributes over addition.
func TestQuickTransposeAdd(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		rows, cols := 1+r.Intn(12), 1+r.Intn(12)
		a := randCSR(r, rows, cols, 0.4)
		b := randCSR(r, rows, cols, 0.4)
		lhs := a.Add(b).Transpose()
		rhs := a.Transpose().Add(b.Transpose())
		return lhs.AlmostEqual(rhs, 1e-12)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

func BenchmarkSpMV(b *testing.B) {
	rng := rand.New(rand.NewSource(10))
	m := randCSR(rng, 2000, 2000, 0.005)
	x := make([]float64, 2000)
	for i := range x {
		x[i] = rng.Float64()
	}
	y := make([]float64, 2000)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m.MulVec(y, x)
	}
}

func BenchmarkSpMSpM(b *testing.B) {
	rng := rand.New(rand.NewSource(11))
	m := randCSR(rng, 500, 500, 0.01)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = m.Mul(m)
	}
}

// blockRef is Block as it was before Partition: one row at a time, binary
// search for the first column, entries appended one by one. The reference
// of TestPartitionMatchesBlock.
func blockRef(m *CSR, r0, r1, c0, c1 int) *CSR {
	rowPtr := make([]int, r1-r0+1)
	var col []int
	var val []float64
	for i := r0; i < r1; i++ {
		start, end := m.rowPtr[i], m.rowPtr[i+1]
		lo := start + sort.SearchInts(m.col[start:end], c0)
		for p := lo; p < end && m.col[p] < c1; p++ {
			col = append(col, m.col[p]-c0)
			val = append(val, m.val[p])
		}
		rowPtr[i-r0+1] = len(col)
	}
	return &CSR{rows: r1 - r0, cols: c1 - c0, rowPtr: rowPtr, col: col, val: val}
}

// TestPartitionMatchesBlock: every block of a one-pass Partition equals the
// block the per-call extraction returned, for random cuts including empty
// bands, cuts that leave columns out on both sides, and the 3×2 grid
// preprocessing uses.
func TestPartitionMatchesBlock(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	cuts := func(limit, k int, full bool) []int {
		c := make([]int, k)
		for i := range c {
			c[i] = rng.Intn(limit + 1)
		}
		sort.Ints(c)
		if full {
			c[0], c[k-1] = 0, limit
		}
		return c
	}
	for trial := 0; trial < 60; trial++ {
		m := randCSR(rng, 1+rng.Intn(40), 1+rng.Intn(40), rng.Float64()*0.5)
		rowCuts := cuts(m.rows, 2+rng.Intn(4), trial%2 == 0)
		colCuts := cuts(m.cols, 2+rng.Intn(4), trial%3 == 0)
		grid := m.Partition(rowCuts, colCuts)
		for a := range grid {
			for b, got := range grid[a] {
				want := blockRef(m, rowCuts[a], rowCuts[a+1], colCuts[b], colCuts[b+1])
				if !got.Equal(want) {
					t.Fatalf("trial %d: block [%d][%d] of cuts %v × %v differs from Block", trial, a, b, rowCuts, colCuts)
				}
				if cap(got.col) != len(got.col) || cap(got.val) != len(got.val) {
					t.Fatalf("trial %d: block [%d][%d] over-allocated", trial, a, b)
				}
			}
		}
	}
}
