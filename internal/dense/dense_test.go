package dense

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

// randDiagDominant returns a random strictly diagonally dominant matrix,
// the class pivot-free LU is guaranteed stable on.
func randDiagDominant(rng *rand.Rand, n int) *Matrix {
	m := New(n, n)
	for i := 0; i < n; i++ {
		var off float64
		for j := 0; j < n; j++ {
			if i == j {
				continue
			}
			v := rng.NormFloat64()
			m.Set(i, j, v)
			off += math.Abs(v)
		}
		m.Set(i, i, off+1+rng.Float64())
	}
	return m
}

// fromRows builds a matrix from row slices.
func fromRows(rows [][]float64) *Matrix {
	m := New(len(rows), len(rows[0]))
	for i, r := range rows {
		copy(m.Row(i), r)
	}
	return m
}

// maxAbsDiff returns max |a_ij − b_ij|; a and b have one shape.
func maxAbsDiff(a, b *Matrix) float64 {
	var d float64
	for i, v := range a.Data {
		d = math.Max(d, math.Abs(v-b.Data[i]))
	}
	return d
}

func TestMulVecAndMul(t *testing.T) {
	a := fromRows([][]float64{{1, 2}, {3, 4}})
	b := fromRows([][]float64{{5, 6}, {7, 8}})
	c := a.Mul(b)
	want := fromRows([][]float64{{19, 22}, {43, 50}})
	if maxAbsDiff(c, want) != 0 {
		t.Fatalf("Mul = %+v", c)
	}
	y := make([]float64, 2)
	a.MulVec(y, []float64{1, 1})
	if y[0] != 3 || y[1] != 7 {
		t.Fatalf("MulVec = %v", y)
	}
}

func TestLUReconstruct(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for trial := 0; trial < 20; trial++ {
		n := 1 + rng.Intn(25)
		a := randDiagDominant(rng, n)
		lu := a.Clone()
		if err := lu.LU(); err != nil {
			t.Fatalf("LU: %v", err)
		}
		// Rebuild L·U and compare with A.
		prod := New(n, n)
		for i := 0; i < n; i++ {
			for j := 0; j < n; j++ {
				var s float64
				// L[i][k] for k<i, 1 at k=i; U[k][j] for k<=j.
				kmax := i
				if j < i {
					kmax = j
				}
				for k := 0; k <= kmax; k++ {
					var l float64
					if k < i {
						l = lu.At(i, k)
					} else {
						l = 1
					}
					if k <= j {
						s += l * lu.At(k, j)
					}
				}
				prod.Set(i, j, s)
			}
		}
		if d := maxAbsDiff(prod, a); d > 1e-9 {
			t.Fatalf("trial %d: ‖LU−A‖∞ = %v", trial, d)
		}
	}
}

func TestSolveMatchesMulVec(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	for trial := 0; trial < 20; trial++ {
		n := 1 + rng.Intn(30)
		a := randDiagDominant(rng, n)
		xTrue := make([]float64, n)
		for i := range xTrue {
			xTrue[i] = rng.NormFloat64()
		}
		b := make([]float64, n)
		a.MulVec(b, xTrue)
		x, err := a.Solve(b)
		if err != nil {
			t.Fatalf("Solve: %v", err)
		}
		for i := range x {
			if math.Abs(x[i]-xTrue[i]) > 1e-8 {
				t.Fatalf("trial %d: x[%d] = %v, want %v", trial, i, x[i], xTrue[i])
			}
		}
	}
}

func TestInverse(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for trial := 0; trial < 10; trial++ {
		n := 1 + rng.Intn(20)
		a := randDiagDominant(rng, n)
		inv, err := a.Inverse()
		if err != nil {
			t.Fatalf("Inverse: %v", err)
		}
		prod := a.Mul(inv)
		for i := 0; i < n; i++ {
			prod.Set(i, i, prod.At(i, i)-1)
		}
		if d := maxAbsDiff(prod, New(n, n)); d > 1e-8 {
			t.Fatalf("trial %d: ‖A·A⁻¹−I‖∞ = %v", trial, d)
		}
	}
}

func TestLUZeroPivot(t *testing.T) {
	a := fromRows([][]float64{{0, 1}, {1, 0}})
	if err := a.LU(); err == nil {
		t.Fatal("expected zero-pivot error")
	}
}

func TestMemoryBytes(t *testing.T) {
	if New(3, 4).MemoryBytes() != 96 {
		t.Fatal("MemoryBytes wrong")
	}
}

// Property: Solve(A, A·x) == x for diagonally dominant A.
func TestQuickSolveRoundTrip(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		n := 1 + r.Intn(15)
		a := randDiagDominant(r, n)
		x := make([]float64, n)
		for i := range x {
			x[i] = r.NormFloat64()
		}
		b := make([]float64, n)
		a.MulVec(b, x)
		got, err := a.Solve(b)
		if err != nil {
			return false
		}
		for i := range got {
			if math.Abs(got[i]-x[i]) > 1e-7 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}
