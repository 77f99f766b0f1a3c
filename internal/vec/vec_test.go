package vec

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func almostEq(a, b, tol float64) bool { return math.Abs(a-b) <= tol }

func TestDot(t *testing.T) {
	if got := Dot([]float64{1, 2, 3}, []float64{4, 5, 6}); got != 32 {
		t.Fatalf("Dot = %v, want 32", got)
	}
	if got := Dot(nil, nil); got != 0 {
		t.Fatalf("Dot(nil,nil) = %v", got)
	}
}

func TestNorms(t *testing.T) {
	x := []float64{3, -4}
	if !almostEq(Norm2(x), 5, 1e-15) {
		t.Fatalf("Norm2 = %v", Norm2(x))
	}
	if Norm2(nil) != 0 {
		t.Fatal("Norm2(nil) != 0")
	}
}

func TestNorm2NoOverflow(t *testing.T) {
	x := []float64{1e200, 1e200}
	want := 1e200 * math.Sqrt2
	if math.IsInf(Norm2(x), 1) || !almostEq(Norm2(x)/want, 1, 1e-12) {
		t.Fatalf("Norm2 overflowed: %v", Norm2(x))
	}
}

func TestAXPYScaleCopySubAdd(t *testing.T) {
	y := []float64{1, 1, 1}
	AXPY(2, []float64{1, 2, 3}, y)
	want := []float64{3, 5, 7}
	for i := range y {
		if y[i] != want[i] {
			t.Fatalf("AXPY = %v", y)
		}
	}
	Scale(0.5, y)
	if y[2] != 3.5 {
		t.Fatalf("Scale = %v", y)
	}
	dst := []float64{1, 1, 1}
	Sub(dst, y, y)
	if Norm2(dst) != 0 {
		t.Fatalf("Sub(y,y) = %v", dst)
	}
}

func TestZeroSumDist(t *testing.T) {
	x := []float64{1, 2, 3}
	if Sum(x) != 6 {
		t.Fatalf("Sum = %v", Sum(x))
	}
	if !almostEq(Dist2([]float64{0, 0}, []float64{3, 4}), 5, 1e-15) {
		t.Fatal("Dist2 wrong")
	}
}

func TestArgMax(t *testing.T) {
	if ArgMax(nil) != -1 {
		t.Fatal("ArgMax(nil) != -1")
	}
	if ArgMax([]float64{1, 5, 5, 2}) != 1 {
		t.Fatal("ArgMax ties should return first")
	}
}

func TestMismatchedLengthsPanic(t *testing.T) {
	cases := []func(){
		func() { Dot([]float64{1}, []float64{1, 2}) },
		func() { AXPY(1, []float64{1}, []float64{1, 2}) },
		func() { Sub([]float64{1}, []float64{1}, []float64{1, 2}) },
		func() { Dist2([]float64{1}, []float64{1, 2}) },
	}
	for i, fn := range cases {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("case %d: expected panic", i)
				}
			}()
			fn()
		}()
	}
}

// Property: Cauchy-Schwarz |x·y| <= ‖x‖‖y‖.
func TestQuickCauchySchwarz(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		n := 1 + r.Intn(32)
		x := make([]float64, n)
		y := make([]float64, n)
		for i := range x {
			x[i], y[i] = r.NormFloat64(), r.NormFloat64()
		}
		return math.Abs(Dot(x, y)) <= Norm2(x)*Norm2(y)*(1+1e-12)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

// Property: triangle inequality ‖x+y‖ <= ‖x‖+‖y‖.
func TestQuickTriangleInequality(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		n := 1 + r.Intn(32)
		x := make([]float64, n)
		y := make([]float64, n)
		s := make([]float64, n)
		for i := range x {
			x[i], y[i] = r.NormFloat64(), r.NormFloat64()
		}
		for i := range s {
			s[i] = x[i] + y[i]
		}
		return Norm2(s) <= Norm2(x)+Norm2(y)+1e-12
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}
