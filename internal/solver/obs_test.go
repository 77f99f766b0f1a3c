package solver

import "testing"

// diagOp is a diagonal operator for solver unit tests.
type diagOp []float64

func (d diagOp) MulVec(dst, x []float64) {
	for i := range dst {
		dst[i] = d[i] * x[i]
	}
}

// TestOnIteration checks the hook as telemetry: it fires once per
// iteration with a monotonically increasing count, and its last residual
// matches the returned stats.
func TestOnIteration(t *testing.T) {
	n := 50
	a := make(diagOp, n)
	b := make([]float64, n)
	for i := range a {
		a[i] = 1 + float64(i%7)
		b[i] = float64(i + 1)
	}
	var iters []int
	var lastRes float64
	_, stats, err := GMRES(a, b, GMRESOptions{
		Tol: 1e-10,
		Probe: func(iter int, residual float64, _ func() []float64) bool {
			iters = append(iters, iter)
			lastRes = residual
			return false
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(iters) == 0 {
		t.Fatal("hook never fired")
	}
	for i, it := range iters {
		if it != i+1 {
			t.Fatalf("iteration sequence %v not 1..n", iters)
		}
	}
	if len(iters) != stats.Iterations {
		t.Fatalf("hook fired %d times over %d iterations", len(iters), stats.Iterations)
	}
	if lastRes != stats.Residual {
		t.Fatalf("hook residual %g, stats %g", lastRes, stats.Residual)
	}
}
