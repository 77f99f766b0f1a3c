package solver

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"bepi/internal/lu"
	"bepi/internal/sparse"
	"bepi/internal/vec"
)

func randDiagDominant(rng *rand.Rand, n int, density float64) *sparse.CSR {
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

func residual(a Operator, x, b []float64) float64 {
	r := make([]float64, len(b))
	a.MulVec(r, x)
	vec.Sub(r, b, r)
	return vec.Norm2(r) / vec.Norm2(b)
}

func TestGMRESSolvesRandomSystems(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for trial := 0; trial < 15; trial++ {
		n := 2 + rng.Intn(60)
		a := randDiagDominant(rng, n, 0.2)
		b := make([]float64, n)
		for i := range b {
			b[i] = rng.NormFloat64()
		}
		x, stats, err := GMRES(a, b, GMRESOptions{Tol: 1e-10})
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		if !stats.Converged {
			t.Fatalf("trial %d: not converged", trial)
		}
		if r := residual(a, x, b); r > 1e-8 {
			t.Fatalf("trial %d: true residual %v", trial, r)
		}
	}
}

func TestGMRESZeroRHS(t *testing.T) {
	a := sparse.Identity(5)
	x, stats, err := GMRES(a, make([]float64, 5), GMRESOptions{})
	if err != nil || !stats.Converged {
		t.Fatalf("err=%v stats=%+v", err, stats)
	}
	if vec.Norm2(x) != 0 {
		t.Fatal("zero rhs should give zero solution")
	}
}

func TestGMRESEmptySystem(t *testing.T) {
	a := sparse.Identity(0)
	x, stats, err := GMRES(a, nil, GMRESOptions{})
	if err != nil || !stats.Converged || len(x) != 0 {
		t.Fatalf("empty system: x=%v stats=%+v err=%v", x, stats, err)
	}
}

func TestGMRESIterationLimit(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	a := randDiagDominant(rng, 50, 0.3)
	b := make([]float64, 50)
	for i := range b {
		b[i] = rng.NormFloat64()
	}
	_, stats, err := GMRES(a, b, GMRESOptions{Tol: 1e-14, MaxIter: 2})
	if err == nil {
		t.Fatal("expected ErrNotConverged")
	}
	if stats.Iterations != 2 {
		t.Fatalf("iterations = %d, want 2", stats.Iterations)
	}
}

func TestPreconditionedGMRESFewerIterations(t *testing.T) {
	// An ILU(0)-preconditioned solve must converge in (strictly) fewer
	// iterations than the unpreconditioned one on a non-trivial system —
	// the effect the paper measures in Table 4.
	rng := rand.New(rand.NewSource(4))
	a := randDiagDominant(rng, 200, 0.03)
	b := make([]float64, 200)
	for i := range b {
		b[i] = rng.NormFloat64()
	}
	_, plain, err := GMRES(a, b, GMRESOptions{Tol: 1e-10})
	if err != nil {
		t.Fatal(err)
	}
	pre, err := lu.FactorILU0(a)
	if err != nil {
		t.Fatal(err)
	}
	x, cond, err := gmresLeftPreconditioned(a, pre, b, GMRESOptions{Tol: 1e-10})
	if err != nil {
		t.Fatal(err)
	}
	if cond.Iterations >= plain.Iterations {
		t.Fatalf("preconditioned %d iters >= plain %d", cond.Iterations, plain.Iterations)
	}
	if r := residual(a, x, b); r > 1e-7 {
		t.Fatalf("preconditioned residual %v", r)
	}
}

func TestGMRESCallbackSeesMonotoneImprovement(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	a := randDiagDominant(rng, 40, 0.2)
	xTrue := make([]float64, 40)
	for i := range xTrue {
		xTrue[i] = rng.NormFloat64()
	}
	b := make([]float64, 40)
	a.MulVec(b, xTrue)
	var errs []float64
	_, _, err := GMRES(a, b, GMRESOptions{
		Tol: 1e-11,
		Probe: func(_ int, _ float64, iterate func() []float64) bool {
			errs = append(errs, vec.Dist2(iterate(), xTrue))
			return false
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(errs) < 2 {
		t.Fatalf("callback fired %d times", len(errs))
	}
	if errs[len(errs)-1] > 1e-7 {
		t.Fatalf("final error %v", errs[len(errs)-1])
	}
	if errs[len(errs)-1] > errs[0] {
		t.Fatal("error grew over the solve")
	}
}

// rwrSystem builds a row-normalized adjacency transpose and H = I−(1−c)Ãᵀ
// for a random graph-like matrix.
func rwrSystem(rng *rand.Rand, n int, c float64) (at, h *sparse.CSR) {
	coo := sparse.NewCOO(n, n)
	for i := 0; i < n; i++ {
		deg := 1 + rng.Intn(4)
		for d := 0; d < deg; d++ {
			coo.Add(i, rng.Intn(n), 1)
		}
	}
	a := coo.ToCSR().RowNormalize()
	at = a.Transpose()
	h = sparse.Identity(n).AddScaled(at, -(1 - c))
	return at, h
}

func TestPowerIterationMatchesDirectSolve(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	for trial := 0; trial < 10; trial++ {
		n := 5 + rng.Intn(40)
		c := 0.05 + 0.3*rng.Float64()
		at, h := rwrSystem(rng, n, c)
		q := make([]float64, n)
		q[rng.Intn(n)] = 1
		r, stats, err := PowerIteration(at, q, c, PowerOptions{Tol: 1e-12, MaxIter: 5000})
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		if !stats.Converged {
			t.Fatalf("trial %d: not converged", trial)
		}
		// H r = c q must hold.
		hr := make([]float64, n)
		h.MulVec(hr, r)
		for i := range hr {
			if math.Abs(hr[i]-c*q[i]) > 1e-9 {
				t.Fatalf("trial %d: (Hr)[%d] = %v want %v", trial, i, hr[i], c*q[i])
			}
		}
	}
}

func TestPowerIterationCallback(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	at, _ := rwrSystem(rng, 20, 0.1)
	q := make([]float64, 20)
	q[0] = 1
	var iters []int
	_, stats, err := PowerIteration(at, q, 0.1, PowerOptions{
		Tol: 1e-10, MaxIter: 2000,
		Callback: func(iter int, r []float64) {
			iters = append(iters, iter)
			if len(r) != 20 {
				t.Errorf("callback vector length %d", len(r))
			}
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(iters) != stats.Iterations {
		t.Fatalf("callback fired %d times, stats say %d", len(iters), stats.Iterations)
	}
	for i, it := range iters {
		if it != i+1 {
			t.Fatal("callback iterations not sequential")
		}
	}
}

func TestPowerIterationLimit(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	at, _ := rwrSystem(rng, 30, 0.05)
	q := make([]float64, 30)
	q[0] = 1
	_, _, err := PowerIteration(at, q, 0.05, PowerOptions{Tol: 1e-16, MaxIter: 3})
	if err == nil {
		t.Fatal("expected ErrNotConverged")
	}
}

func TestPowerAndGMRESAgree(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	for trial := 0; trial < 8; trial++ {
		n := 10 + rng.Intn(50)
		c := 0.05
		at, h := rwrSystem(rng, n, c)
		q := make([]float64, n)
		q[rng.Intn(n)] = 1
		rp, _, err := PowerIteration(at, q, c, PowerOptions{Tol: 1e-12, MaxIter: 5000})
		if err != nil {
			t.Fatal(err)
		}
		cq := make([]float64, n)
		for i := range q {
			cq[i] = c * q[i]
		}
		rg, _, err := GMRES(h, cq, GMRESOptions{Tol: 1e-12})
		if err != nil {
			t.Fatal(err)
		}
		if d := vec.Dist2(rp, rg); d > 1e-8 {
			t.Fatalf("trial %d: power vs GMRES distance %v", trial, d)
		}
	}
}

// Property: GMRES solution satisfies the system within tolerance for
// arbitrary diagonally dominant systems.
func TestQuickGMRES(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		n := 1 + r.Intn(30)
		a := randDiagDominant(r, n, 0.3)
		b := make([]float64, n)
		for i := range b {
			b[i] = r.NormFloat64()
		}
		x, stats, err := GMRES(a, b, GMRESOptions{Tol: 1e-9})
		if err != nil || !stats.Converged {
			return false
		}
		return residual(a, x, b) < 1e-6
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

func TestGivens(t *testing.T) {
	cases := [][2]float64{{3, 4}, {0, 1}, {1, 0}, {-2, 5}, {1e-30, 1}}
	for _, tc := range cases {
		c, s := givens(tc[0], tc[1])
		if math.Abs(c*c+s*s-1) > 1e-12 {
			t.Fatalf("givens(%v,%v): c²+s² = %v", tc[0], tc[1], c*c+s*s)
		}
		if z := -s*tc[0] + c*tc[1]; math.Abs(z) > 1e-12*(math.Abs(tc[0])+math.Abs(tc[1])) {
			t.Fatalf("givens(%v,%v): residual %v", tc[0], tc[1], z)
		}
	}
}
