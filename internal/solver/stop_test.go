package solver

import (
	"math"
	"math/rand"
	"testing"
)

// TestStopWhenHaltsGMRES checks that a Probe returning true ends the solve
// at the caller's criterion with a nil error, Converged false, and
// StopEarly.
func TestStopWhenHaltsGMRES(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	n := 80
	a := randDiagDominant(rng, n, 0.15)
	b := make([]float64, n)
	for i := range b {
		b[i] = rng.NormFloat64()
	}
	_, fullStats, err := GMRES(a, b, GMRESOptions{Tol: 1e-12})
	if err != nil {
		t.Fatalf("full solve: %v", err)
	}
	const loose = 1e-3
	var stopIter int
	x, stats, err := GMRES(a, b, GMRESOptions{
		Tol: 1e-12,
		Probe: func(iter int, residual float64, _ func() []float64) bool {
			stopIter = iter
			return residual <= loose
		},
	})
	if err != nil {
		t.Fatalf("stopped solve: %v", err)
	}
	if stats.Converged {
		t.Fatalf("early-stopped solve reported Converged")
	}
	if stats.StopReason != StopEarly {
		t.Fatalf("StopReason = %v, want StopEarly", stats.StopReason)
	}
	if stats.Iterations != stopIter {
		t.Fatalf("stopped at iteration %d but stats say %d", stopIter, stats.Iterations)
	}
	if stats.Iterations >= fullStats.Iterations {
		t.Fatalf("early stop used %d iterations, full solve %d", stats.Iterations, fullStats.Iterations)
	}
	// The returned iterate must be the one the residual was measured on.
	if r := residual(a, x, b); r > 10*loose {
		t.Fatalf("stopped iterate residual %v, asked to stop at %v", r, loose)
	}
	if fullStats.StopReason != StopTolerance {
		t.Fatalf("full solve StopReason = %v, want StopTolerance", fullStats.StopReason)
	}
}

// TestStopWhenToleranceWins: meeting Tol on the same iteration the Probe
// asks to stop must report an ordinary converged stop, not StopEarly.
func TestStopWhenToleranceWins(t *testing.T) {
	always := func(int, float64, func() []float64) bool { return true }
	rng := rand.New(rand.NewSource(8))
	n := 40
	a := randDiagDominant(rng, n, 0.2)
	b := make([]float64, n)
	for i := range b {
		b[i] = rng.NormFloat64()
	}
	_, stats, err := GMRES(a, b, GMRESOptions{Tol: 1e-8, Probe: always})
	if err != nil {
		t.Fatalf("solve: %v", err)
	}
	if stats.Converged {
		// The probe halts iteration 1, long before 1e-8; the only way to be
		// converged here is a one-iteration exact solve, which this random
		// system is not.
		t.Fatalf("expected the probe to halt before tolerance")
	}
	if stats.Iterations != 1 || stats.StopReason != StopEarly {
		t.Fatalf("iterations=%d reason=%v, want 1/StopEarly", stats.Iterations, stats.StopReason)
	}

	// Now a trivially converging system: Tol met on the very step the
	// probe halts — tolerance must win.
	d := make(diagOp, 4)
	for i := range d {
		d[i] = 1
	}
	rhs := []float64{1, 2, 3, 4}
	_, stats, err = GMRES(d, rhs, GMRESOptions{Tol: 1e-9, Probe: always})
	if err != nil {
		t.Fatalf("identity solve: %v", err)
	}
	if !stats.Converged || stats.StopReason != StopTolerance {
		t.Fatalf("converged=%v reason=%v, want a converged tolerance stop", stats.Converged, stats.StopReason)
	}
}

// TestStopWhenProbeIterate: the thunk's iterate at the step the probe halts
// is, bit for bit, the solution the solve returns; and a solve halted at
// step k returns what a full solve's thunk showed at step k, so an iterate
// looked at costs nothing in the steps that follow.
func TestStopWhenProbeIterate(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	n := 50
	a := randDiagDominant(rng, n, 0.2)
	b := make([]float64, n)
	for i := range b {
		b[i] = rng.NormFloat64()
	}
	seen := map[int][]float64{}
	_, full, err := GMRES(a, b, GMRESOptions{
		Tol: 1e-10,
		Probe: func(iter int, _ float64, iterate func() []float64) bool {
			if iter%3 == 0 {
				seen[iter] = append([]float64(nil), iterate()...)
			}
			return false
		},
	})
	if err != nil {
		t.Fatalf("full solve: %v", err)
	}
	if len(seen) == 0 {
		t.Fatalf("%d iterations, none sampled", full.Iterations)
	}
	for k, want := range seen {
		var atStop []float64
		x, stats, err := GMRES(a, b, GMRESOptions{
			Tol: 1e-10,
			Probe: func(iter int, _ float64, iterate func() []float64) bool {
				if iter < k {
					return false
				}
				atStop = append([]float64(nil), iterate()...)
				return true
			},
		})
		if err != nil || stats.StopReason != StopEarly || stats.Iterations != k {
			t.Fatalf("halt at %d: %d iterations, reason %v, err %v", k, stats.Iterations, stats.StopReason, err)
		}
		for i := range x {
			if math.Float64bits(x[i]) != math.Float64bits(atStop[i]) {
				t.Fatalf("halt at %d: x[%d] = %v, thunk showed %v", k, i, x[i], atStop[i])
			}
			if math.Float64bits(x[i]) != math.Float64bits(want[i]) {
				t.Fatalf("halt at %d: x[%d] = %v, full solve's thunk showed %v", k, i, x[i], want[i])
			}
		}
	}
}

// TestStopReasonMaxIter: exhausting the iteration budget reports
// StopMaxIter alongside ErrNotConverged.
func TestStopReasonMaxIter(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	n := 60
	a := randDiagDominant(rng, n, 0.2)
	b := make([]float64, n)
	for i := range b {
		b[i] = rng.NormFloat64()
	}
	_, stats, err := GMRES(a, b, GMRESOptions{Tol: 1e-14, MaxIter: 2})
	if err == nil {
		t.Fatalf("expected iteration-limit error")
	}
	if stats.StopReason != StopMaxIter {
		t.Fatalf("StopReason = %v, want StopMaxIter", stats.StopReason)
	}
}

// TestStopReasonString pins the names stats reporting uses.
func TestStopReasonString(t *testing.T) {
	want := map[StopReason]string{
		StopNone:      "none",
		StopTolerance: "tolerance",
		StopBreakdown: "breakdown",
		StopEarly:     "early",
		StopMaxIter:   "maxiter",
	}
	for r, s := range want {
		if r.String() != s {
			t.Fatalf("%d.String() = %q, want %q", int(r), r.String(), s)
		}
	}
}
