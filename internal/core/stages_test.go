package core

import (
	"context"
	"testing"
	"time"

	"bepi/internal/gen"
)

// TestQueryStageTimings checks that a query fills the per-phase breakdown:
// every phase is measured and the phases fit inside the total duration.
func TestQueryStageTimings(t *testing.T) {
	g := gen.RMAT(gen.DefaultRMAT(9, 8, 1))
	e, err := Preprocess(g, Options{})
	if err != nil {
		t.Fatal(err)
	}
	for _, seed := range []int{1, 4, 7} {
		_, stats, err := e.Query(seed)
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		st := stats.Stages
		if st.Solve <= 0 {
			t.Errorf("seed %d: Solve stage not timed: %+v", seed, st)
		}
		if st.Permute < 0 || st.Forward <= 0 || st.Back <= 0 {
			t.Errorf("seed %d: phases not timed: %+v", seed, st)
		}
		sum := st.Permute + st.Forward + st.Solve + st.Back
		if sum > stats.Duration+time.Millisecond {
			t.Errorf("seed %d: stages %v exceed total %v", seed, sum, stats.Duration)
		}
	}
}

// TestSetIterHook checks that the engine threads the solver's cheap
// per-iteration hook through the Schur solve.
func TestSetIterHook(t *testing.T) {
	g := gen.RMAT(gen.DefaultRMAT(8, 8, 2))
	e, err := Preprocess(g, Options{})
	if err != nil {
		t.Fatal(err)
	}
	var calls int
	var last float64
	e.SetIterHook(func(iter int, residual float64) {
		calls++
		last = residual
	})
	_, stats, err := e.Query(3)
	if err != nil {
		t.Fatal(err)
	}
	if calls != stats.Iterations {
		t.Fatalf("hook fired %d times, stats report %d iterations", calls, stats.Iterations)
	}
	if last != stats.Residual {
		t.Fatalf("hook residual %g, stats %g", last, stats.Residual)
	}
	// Removing the hook stops the calls.
	e.SetIterHook(nil)
	calls = 0
	if _, _, err := e.Query(4); err != nil {
		t.Fatal(err)
	}
	if calls != 0 {
		t.Fatal("hook fired after removal")
	}
}

// TestPanickingSolveDropsWorkspace: QueryVectorWS and TopKBoundedWS handed
// no workspace put the free-list one back only when the solve returns, so
// a solve that panics (here in the iteration hook) cannot recycle a
// workspace whose buffers it left in an unknown state.
func TestPanickingSolveDropsWorkspace(t *testing.T) {
	g := gen.RMAT(gen.DefaultRMAT(8, 8, 2))
	e, err := Preprocess(g, Options{})
	if err != nil {
		t.Fatal(err)
	}
	const seed = 3
	if _, st, err := e.Query(seed); err != nil || st.Iterations == 0 {
		t.Fatalf("seed %d: want an iterating solve, got %d iterations, err %v", seed, st.Iterations, err)
	}
	if err := e.CalibrateBound(); err != nil { // its reference solves run before the hook panics
		t.Fatal(err)
	}
	free := func() int {
		e.wsMu.Lock()
		defer e.wsMu.Unlock()
		return len(e.wsFree)
	}
	e.SetIterHook(func(int, float64) { panic("injected solver fault") })
	defer e.SetIterHook(nil)
	q := make([]float64, e.N())
	q[seed] = 1
	for _, c := range []struct {
		name  string
		solve func()
	}{
		{"QueryVectorWS", func() { _, _, _ = e.QueryVectorWS(context.Background(), q) }},
		{"TopKBoundedWS", func() { _, _, _, _ = e.TopKBoundedWS(context.Background(), q, seed, 5) }},
	} {
		before := free()
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s: the injected panic did not surface", c.name)
				}
			}()
			c.solve()
		}()
		if got, want := free(), max(before-1, 0); got != want {
			t.Errorf("%s: %d workspaces on the free list after a panicking solve, want %d", c.name, got, want)
		}
	}
}
