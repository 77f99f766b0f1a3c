package method

import (
	"errors"
	"math/rand"
	"testing"
	"time"

	"bepi/internal/core"
	"bepi/internal/gen"
	"bepi/internal/graph"
	"bepi/internal/vec"
)

func allMethods(cfg Config) []Method {
	return []Method{
		NewBePI(cfg), NewBePIS(cfg), NewBePIB(cfg),
		NewPower(cfg), NewFullGMRES(cfg), NewLU(cfg), NewBear(cfg),
	}
}

func randGraph(rng *rand.Rand, n int) *graph.Graph {
	m := n + rng.Intn(4*n)
	edges := make([]graph.Edge, 0, m)
	for i := 0; i < m; i++ {
		e := graph.Edge{Src: rng.Intn(n), Dst: rng.Intn(n)}
		if e.Src < n-1-n/10 { // leave some deadends
			edges = append(edges, e)
		}
	}
	return graph.MustNew(n, edges)
}

func TestAllMethodsAgreeWithExact(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	cfg := Config{Tol: 1e-11}
	for trial := 0; trial < 4; trial++ {
		n := 30 + rng.Intn(60)
		g := randGraph(rng, n)
		seed := rng.Intn(n)
		want, err := core.ExactDense(g, core.DefaultC, seed)
		if err != nil {
			t.Fatal(err)
		}
		for _, m := range allMethods(cfg) {
			if err := m.Preprocess(g); err != nil {
				t.Fatalf("trial %d %s: preprocess: %v", trial, m.Name(), err)
			}
			got, info, err := m.Query(seed)
			if err != nil {
				t.Fatalf("trial %d %s: query: %v", trial, m.Name(), err)
			}
			if d := vec.Dist2(got, want); d > 1e-6 {
				t.Fatalf("trial %d %s: distance to exact %v", trial, m.Name(), d)
			}
			if info.Duration < 0 {
				t.Fatalf("%s: negative duration", m.Name())
			}
		}
	}
}

func TestQueryBeforePreprocess(t *testing.T) {
	for _, m := range allMethods(Config{}) {
		if _, _, err := m.Query(0); !errors.Is(err, ErrNotPreprocessed) {
			t.Errorf("%s: got %v, want ErrNotPreprocessed", m.Name(), err)
		}
	}
}

func TestMethodFamilies(t *testing.T) {
	cfg := Config{}
	prep := map[string]bool{
		"BePI": true, "BePI-S": true, "BePI-B": true,
		"Power": false, "GMRES": false, "LU": true, "Bear": true,
	}
	for _, m := range allMethods(cfg) {
		want, ok := prep[m.Name()]
		if !ok {
			t.Fatalf("unexpected method name %q", m.Name())
		}
		if m.IsPreprocessing() != want {
			t.Errorf("%s: IsPreprocessing = %v, want %v", m.Name(), m.IsPreprocessing(), want)
		}
	}
}

func TestPreprocessingMethodsReportMemory(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	g := randGraph(rng, 80)
	for _, m := range allMethods(Config{}) {
		if err := m.Preprocess(g); err != nil {
			t.Fatalf("%s: %v", m.Name(), err)
		}
		if m.IsPreprocessing() && m.MemoryBytes() <= 0 {
			t.Errorf("%s: preprocessing method reports no memory", m.Name())
		}
		if !m.IsPreprocessing() && m.MemoryBytes() != 0 {
			t.Errorf("%s: iterative method reports memory %d", m.Name(), m.MemoryBytes())
		}
	}
}

func TestBearOutOfMemoryOnTightBudget(t *testing.T) {
	g := gen.RMAT(gen.DefaultRMAT(9, 6, 3))
	m := NewBear(Config{Budget: Budget{Memory: 1024}})
	err := m.Preprocess(g)
	if !errors.Is(err, ErrOutOfMemory) {
		t.Fatalf("got %v, want ErrOutOfMemory", err)
	}
}

// TestBearBudgetCoversItsWholeFootprint: Bear refuses a budget one byte
// below its own MemoryBytes — S⁻¹ is only part of it, beside H11's factors
// and the blocks a query multiplies by — and fits in exactly that many, and
// a refused Bear answers no query.
func TestBearBudgetCoversItsWholeFootprint(t *testing.T) {
	g := gen.RMAT(gen.DefaultRMAT(11, 8, 6))
	probe := NewBear(Config{})
	if err := probe.Preprocess(g); err != nil {
		t.Fatal(err)
	}
	need := probe.MemoryBytes()
	if sinv := probe.sinv.MemoryBytes(); need-1 < sinv {
		t.Fatalf("the fixture's footprint %d B is S⁻¹'s %d B alone; it cannot tell the two budgets apart", need, sinv)
	}
	tight := NewBear(Config{Budget: Budget{Memory: need - 1}})
	if err := tight.Preprocess(g); !errors.Is(err, ErrOutOfMemory) {
		t.Fatalf("budget %d B, one below the footprint: got %v, want ErrOutOfMemory", need-1, err)
	}
	if _, _, err := tight.Query(0); !errors.Is(err, ErrNotPreprocessed) {
		t.Fatalf("a refused Bear answered a query: %v", err)
	}
	exact := NewBear(Config{Budget: Budget{Memory: need}})
	if err := exact.Preprocess(g); err != nil {
		t.Fatalf("budget %d B, the footprint: %v", need, err)
	}
}

func TestLUOutOfMemoryOnTightBudget(t *testing.T) {
	g := gen.RMAT(gen.DefaultRMAT(9, 6, 4))
	m := NewLU(Config{Budget: Budget{Memory: 2048}})
	err := m.Preprocess(g)
	if !errors.Is(err, ErrOutOfMemory) {
		t.Fatalf("got %v, want ErrOutOfMemory", err)
	}
}

func TestBePIOutOfTimeOnTinyDeadline(t *testing.T) {
	g := gen.RMAT(gen.DefaultRMAT(10, 6, 5))
	m := NewBePI(Config{Budget: Budget{Deadline: time.Nanosecond}})
	err := m.Preprocess(g)
	if !errors.Is(err, ErrOutOfTime) {
		t.Fatalf("got %v, want ErrOutOfTime", err)
	}
}

func TestBePICompletesWhereBearCannot(t *testing.T) {
	// The paper's central scalability claim at miniature scale: under the
	// same memory budget, BePI preprocesses a hub-heavy graph that Bear
	// cannot (Bear's dense S⁻¹ blows the budget; BePI's sparse S fits).
	g := gen.RMAT(gen.DefaultRMAT(13, 12, 6))
	// Measure what each method actually needs without a budget...
	probe := NewBePI(Config{})
	if err := probe.Preprocess(g); err != nil {
		t.Fatal(err)
	}
	bearProbe := NewBear(Config{})
	if err := bearProbe.Preprocess(g); err != nil {
		t.Fatal(err)
	}
	if bearProbe.MemoryBytes() <= 2*probe.MemoryBytes() {
		t.Fatalf("expected Bear (%d bytes) to need far more than BePI (%d bytes)",
			bearProbe.MemoryBytes(), probe.MemoryBytes())
	}
	// ...then pick a budget between the two: BePI fits, Bear must refuse.
	budget := Budget{Memory: probe.MemoryBytes() + (bearProbe.MemoryBytes()-probe.MemoryBytes())/4}
	bear := NewBear(Config{Budget: budget})
	if err := bear.Preprocess(g); !errors.Is(err, ErrOutOfMemory) {
		t.Fatalf("Bear: got %v, want ErrOutOfMemory", err)
	}
	bepi := NewBePI(Config{Budget: budget})
	if err := bepi.Preprocess(g); err != nil {
		t.Fatalf("BePI should fit in the budget: %v", err)
	}
}

func TestBearMatchesBePIQueryForQuery(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	g := randGraph(rng, 100)
	cfg := Config{Tol: 1e-11}
	bear := NewBear(cfg)
	bepi := NewBePI(cfg)
	if err := bear.Preprocess(g); err != nil {
		t.Fatal(err)
	}
	if err := bepi.Preprocess(g); err != nil {
		t.Fatal(err)
	}
	for trial := 0; trial < 5; trial++ {
		seed := rng.Intn(g.N())
		rb, _, err := bear.Query(seed)
		if err != nil {
			t.Fatal(err)
		}
		rp, _, err := bepi.Query(seed)
		if err != nil {
			t.Fatal(err)
		}
		if d := vec.Dist2(rb, rp); d > 1e-6 {
			t.Fatalf("seed %d: Bear vs BePI distance %v", seed, d)
		}
	}
}
