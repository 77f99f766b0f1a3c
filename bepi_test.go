package bepi

import (
	"bytes"
	"encoding/binary"
	"errors"
	"math"
	"strings"
	"testing"
	"time"

	"bepi/internal/core"
	"bepi/internal/vec"
)

func ringGraph(t *testing.T, n int) *Graph {
	t.Helper()
	edges := make([]Edge, 0, 2*n)
	for i := 0; i < n; i++ {
		edges = append(edges, Edge{i, (i + 1) % n}, Edge{(i + 1) % n, i})
	}
	g, err := NewGraph(n, edges)
	if err != nil {
		t.Fatal(err)
	}
	return g
}

func TestNewGraphValidation(t *testing.T) {
	if _, err := NewGraph(2, []Edge{{0, 5}}); err == nil {
		t.Fatal("expected error for out-of-range edge")
	}
	g, err := NewGraph(3, []Edge{{0, 1}, {0, 1}})
	if err != nil {
		t.Fatal(err)
	}
	if g.N() != 3 || g.M() != 1 {
		t.Fatalf("N=%d M=%d", g.N(), g.M())
	}
}

func TestReadGraphAndWriteEdgeList(t *testing.T) {
	g, err := ReadGraph(strings.NewReader("0 1\n1 2\n# x\n2 0\n"))
	if err != nil {
		t.Fatal(err)
	}
	if g.N() != 3 || g.M() != 3 {
		t.Fatalf("N=%d M=%d", g.N(), g.M())
	}
	var buf bytes.Buffer
	if err := g.WriteEdgeList(&buf); err != nil {
		t.Fatal(err)
	}
	back, err := ReadGraph(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if back.M() != g.M() {
		t.Fatal("round trip changed edges")
	}
}

func TestEngineQueryMatchesExact(t *testing.T) {
	g := RMAT(8, 6, 99)
	eng, err := New(g, WithTolerance(1e-11))
	if err != nil {
		t.Fatal(err)
	}
	seed := 5
	got, err := eng.Query(seed)
	if err != nil {
		t.Fatal(err)
	}
	want, err := core.ExactDense(g.Internal(), core.DefaultC, seed)
	if err != nil {
		t.Fatal(err)
	}
	if d := vec.Dist2(got, want); d > 1e-7 {
		t.Fatalf("distance to exact %v", d)
	}
}

func TestOptionsPlumbing(t *testing.T) {
	g := ringGraph(t, 50)
	eng, err := New(g,
		WithRestartProb(0.15),
		WithVariant(BePIS),
		WithHubRatio(0.3),
		WithMaxIterations(500),
		WithTolerance(1e-10),
	)
	if err != nil {
		t.Fatal(err)
	}
	opts := eng.Internal().Options()
	if opts.C != 0.15 || opts.Variant != BePIS || opts.HubRatio != 0.3 ||
		opts.MaxIter != 500 || opts.Tol != 1e-10 {
		t.Fatalf("options lost: %+v", opts)
	}
}

// TestHubRatioOutOfRangeIsAnError: a hub ratio SlashBurn cannot run with,
// or a stored index could not carry, is refused by New with an error, not a
// panic in the reordering.
func TestHubRatioOutOfRangeIsAnError(t *testing.T) {
	g := ringGraph(t, 50)
	for _, k := range []float64{1, 1.5, -0.1, math.NaN(), math.Inf(1)} {
		func() {
			defer func() {
				if r := recover(); r != nil {
					t.Errorf("hub ratio %v: New panicked: %v", k, r)
				}
			}()
			if _, err := New(g, WithHubRatio(k)); err == nil {
				t.Errorf("hub ratio %v: New returned no error", k)
			}
		}()
	}
}

func TestBudgetOptions(t *testing.T) {
	g := RMAT(9, 6, 3)
	if _, err := New(g, WithMemoryBudget(128)); err == nil {
		t.Fatal("expected memory budget error")
	}
	if _, err := New(g, WithDeadline(time.Nanosecond)); err == nil {
		t.Fatal("expected deadline error")
	}
	if _, err := New(nil); err == nil {
		t.Fatal("expected error for nil graph")
	}
}

func TestPersonalizedLinearity(t *testing.T) {
	g := RMAT(7, 5, 17)
	eng, err := New(g, WithTolerance(1e-11))
	if err != nil {
		t.Fatal(err)
	}
	q := make([]float64, g.N())
	q[1], q[2] = 0.25, 0.75
	got, err := eng.Personalized(q)
	if err != nil {
		t.Fatal(err)
	}
	r1, err := eng.Query(1)
	if err != nil {
		t.Fatal(err)
	}
	r2, err := eng.Query(2)
	if err != nil {
		t.Fatal(err)
	}
	for i := range got {
		want := 0.25*r1[i] + 0.75*r2[i]
		if math.Abs(got[i]-want) > 1e-8 {
			t.Fatalf("Personalized[%d] = %v want %v", i, got[i], want)
		}
	}
}

func TestTopKAndStats(t *testing.T) {
	g := ringGraph(t, 30)
	eng, err := New(g)
	if err != nil {
		t.Fatal(err)
	}
	top, err := eng.TopK(0, 4)
	if err != nil {
		t.Fatal(err)
	}
	if len(top) != 4 {
		t.Fatalf("len = %d", len(top))
	}
	// On a symmetric ring, the seed's two neighbors tie for first.
	if !(top[0].Node == 1 || top[0].Node == 29) {
		t.Fatalf("top = %+v", top)
	}
	_, st, err := eng.QueryWithStats(0)
	if err != nil {
		t.Fatal(err)
	}
	if st.Duration <= 0 {
		t.Fatal("missing duration")
	}
	if eng.MemoryBytes() <= 0 || eng.PreprocessTime() <= 0 {
		t.Fatal("missing accounting")
	}
}

func TestSaveLoad(t *testing.T) {
	g := RMAT(8, 5, 4)
	eng, err := New(g)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := eng.Save(&buf); err != nil {
		t.Fatal(err)
	}
	back, err := Load(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if back.N() != eng.N() {
		t.Fatal("node count lost")
	}
	want, err := eng.Query(3)
	if err != nil {
		t.Fatal(err)
	}
	got, err := back.Query(3)
	if err != nil {
		t.Fatal(err)
	}
	if d := vec.Dist2(got, want); d > 1e-12 {
		t.Fatalf("reloaded engine differs by %v", d)
	}
}

// TestLoadRefusesCorruptHeader: option words no engine writes — an iteration
// budget of 2⁴⁰ (or one flipped byte of it), c = 7, variant 9 — come back
// from Load as core.ErrCorruptIndex, not as an engine.
func TestLoadRefusesCorruptHeader(t *testing.T) {
	eng, err := New(RMAT(6, 4, 3))
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := eng.Save(&buf); err != nil {
		t.Fatal(err)
	}
	for name, patch := range map[string]func(raw []byte){
		"maxIter 1<<40": func(raw []byte) { binary.LittleEndian.PutUint64(raw[4+8*3:], 1<<40) },
		"maxIter flip":  func(raw []byte) { raw[30] ^= 0x7F },
		"c 7.0":         func(raw []byte) { binary.LittleEndian.PutUint64(raw[4:], math.Float64bits(7)) },
		"variant 9":     func(raw []byte) { binary.LittleEndian.PutUint64(raw[4+8*2:], 9) },
	} {
		raw := append([]byte(nil), buf.Bytes()...)
		patch(raw)
		if e, err := Load(bytes.NewReader(raw)); !errors.Is(err, core.ErrCorruptIndex) {
			t.Errorf("%s: Load returned (%v, %v), want core.ErrCorruptIndex", name, e, err)
		}
	}
}

func TestConcurrentQueries(t *testing.T) {
	g := RMAT(9, 6, 5)
	eng, err := New(g)
	if err != nil {
		t.Fatal(err)
	}
	want, err := eng.Query(1)
	if err != nil {
		t.Fatal(err)
	}
	const workers = 8
	errs := make(chan error, workers)
	for w := 0; w < workers; w++ {
		go func() {
			got, err := eng.Query(1)
			if err == nil && vec.Dist2(got, want) > 1e-12 {
				err = errDiffer
			}
			errs <- err
		}()
	}
	for w := 0; w < workers; w++ {
		if err := <-errs; err != nil {
			t.Fatal(err)
		}
	}
}

var errDiffer = errStr("concurrent query differs")

type errStr string

func (e errStr) Error() string { return string(e) }
