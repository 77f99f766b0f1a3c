package cluster

import (
	"context"
	"encoding/json"
	"fmt"
	"math"
	"net/http"
	"net/http/httptest"
	"reflect"
	"sort"
	"strings"
	"testing"

	"bepi"
	"bepi/internal/core"
	"bepi/internal/obs"
	"bepi/internal/qexec"
	"bepi/internal/server"
)

// flatBackend answers every node with the same score: the all-ties
// workload, where only the ranking's tie-break decides which nodes make
// the top k.
type flatBackend struct {
	name string
	n    int
}

func (f *flatBackend) Name() string { return f.name }

// Query answers with the full vector: the only fetch a personalized merge
// makes.
func (f *flatBackend) Query(ctx context.Context, seed, topk int, full, exact bool) (Partial, error) {
	return Partial{Seed: seed, Replica: f.name, Generation: 1, IndexHash: "flat", Scores: f.vector()}, nil
}

func (f *flatBackend) vector() []float64 {
	v := make([]float64, f.n)
	for i := range v {
		v[i] = 0.1
	}
	return v
}

func (f *flatBackend) Health(ctx context.Context) (Health, error) {
	return Health{Nodes: f.n, Generation: 1, IndexHash: "flat"}, nil
}

// oracleMerge is the personalized merge computed locally: Σ (wᵢ/Σw)·vᵢ
// accumulated in ascending seed order, ranked with RankTopKFunc, seeds and
// non-positive scores left out.
func oracleMerge(weights map[int]float64, topk int, vector func(seed int) []float64) []server.RankedEntry {
	seeds := make([]int, 0, len(weights))
	var sum float64
	for s, w := range weights {
		seeds = append(seeds, s)
		sum += w
	}
	sort.Ints(seeds)
	var merged []float64
	for _, s := range seeds {
		v := vector(s)
		if merged == nil {
			merged = make([]float64, len(v))
		}
		w := weights[s] / sum
		for n, x := range v {
			merged[n] += w * x
		}
	}
	top := []server.RankedEntry{}
	for _, r := range core.RankTopKFunc(merged, topk, func(node int) bool {
		_, seed := weights[node]
		return seed || merged[node] <= 0
	}) {
		top = append(top, server.RankedEntry{Node: r.Node, Score: r.Score})
	}
	return top
}

// personalizedCase is one row of the personalized-merge oracle: a set of
// backends, the per-seed full vector they serve, a weight map and the topk
// values to ask for.
type personalizedCase struct {
	name     string
	backends []Backend
	vector   func(int) []float64
	weights  map[int]float64
	topks    []int
}

// checkPersonalizedOracle is the one oracle for every personalized merge:
// Coordinator.Personalized must return the local sum's ranking with the
// same nodes and the same float64 bits.
func checkPersonalizedOracle(t *testing.T, cases []personalizedCase) {
	t.Helper()
	for _, tc := range cases {
		c, err := New(tc.backends, testConfig())
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(c.Close)
		for _, topk := range tc.topks {
			want := oracleMerge(tc.weights, topk, tc.vector)
			got, err := c.Personalized(context.Background(), tc.weights, topk)
			if err != nil {
				t.Fatalf("%s topk %d: %v", tc.name, topk, err)
			}
			if len(got.Top) != len(want) || len(want) == 0 {
				t.Fatalf("%s topk %d: %d entries, oracle %d", tc.name, topk, len(got.Top), len(want))
			}
			for i := range want {
				if got.Top[i].Node != want[i].Node ||
					math.Float64bits(got.Top[i].Score) != math.Float64bits(want[i].Score) {
					t.Fatalf("%s topk %d entry %d: %+v, oracle %+v", tc.name, topk, i, got.Top[i], want[i])
				}
			}
		}
	}
}

// TestPersonalizedRankMergeMatchesFull runs the oracle over real replicas of
// a skewed RMAT graph, with topk up to and past the width of any per-seed
// list, and over a weight map holding a zero-weight seed. (The name dates
// from the rank merge the coordinator once had; the full-vector merge is
// now its only one.)
func TestPersonalizedRankMergeMatchesFull(t *testing.T) {
	g := bepi.RMAT(8, 6, 5)
	rmat := make([]Backend, 3)
	for i := range rmat {
		c := server.NewCore(wireEngine(t, g), qexec.Config{})
		t.Cleanup(c.Close)
		rmat[i] = NewLocalBackend(fmt.Sprintf("replica-%d", i), c)
	}
	eng := wireEngine(t, g)
	engVector := func(seed int) []float64 {
		v, err := eng.Query(seed)
		if err != nil {
			t.Fatal(err)
		}
		return v
	}
	checkPersonalizedOracle(t, []personalizedCase{
		{"rmat", rmat, engVector, map[int]float64{3: 1, 17: 2, 40: 0.5}, []int{1, 5, 10, 64, 200}},
		{"rmat zero-weight seed", rmat, engVector, map[int]float64{3: 1, 17: 0, 40: 0.5}, []int{5, 64}},
	})
}

// TestPersonalizedRankMergeFallsBackOnTies runs the oracle over the all-ties
// backend, where only RankTopKFunc's tie-break decides the top k.
func TestPersonalizedRankMergeFallsBackOnTies(t *testing.T) {
	flat := &flatBackend{name: "r0", n: 100}
	checkPersonalizedOracle(t, []personalizedCase{
		{"all ties", []Backend{flat}, func(int) []float64 { return flat.vector() }, map[int]float64{0: 1, 1: 1}, []int{16}},
	})
}

// TestConfigFieldCount pins cluster.Config: a coordinator knob is added
// only with a benchmark row that justifies it.
func TestConfigFieldCount(t *testing.T) {
	if n := reflect.TypeOf(Config{}).NumField(); n != 8 {
		t.Fatalf("cluster.Config has %d fields, want 8", n)
	}
}

// TestCoordinatorRemovedMergeLeavesNoTrace: the coordinator's metrics and
// /personalized bodies name no merge mode and no counter of the list-based
// merge it no longer has.
func TestCoordinatorRemovedMergeLeavesNoTrace(t *testing.T) {
	c := newTestCoordinator(t, testConfig(), newFake("r0", 10), newFake("r1", 10))
	h := NewHandler(c)
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/personalized",
		strings.NewReader(`{"weights":{"2":1,"7":3},"topk":5}`)))
	if rec.Code != http.StatusOK {
		t.Fatalf("/personalized: status %d: %s", rec.Code, rec.Body)
	}
	bodies := map[string]string{"/personalized": rec.Body.String()}
	for _, path := range []string{"/metrics", "/metrics.prom"} {
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, path, nil))
		if rec.Code != http.StatusOK {
			t.Fatalf("%s: status %d", path, rec.Code)
		}
		bodies[path] = rec.Body.String()
	}
	for path, body := range bodies {
		for _, gone := range []string{"rank_merge", "escalation", "full_fallback", `"mode"`} {
			if strings.Contains(body, gone) {
				t.Errorf("%s still mentions %q", path, gone)
			}
		}
	}
}

// TestCoordinatorMetricsContentNegotiation is the shard's /metrics
// negotiation table run against the coordinator: both tiers answer the
// same Accept headers with the same format.
func TestCoordinatorMetricsContentNegotiation(t *testing.T) {
	h := NewHandler(newTestCoordinator(t, testConfig(), newFake("r0", 10)))
	for _, tc := range []struct {
		path, accept string
		wantProm     bool
	}{
		{"/metrics", "", false},
		{"/metrics", "application/json", false},
		{"/metrics", "text/plain", true},
		{"/metrics", "application/openmetrics-text; version=1.0.0", true},
		{"/metrics?format=prometheus", "", true},
		{"/metrics.prom", "", true},
	} {
		req := httptest.NewRequest(http.MethodGet, tc.path, nil)
		if tc.accept != "" {
			req.Header.Set("Accept", tc.accept)
		}
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, req)
		isProm := strings.HasPrefix(rec.Header().Get("Content-Type"), "text/plain")
		if isProm != tc.wantProm {
			t.Errorf("%s (Accept=%q): prometheus=%v, want %v", tc.path, tc.accept, isProm, tc.wantProm)
		}
	}
}

// TestCoordinatorDebugCount: the coordinator's debug endpoints parse ?n=
// as the shard's do — a negative n is a 400, and a huge one is capped.
func TestCoordinatorDebugCount(t *testing.T) {
	cfg := testConfig()
	cfg.Obs = obs.New(obs.Options{TraceSample: 1, TraceCapacity: 1024})
	c := newTestCoordinator(t, cfg, newFake("r0", 10))
	for seed := 0; seed < 600; seed++ {
		if _, err := c.Query(context.Background(), seed%10, 3, false); err != nil {
			t.Fatal(err)
		}
	}
	h := NewHandler(c)
	for _, path := range []string{"/debug/traces", "/debug/events"} {
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, path+"?n=-1", nil))
		if rec.Code != http.StatusBadRequest {
			t.Errorf("%s?n=-1: status %d, want 400", path, rec.Code)
		}
		rec = httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, path+"?n=100000", nil))
		var body struct{ Count int }
		if err := json.Unmarshal(rec.Body.Bytes(), &body); rec.Code != http.StatusOK || err != nil {
			t.Fatalf("%s?n=100000: status %d, %v", path, rec.Code, err)
		}
		if body.Count > 512 {
			t.Errorf("%s?n=100000: %d items, want at most 512", path, body.Count)
		}
	}
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/debug/traces?n=100000", nil))
	if !strings.Contains(rec.Body.String(), `"count":512`) {
		t.Errorf("600 traced queries, ?n=100000 should return the 512-item cap: %.200s", rec.Body)
	}
}
