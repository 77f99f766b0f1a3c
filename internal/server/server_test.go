package server

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"testing"

	"bepi"
	"bepi/internal/obs"
	"bepi/internal/qexec"
)

func testServer(t *testing.T) (*Server, *bepi.Engine) {
	t.Helper()
	g := bepi.RMAT(8, 6, 5)
	eng, err := bepi.New(g)
	if err != nil {
		t.Fatal(err)
	}
	// Trace every query (the default samples 1-in-N) so trace assertions
	// are deterministic.
	s := NewWithConfig(eng, qexec.Config{Obs: obs.New(obs.Options{})})
	return s, eng
}

func get(t *testing.T, s *Server, path string) (*httptest.ResponseRecorder, map[string]any) {
	t.Helper()
	req := httptest.NewRequest(http.MethodGet, path, nil)
	rec := httptest.NewRecorder()
	s.ServeHTTP(rec, req)
	var body map[string]any
	if err := json.Unmarshal(rec.Body.Bytes(), &body); err != nil {
		t.Fatalf("%s: invalid JSON %q: %v", path, rec.Body.String(), err)
	}
	return rec, body
}

func TestHealthz(t *testing.T) {
	s, eng := testServer(t)
	rec, body := get(t, s, "/healthz")
	if rec.Code != http.StatusOK {
		t.Fatalf("status %d", rec.Code)
	}
	if body["status"] != "ok" || int(body["nodes"].(float64)) != eng.N() {
		t.Fatalf("body %v", body)
	}
}

func TestStats(t *testing.T) {
	s, eng := testServer(t)
	rec, body := get(t, s, "/stats")
	if rec.Code != http.StatusOK {
		t.Fatalf("status %d", rec.Code)
	}
	if int(body["nodes"].(float64)) != eng.N() {
		t.Fatalf("nodes %v", body["nodes"])
	}
	if body["variant"] != "BePI" || body["preconditioned"] != true {
		t.Fatalf("variant fields wrong: %v", body)
	}
	spokes := int(body["spokes"].(float64))
	hubs := int(body["hubs"].(float64))
	deadends := int(body["deadends"].(float64))
	if spokes+hubs+deadends != eng.N() {
		t.Fatal("partition does not sum to n")
	}
}

func TestQueryTopK(t *testing.T) {
	s, _ := testServer(t)
	rec, body := get(t, s, "/query?seed=1&topk=5")
	if rec.Code != http.StatusOK {
		t.Fatalf("status %d: %v", rec.Code, body)
	}
	top := body["top"].([]any)
	if len(top) != 5 {
		t.Fatalf("top has %d entries", len(top))
	}
	prev := 1.0
	for _, e := range top {
		ent := e.(map[string]any)
		score := ent["score"].(float64)
		if score > prev {
			t.Fatal("top not sorted")
		}
		prev = score
	}
}

// TestQueryExactParam checks the ?exact=true escape hatch: the ranking
// must name the same node set as the default bound-pruned path, and an
// exact response is never marked early-stopped.
func TestQueryExactParam(t *testing.T) {
	s, _ := testServer(t)
	rec, exact := get(t, s, "/query?seed=6&topk=8&exact=true")
	if rec.Code != http.StatusOK {
		t.Fatalf("status %d: %v", rec.Code, exact)
	}
	if exact["early_stopped"] == true {
		t.Fatalf("exact query marked early_stopped: %v", exact)
	}
	set := map[float64]bool{}
	for _, e := range exact["top"].([]any) {
		set[e.(map[string]any)["node"].(float64)] = true
	}
	// Fresh server so the bounded query can't just rank the cached vector.
	s2, _ := testServer(t)
	_, bounded := get(t, s2, "/query?seed=6&topk=8")
	top := bounded["top"].([]any)
	if len(top) != len(set) {
		t.Fatalf("bounded top has %d entries, exact %d", len(top), len(set))
	}
	for _, e := range top {
		if node := e.(map[string]any)["node"].(float64); !set[node] {
			t.Fatalf("bounded top-k node %v not in exact set %v", node, exact["top"])
		}
	}
	_, metrics := get(t, s2, "/metrics")
	if _, ok := metrics["topk_solves"]; !ok {
		t.Fatalf("metrics lack topk_solves: %v", metrics)
	}
	if _, ok := metrics["topk_iters_saved"]; !ok {
		t.Fatalf("metrics lack topk_iters_saved: %v", metrics)
	}
}

func TestQueryFullVector(t *testing.T) {
	s, eng := testServer(t)
	rec, body := get(t, s, "/query?seed=2&full=true")
	if rec.Code != http.StatusOK {
		t.Fatalf("status %d", rec.Code)
	}
	scores := body["scores"].([]any)
	if len(scores) != eng.N() {
		t.Fatalf("scores length %d want %d", len(scores), eng.N())
	}
	want, err := eng.Query(2)
	if err != nil {
		t.Fatal(err)
	}
	for i, v := range scores {
		if diff := v.(float64) - want[i]; diff > 1e-12 || diff < -1e-12 {
			t.Fatalf("score[%d] differs", i)
		}
	}
}

func TestQueryValidation(t *testing.T) {
	s, eng := testServer(t)
	cases := []struct {
		path string
		code int
	}{
		{"/query?seed=abc", http.StatusBadRequest},
		{"/query?seed=-1", http.StatusBadRequest},
		{fmt.Sprintf("/query?seed=%d", eng.N()), http.StatusBadRequest},
		{"/query?seed=1&topk=-2", http.StatusBadRequest},
		{"/query", http.StatusBadRequest},
	}
	for _, c := range cases {
		rec, body := get(t, s, c.path)
		if rec.Code != c.code {
			t.Errorf("%s: status %d want %d", c.path, rec.Code, c.code)
		}
		if body["error"] == "" {
			t.Errorf("%s: missing error message", c.path)
		}
	}
	// Wrong method.
	req := httptest.NewRequest(http.MethodPost, "/query?seed=1", nil)
	rec := httptest.NewRecorder()
	s.ServeHTTP(rec, req)
	if rec.Code != http.StatusMethodNotAllowed {
		t.Fatalf("POST /query status %d", rec.Code)
	}
}

// TestQueryHugeTopK: a topk beyond the node count answers with every
// other node through /query and /personalized, and the server keeps
// serving. Both once sized a ranking heap by topk, so topk=2⁴⁰ killed the
// process with an uncatchable out-of-memory.
func TestQueryHugeTopK(t *testing.T) {
	s, eng := testServer(t)
	rec, body := get(t, s, "/query?seed=0&topk=1099511627776")
	if rec.Code != http.StatusOK {
		t.Fatalf("/query: status %d: %v", rec.Code, body)
	}
	if top := body["top"].([]any); len(top) != eng.N()-1 {
		t.Fatalf("/query: %d entries, want every node but the seed (%d)", len(top), eng.N()-1)
	}
	personalized := func(topk int) []byte {
		t.Helper()
		req := httptest.NewRequest(http.MethodPost, "/personalized",
			bytes.NewReader([]byte(fmt.Sprintf(`{"weights":{"1":1,"2":3},"topk":%d}`, topk))))
		rec := httptest.NewRecorder()
		s.ServeHTTP(rec, req)
		if rec.Code != http.StatusOK {
			t.Fatalf("/personalized topk=%d: status %d: %s", topk, rec.Code, rec.Body)
		}
		var resp PersonalizedResponse
		if err := json.Unmarshal(rec.Body.Bytes(), &resp); err != nil {
			t.Fatal(err)
		}
		top, err := json.Marshal(resp.Top)
		if err != nil {
			t.Fatal(err)
		}
		return top
	}
	if huge, all := personalized(1<<40), personalized(eng.N()); !bytes.Equal(huge, all) {
		t.Fatalf("/personalized topk=2⁴⁰ ranks\n%s\nwant what topk=N ranks\n%s", huge, all)
	}
	if rec, body := get(t, s, "/query?seed=1&topk=5"); rec.Code != http.StatusOK {
		t.Fatalf("server stopped serving: status %d: %v", rec.Code, body)
	}
}

func TestPersonalized(t *testing.T) {
	s, eng := testServer(t)
	body, _ := json.Marshal(PersonalizedRequest{
		Weights: map[int]float64{1: 1, 2: 3},
		TopK:    7,
	})
	req := httptest.NewRequest(http.MethodPost, "/personalized", bytes.NewReader(body))
	rec := httptest.NewRecorder()
	s.ServeHTTP(rec, req)
	if rec.Code != http.StatusOK {
		t.Fatalf("status %d: %s", rec.Code, rec.Body.String())
	}
	var resp map[string]any
	if err := json.Unmarshal(rec.Body.Bytes(), &resp); err != nil {
		t.Fatal(err)
	}
	top := resp["top"].([]any)
	if len(top) == 0 || len(top) > 7 {
		t.Fatalf("top has %d entries", len(top))
	}
	for _, e := range top {
		node := int(e.(map[string]any)["node"].(float64))
		if node == 1 || node == 2 {
			t.Fatal("seeds must be excluded from the ranking")
		}
		if node < 0 || node >= eng.N() {
			t.Fatal("node out of range")
		}
	}
}

func TestPersonalizedValidation(t *testing.T) {
	s, _ := testServer(t)
	bad := []string{
		`not json`,
		`{"weights":{}}`,
		`{"weights":{"abc":1}}`,
		`{"weights":{"99999":1}}`,
		`{"weights":{"1":-1}}`,
		`{"weights":{"1":0}}`,
	}
	for _, b := range bad {
		req := httptest.NewRequest(http.MethodPost, "/personalized", bytes.NewReader([]byte(b)))
		rec := httptest.NewRecorder()
		s.ServeHTTP(rec, req)
		if rec.Code != http.StatusBadRequest {
			t.Errorf("body %q: status %d want 400", b, rec.Code)
		}
	}
	req := httptest.NewRequest(http.MethodGet, "/personalized", nil)
	rec := httptest.NewRecorder()
	s.ServeHTTP(rec, req)
	if rec.Code != http.StatusMethodNotAllowed {
		t.Fatalf("GET /personalized status %d", rec.Code)
	}
}

func TestMetrics(t *testing.T) {
	s, _ := testServer(t)
	// Two good queries, one bad one.
	get(t, s, "/query?seed=1")
	get(t, s, "/query?seed=2")
	get(t, s, "/query?seed=notanumber")
	rec, body := get(t, s, "/metrics")
	if rec.Code != http.StatusOK {
		t.Fatalf("status %d", rec.Code)
	}
	if int(body["queries"].(float64)) != 2 {
		t.Fatalf("queries = %v", body["queries"])
	}
	if int(body["errors"].(float64)) != 1 {
		t.Fatalf("errors = %v", body["errors"])
	}
	if body["avg_query_ms"].(float64) <= 0 {
		t.Fatal("avg query time missing")
	}
	if body["index_bytes"].(float64) <= 0 {
		t.Fatal("index bytes missing")
	}
}

func TestPersonalizedMatchesEngine(t *testing.T) {
	s, eng := testServer(t)
	body := []byte(`{"weights":{"3":0.5,"7":0.5},"topk":3}`)
	req := httptest.NewRequest(http.MethodPost, "/personalized", bytes.NewReader(body))
	rec := httptest.NewRecorder()
	s.ServeHTTP(rec, req)
	if rec.Code != http.StatusOK {
		t.Fatalf("status %d", rec.Code)
	}
	q := make([]float64, eng.N())
	q[3], q[7] = 0.5, 0.5
	want, err := eng.Personalized(q)
	if err != nil {
		t.Fatal(err)
	}
	var resp map[string]any
	if err := json.Unmarshal(rec.Body.Bytes(), &resp); err != nil {
		t.Fatal(err)
	}
	top := resp["top"].([]any)
	first := top[0].(map[string]any)
	node := int(first["node"].(float64))
	score := first["score"].(float64)
	if diff := score - want[node]; diff > 1e-12 || diff < -1e-12 {
		t.Fatalf("server score %v, engine %v", score, want[node])
	}
}
