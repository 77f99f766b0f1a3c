package server

import (
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"testing"
)

// promFamily is one parsed metric family of a text exposition.
type promFamily struct {
	typ     string
	samples map[string]float64 // "name{labels}" → value
}

// parseProm parses the Prometheus text format strictly enough to catch the
// mistakes a real scraper rejects: samples without a preceding TYPE,
// duplicate family declarations, and unparsable sample lines.
func parseProm(t *testing.T, body string) map[string]*promFamily {
	t.Helper()
	fams := map[string]*promFamily{}
	var cur string
	for ln, line := range strings.Split(strings.TrimRight(body, "\n"), "\n") {
		switch {
		case strings.HasPrefix(line, "# HELP "):
			// checked via the TYPE line that must follow
		case strings.HasPrefix(line, "# TYPE "):
			f := strings.Fields(line)
			if len(f) != 4 {
				t.Fatalf("line %d: bad TYPE line %q", ln+1, line)
			}
			if _, dup := fams[f[2]]; dup {
				t.Fatalf("line %d: duplicate family %q", ln+1, f[2])
			}
			cur = f[2]
			fams[cur] = &promFamily{typ: f[3], samples: map[string]float64{}}
		case strings.HasPrefix(line, "#"):
			t.Fatalf("line %d: unknown comment %q", ln+1, line)
		default:
			sp := strings.LastIndexByte(line, ' ')
			if sp < 0 {
				t.Fatalf("line %d: bad sample %q", ln+1, line)
			}
			key, val := line[:sp], line[sp+1:]
			name := key
			if i := strings.IndexByte(name, '{'); i >= 0 {
				name = name[:i]
			}
			if cur == "" || !strings.HasPrefix(name, cur) {
				t.Fatalf("line %d: sample %q outside its family (current %q)", ln+1, key, cur)
			}
			v, err := strconv.ParseFloat(strings.ReplaceAll(val, "+Inf", "Inf"), 64)
			if err != nil {
				t.Fatalf("line %d: bad value %q: %v", ln+1, val, err)
			}
			fams[cur].samples[key] = v
		}
	}
	return fams
}

// TestMetricsPrometheus drives traffic, scrapes /metrics.prom, and checks
// the exposition parses with no duplicates and with counters and
// histograms that agree with the traffic and with each other. (Which
// families exist is pinned by cluster's TestMetricsGolden and
// TestMetricsREADMETable.)
func TestMetricsPrometheus(t *testing.T) {
	s, _ := testServer(t)
	defer s.Close()
	get(t, s, "/query?seed=1") // solve: vector or certified ranking cached
	get(t, s, "/query?seed=1") // cache hit
	get(t, s, "/query?seed=2")

	req := httptest.NewRequest(http.MethodGet, "/metrics.prom", nil)
	rec := httptest.NewRecorder()
	s.ServeHTTP(rec, req)
	if rec.Code != http.StatusOK {
		t.Fatalf("status %d", rec.Code)
	}
	if ct := rec.Header().Get("Content-Type"); !strings.HasPrefix(ct, "text/plain") {
		t.Fatalf("content type %q", ct)
	}
	fams := parseProm(t, rec.Body.String())

	if v := fams["bepi_queries_total"].samples["bepi_queries_total"]; v != 3 {
		t.Errorf("bepi_queries_total = %v, want 3", v)
	}
	if v := fams["bepi_cache_hits_total"].samples["bepi_cache_hits_total"]; v < 1 {
		t.Errorf("bepi_cache_hits_total = %v, want ≥ 1", v)
	}
	lat := fams["bepi_query_latency_seconds"]
	count := lat.samples["bepi_query_latency_seconds_count"]
	inf := lat.samples[`bepi_query_latency_seconds_bucket{le="+Inf"}`]
	if count != 3 || inf != count {
		t.Errorf("latency histogram: count=%v +Inf bucket=%v, want both 3", count, inf)
	}
	if lat.samples["bepi_query_latency_seconds_sum"] <= 0 {
		t.Error("latency histogram sum not positive")
	}
	// The one-pass operator is applied once per solver iteration and nowhere
	// else; the preconditioner histogram sees the two half-passes of every
	// solve (calibration solves included), never a sweep per iteration.
	applies := fams["bepi_schur_apply_seconds"].samples["bepi_schur_apply_seconds_count"]
	if iters := fams["bepi_solver_iterations_total"].samples["bepi_solver_iterations_total"]; applies < 1 || applies != iters {
		t.Errorf("%v Schur-operator applications observed over %v solver iterations", applies, iters)
	}
	if sweeps := fams["bepi_precond_apply_seconds"].samples["bepi_precond_apply_seconds_count"]; sweeps < 2 || int(sweeps)%2 != 0 {
		t.Errorf("%v preconditioner half-passes observed next to %v operator applications", sweeps, applies)
	}
	if fams["bepi_kernel_bytes_total"].samples["bepi_kernel_bytes_total"] <= 0 {
		t.Error("kernel bytes counter not positive")
	}
	stages := fams["bepi_prep_stage_seconds"]
	for _, stage := range []string{"reorder", "build_h", "factor_h11", "schur", "total"} {
		if _, ok := stages.samples[`bepi_prep_stage_seconds{stage="`+stage+`"}`]; !ok {
			t.Errorf("prep stage %q missing from exposition", stage)
		}
	}
}

// TestMetricsContentNegotiation checks that /metrics answers JSON by
// default and Prometheus text when the scraper asks for it.
func TestMetricsContentNegotiation(t *testing.T) {
	s, _ := testServer(t)
	defer s.Close()
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
		s.ServeHTTP(rec, req)
		isProm := strings.HasPrefix(rec.Header().Get("Content-Type"), "text/plain")
		if isProm != tc.wantProm {
			t.Errorf("%s (Accept=%q): prometheus=%v, want %v", tc.path, tc.accept, isProm, tc.wantProm)
		}
	}
}

// TestDebugTraces checks that served queries show up at /debug/traces with
// their stage spans.
func TestDebugTraces(t *testing.T) {
	s, _ := testServer(t)
	defer s.Close()
	// exact=true pins the solve to the full path: its trace carries the
	// executor-side "rank" span (the bounded path ranks inside the engine
	// batch instead), and the hit below ranks the cached vector.
	get(t, s, "/query?seed=3&exact=true")
	get(t, s, "/query?seed=3") // hit: ranks the cached full vector
	rec, body := get(t, s, "/debug/traces?n=10")
	if rec.Code != http.StatusOK {
		t.Fatalf("status %d", rec.Code)
	}
	if int(body["count"].(float64)) != 2 {
		t.Fatalf("count = %v, want 2", body["count"])
	}
	traces := body["traces"].([]any)
	// Newest first: the cache hit, then the solve.
	hit := traces[0].(map[string]any)
	if hit["cached"] != true {
		t.Errorf("newest trace not marked cached: %v", hit)
	}
	miss := traces[1].(map[string]any)
	names := map[string]bool{}
	for _, sp := range miss["spans"].([]any) {
		names[sp.(map[string]any)["name"].(string)] = true
	}
	for _, want := range []string{"cache", "admission", "solve", "rank"} {
		if !names[want] {
			t.Errorf("solve trace lacks %q span (have %v)", want, names)
		}
	}
	req := httptest.NewRequest(http.MethodGet, "/debug/traces?n=bogus", nil)
	rec2 := httptest.NewRecorder()
	s.ServeHTTP(rec2, req)
	if rec2.Code != http.StatusBadRequest {
		t.Errorf("bad n: status %d, want 400", rec2.Code)
	}
}

// TestQueryDebugParam checks the ?debug=1 solver/stage detail block.
func TestQueryDebugParam(t *testing.T) {
	s, _ := testServer(t)
	defer s.Close()
	// A default bound-pruned query: whether or not its solve stops early,
	// the answer is remembered (the certified ranking under (seed, k), or
	// the full vector), so the replay below is a deterministic hit.
	_, body := get(t, s, "/query?seed=4&debug=1")
	early := body["early_stopped"]
	dbg, ok := body["debug"].(map[string]any)
	if !ok {
		t.Fatalf("no debug block: %v", body)
	}
	if dbg["iterations"].(float64) < 1 {
		t.Errorf("debug iterations = %v", dbg["iterations"])
	}
	if dbg["residual"].(float64) <= 0 {
		t.Errorf("debug residual = %v", dbg["residual"])
	}
	stages, ok := dbg["stage_ms"].(map[string]any)
	if !ok {
		t.Fatalf("no stage_ms: %v", dbg)
	}
	if stages["solve_ms"].(float64) <= 0 {
		t.Errorf("solve_ms = %v", stages["solve_ms"])
	}
	// Cached replay: debug says cached, no engine stages.
	_, body = get(t, s, "/query?seed=4&debug=1")
	dbg = body["debug"].(map[string]any)
	if dbg["cached"] != true {
		t.Errorf("second query debug not cached: %v", dbg)
	}
	if _, has := dbg["stage_ms"]; has {
		t.Errorf("cached query reports engine stages: %v", dbg)
	}
	if body["cached"] != true || body["early_stopped"] != early {
		t.Errorf("replay cached=%v early_stopped=%v, want true and %v", body["cached"], body["early_stopped"], early)
	}
	// Without the param there is no debug block.
	_, body = get(t, s, "/query?seed=4")
	if _, has := body["debug"]; has {
		t.Error("debug block present without ?debug=1")
	}
}

// TestMetricsJSONObservability checks the JSON /metrics additions: prep
// stats and latency quantiles.
func TestMetricsJSONObservability(t *testing.T) {
	s, _ := testServer(t)
	defer s.Close()
	// One solve, then a deterministic hit on what it left in the cache.
	get(t, s, "/query?seed=5")
	get(t, s, "/query?seed=5")
	_, body := get(t, s, "/metrics")
	prep, ok := body["prep"].(map[string]any)
	if !ok {
		t.Fatalf("no prep block: %v", body)
	}
	if prep["total_ms"].(float64) <= 0 || prep["nodes"].(float64) <= 0 {
		t.Errorf("prep stats empty: %v", prep)
	}
	lat, ok := body["query_latency"].(map[string]any)
	if !ok {
		t.Fatalf("no query_latency block: %v", body)
	}
	if lat["count"].(float64) != 2 {
		t.Errorf("query_latency count = %v, want 2", lat["count"])
	}
	if lat["p50_ms"].(float64) <= 0 || lat["p99_ms"].(float64) < lat["p50_ms"].(float64) {
		t.Errorf("quantiles inconsistent: %v", lat)
	}
	if body["hit_rate"].(float64) != 0.5 {
		t.Errorf("hit_rate = %v, want 0.5", body["hit_rate"])
	}
	if body["solver_iters_total"].(float64) < 1 {
		t.Errorf("solver_iters_total = %v", body["solver_iters_total"])
	}
}
