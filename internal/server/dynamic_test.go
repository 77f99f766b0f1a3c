package server

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"bepi"
	"bepi/internal/qexec"
)

func testDynamicServer(t *testing.T) (*Server, *bepi.Dynamic) {
	t.Helper()
	g := bepi.RMAT(8, 6, 5)
	d, err := bepi.NewDynamic(g)
	if err != nil {
		t.Fatal(err)
	}
	s := NewDynamic(d, qexec.Config{})
	t.Cleanup(s.Close)
	return s, d
}

func post(t *testing.T, s *Server, path string, payload any) (*httptest.ResponseRecorder, map[string]any) {
	t.Helper()
	var buf bytes.Buffer
	if payload != nil {
		if err := json.NewEncoder(&buf).Encode(payload); err != nil {
			t.Fatal(err)
		}
	}
	req := httptest.NewRequest(http.MethodPost, path, &buf)
	rec := httptest.NewRecorder()
	s.ServeHTTP(rec, req)
	var body map[string]any
	if err := json.Unmarshal(rec.Body.Bytes(), &body); err != nil {
		t.Fatalf("%s: invalid JSON %q: %v", path, rec.Body.String(), err)
	}
	return rec, body
}

// waitFlush polls GET /flush/{id} until the rebuild settles.
func waitFlush(t *testing.T, s *Server, id uint64) map[string]any {
	t.Helper()
	deadline := time.Now().Add(30 * time.Second)
	for time.Now().Before(deadline) {
		rec, body := get(t, s, fmt.Sprintf("/flush/%d", id))
		if rec.Code != http.StatusOK {
			t.Fatalf("/flush/%d: status %d body %v", id, rec.Code, body)
		}
		if body["state"] != string(bepi.RebuildRunning) {
			return body
		}
		time.Sleep(time.Millisecond)
	}
	t.Fatalf("rebuild %d never settled", id)
	return nil
}

// TestDynamicEndpointsEndToEnd drives the full online-update flow over
// HTTP: buffer edges, start an async flush, poll its status, and check the
// swapped-in engine serves the new edge — including past the score cache.
func TestDynamicEndpointsEndToEnd(t *testing.T) {
	s, d := testDynamicServer(t)
	n := d.N()

	// Prime the cache for a seed, so a stale hit after the swap would show.
	rec, before := get(t, s, "/query?seed=0&full=true")
	if rec.Code != http.StatusOK {
		t.Fatalf("query: status %d", rec.Code)
	}
	if rec, _ := get(t, s, "/query?seed=0&full=true"); rec.Code != http.StatusOK {
		t.Fatalf("repeat query: status %d", rec.Code)
	}

	// One new node plus edges both ways: guaranteed real (non-no-op) work.
	rec, body := post(t, s, "/edges", EdgesRequest{
		AddNodes: 1,
		Add:      []EdgeJSON{{Src: 0, Dst: n}, {Src: n, Dst: 0}},
	})
	if rec.Code != http.StatusOK {
		t.Fatalf("/edges: status %d body %v", rec.Code, body)
	}
	if int(body["nodes"].(float64)) != n+1 {
		t.Fatalf("nodes = %v, want %d", body["nodes"], n+1)
	}
	// Two edge updates plus one unflushed node: node growth is pending
	// work too (a growth-only buffer must still trigger a rebuild).
	if int(body["pending"].(float64)) != 3 {
		t.Fatalf("pending = %v, want 3", body["pending"])
	}
	genBefore := uint64(body["generation"].(float64))

	rec, body = post(t, s, "/flush", nil)
	if rec.Code != http.StatusAccepted {
		t.Fatalf("/flush: status %d body %v", rec.Code, body)
	}
	id := uint64(body["id"].(float64))

	final := waitFlush(t, s, id)
	if final["state"] != string(bepi.RebuildDone) {
		t.Fatalf("rebuild state %v (error %v)", final["state"], final["error"])
	}
	if gen := uint64(final["generation"].(float64)); gen != genBefore+1 {
		t.Fatalf("generation %d -> %d, want +1", genBefore, gen)
	}
	if int(final["applied"].(float64)) != 2 {
		t.Fatalf("applied = %v, want 2", final["applied"])
	}
	// The new node has an out-edge (and deadend node 0 gains one), so the
	// delta path refused and said why.
	if reason, _ := final["fallback"].(string); final["mode"] != string(bepi.RebuildModeFull) || !strings.Contains(reason, "out-edge") {
		t.Fatalf("mode %v fallback %q, want full with the out-edge that broke the ordering", final["mode"], reason)
	}

	// The executor's cache was generation-invalidated: the same seed must
	// be re-solved on the new engine and score the new node.
	rec, after := get(t, s, "/query?seed=0&full=true")
	if rec.Code != http.StatusOK {
		t.Fatalf("post-flush query: status %d", rec.Code)
	}
	if after["cached"] == true {
		t.Fatal("post-swap query served from the pre-swap cache")
	}
	scores := after["scores"].([]any)
	if len(scores) != n+1 {
		t.Fatalf("post-flush scores length %d, want %d", len(scores), n+1)
	}
	if scores[n].(float64) <= 0 {
		t.Fatal("new node unreachable after flush")
	}
	if len(before["scores"].([]any)) == len(scores) {
		t.Fatal("test setup: pre-flush vector already had the new node")
	}

	// Metrics reflect the dynamic subsystem.
	rec, m := get(t, s, "/metrics")
	if rec.Code != http.StatusOK {
		t.Fatalf("/metrics: status %d", rec.Code)
	}
	if uint64(m["generation"].(float64)) != genBefore+1 {
		t.Fatalf("metrics generation %v, want %d", m["generation"], genBefore+1)
	}
	if int64(m["engine_swaps"].(float64)) != 1 {
		t.Fatalf("metrics engine_swaps %v, want 1", m["engine_swaps"])
	}
	if int(m["pending_updates"].(float64)) != 0 {
		t.Fatalf("metrics pending_updates %v, want 0", m["pending_updates"])
	}

	// Prometheus exposition includes the new families.
	req := httptest.NewRequest(http.MethodGet, "/metrics.prom", nil)
	prec := httptest.NewRecorder()
	s.ServeHTTP(prec, req)
	for _, fam := range []string{"bepi_index_generation", "bepi_pending_updates", "bepi_rebuild_seconds", "bepi_engine_swaps_total"} {
		if !bytes.Contains(prec.Body.Bytes(), []byte(fam)) {
			t.Fatalf("prometheus exposition missing %s", fam)
		}
	}
}

// TestRemovedKnobsLeaveNoTrace: with one exact delta path, plain kernels,
// one solve per query and one serving layout there is no hub drift, no
// prefetch distance, no batch size and no compact on/off to report, so no
// endpoint mentions any — after a hub-touching flush included.
func TestRemovedKnobsLeaveNoTrace(t *testing.T) {
	s, d := testDynamicServer(t)
	ord := d.Engine().Internal().Ordering()
	hub := ord.Inv[ord.N1]
	dst := 0
	for g := bepi.RMAT(8, 6, 5); g.HasEdge(hub, dst); { // testDynamicServer's graph
		dst++
	}
	if rec, body := post(t, s, "/edges", EdgesRequest{Add: []EdgeJSON{{Src: hub, Dst: dst}}}); rec.Code != http.StatusOK {
		t.Fatalf("/edges: status %d body %v", rec.Code, body)
	}
	_, body := post(t, s, "/flush", nil)
	id := uint64(body["id"].(float64))
	if final := waitFlush(t, s, id); final["mode"] != string(bepi.RebuildModeDeltaHub) || final["fallback"] != nil {
		t.Fatalf("hub flush settled as %v, want delta-hub and no fallback reason", final)
	}
	for _, path := range []string{fmt.Sprintf("/flush/%d", id), "/metrics", "/metrics.prom", "/metrics/snapshot", "/healthz", "/stats"} {
		rec := httptest.NewRecorder()
		s.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, path, nil))
		if rec.Code != http.StatusOK {
			t.Fatalf("%s: status %d", path, rec.Code)
		}
		for _, gone := range []string{"drift", "prefetch", "batch_size", "avg_batch", "bepi_batch_size", "compact"} {
			if strings.Contains(rec.Body.String(), gone) {
				t.Errorf("%s still mentions %q", path, gone)
			}
		}
	}
}

// TestFlushStatusErrors covers the /flush/{id} edge cases.
func TestFlushStatusErrors(t *testing.T) {
	s, _ := testDynamicServer(t)
	if rec, _ := get(t, s, "/flush/notanumber"); rec.Code != http.StatusBadRequest {
		t.Fatalf("bad id: status %d", rec.Code)
	}
	if rec, _ := get(t, s, "/flush/999"); rec.Code != http.StatusNotFound {
		t.Fatalf("unknown id: status %d", rec.Code)
	}
}

// TestEdgesValidation covers /edges error paths.
func TestEdgesValidation(t *testing.T) {
	s, d := testDynamicServer(t)
	if rec, _ := post(t, s, "/edges", EdgesRequest{}); rec.Code != http.StatusBadRequest {
		t.Fatalf("empty update: status %d", rec.Code)
	}
	if rec, _ := post(t, s, "/edges", EdgesRequest{Add: []EdgeJSON{{Src: 0, Dst: 1 << 30}}}); rec.Code != http.StatusBadRequest {
		t.Fatalf("out-of-range edge: status %d", rec.Code)
	}
	if rec, _ := post(t, s, "/edges", EdgesRequest{AddNodes: -1}); rec.Code != http.StatusBadRequest {
		t.Fatalf("negative add_nodes: status %d", rec.Code)
	}
	if p := d.Pending(); p != 0 {
		t.Fatalf("failed updates left %d pending", p)
	}
	req := httptest.NewRequest(http.MethodGet, "/edges", nil)
	rec := httptest.NewRecorder()
	s.ServeHTTP(rec, req)
	if rec.Code != http.StatusMethodNotAllowed {
		t.Fatalf("GET /edges: status %d", rec.Code)
	}
}

// TestOversizeBodyRefused: a POST body over MaxRequestBytes is
// answered 413 and counted as an error, and an oversize update applies
// none of its edges.
func TestOversizeBodyRefused(t *testing.T) {
	s, d := testDynamicServer(t)
	pad := `"pad":"` + strings.Repeat("x", MaxRequestBytes) + `"`
	for path, body := range map[string]string{
		"/personalized": `{"weights":{"1":1},` + pad + `}`,
		"/edges":        `{"add":[{"src":0,"dst":1}],` + pad + `}`,
	} {
		before := s.core.errors.Load()
		rec := httptest.NewRecorder()
		s.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, path, strings.NewReader(body)))
		if rec.Code != http.StatusRequestEntityTooLarge {
			t.Errorf("%s: status %d, want 413", path, rec.Code)
		}
		if n := s.core.errors.Load() - before; n != 1 {
			t.Errorf("%s: errors rose by %d, want 1", path, n)
		}
	}
	if p := d.Pending(); p != 0 {
		t.Fatalf("an oversize update left %d pending", p)
	}
}

// TestDynamicEndpointsOnStaticServer checks a static server answers the
// dynamic endpoints with 409 rather than a panic or a silent no-op.
func TestDynamicEndpointsOnStaticServer(t *testing.T) {
	s, _ := testServer(t)
	defer s.Close()
	if rec, _ := post(t, s, "/edges", EdgesRequest{Add: []EdgeJSON{{Src: 0, Dst: 1}}}); rec.Code != http.StatusConflict {
		t.Fatalf("/edges on static server: status %d", rec.Code)
	}
	if rec, _ := post(t, s, "/flush", nil); rec.Code != http.StatusConflict {
		t.Fatalf("/flush on static server: status %d", rec.Code)
	}
	if rec, _ := get(t, s, "/flush/1"); rec.Code != http.StatusConflict {
		t.Fatalf("/flush/1 on static server: status %d", rec.Code)
	}
}

// TestDynamicFlushInvalidatesCachedTopK checks that a cached certified
// top-k answer does not survive an engine swap: after /edges + /flush the
// same seed&topk request is solved again on the new generation, and names
// the set a fresh bepi.New on the updated graph ranks.
func TestDynamicFlushInvalidatesCachedTopK(t *testing.T) {
	// Hub-heavy, so the bounded top-k certificate actually fires.
	g := bepi.RMAT(9, 8, 42)
	hubs := bepi.WithHubRatio(0.2)
	d, err := bepi.NewDynamic(g, hubs)
	if err != nil {
		t.Fatal(err)
	}
	s := NewDynamic(d, qexec.Config{})
	t.Cleanup(s.Close)

	// A seed whose top-k solve stops early, so what the cache holds is the
	// certified (seed, k) ranking; and of low degree, so one new out-edge
	// is sure to change that ranking.
	const k = 5
	seed := -1
	for u := 0; u < g.N() && seed < 0; u++ {
		if deg := g.OutDegree(u); deg < 1 || deg > 2 {
			continue
		}
		if _, early, err := d.Engine().TopKBounded(u, k); err == nil && early {
			seed = u
		}
	}
	if seed < 0 {
		t.Fatal("test setup: no early-stopping seed with out-degree 1–2")
	}
	path := fmt.Sprintf("/query?seed=%d&topk=%d", seed, k)
	nodesOf := func(body map[string]any) map[int]bool {
		set := map[int]bool{}
		for _, e := range body["top"].([]any) {
			set[int(e.(map[string]any)["node"].(float64))] = true
		}
		return set
	}

	_, first := get(t, s, path)
	_, replay := get(t, s, path)
	if first["cached"] == true || replay["cached"] != true {
		t.Fatalf("warm-up: cached = %v then %v, want a solve then a hit", first["cached"], replay["cached"])
	}
	if first["early_stopped"] != true || replay["early_stopped"] != true {
		t.Fatalf("warm-up: early_stopped = %v then %v, want an early-stopped solve and a hit that says so", first["early_stopped"], replay["early_stopped"])
	}
	before := nodesOf(first)
	target := -1
	for x := 0; x < g.N(); x++ {
		if x != seed && !before[x] && !g.HasEdge(seed, x) {
			target = x
			break
		}
	}

	rec, body := post(t, s, "/edges", EdgesRequest{Add: []EdgeJSON{{Src: seed, Dst: target}}})
	if rec.Code != http.StatusOK {
		t.Fatalf("/edges: status %d body %v", rec.Code, body)
	}
	rec, body = post(t, s, "/flush", nil)
	if rec.Code != http.StatusAccepted {
		t.Fatalf("/flush: status %d body %v", rec.Code, body)
	}
	if final := waitFlush(t, s, uint64(body["id"].(float64))); final["state"] != string(bepi.RebuildDone) {
		t.Fatalf("rebuild state %v (error %v)", final["state"], final["error"])
	}

	_, after := get(t, s, path)
	if after["cached"] == true {
		t.Fatal("post-swap top-k served from the pre-swap cache")
	}
	if after["generation"].(float64) != first["generation"].(float64)+1 {
		t.Fatalf("generation %v -> %v, want +1", first["generation"], after["generation"])
	}
	g2, err := bepi.NewGraph(g.N(), append(g.Edges(), bepi.Edge{Src: seed, Dst: target}))
	if err != nil {
		t.Fatal(err)
	}
	fresh, err := bepi.New(g2, hubs)
	if err != nil {
		t.Fatal(err)
	}
	want, err := fresh.TopK(seed, k)
	if err != nil {
		t.Fatal(err)
	}
	got := nodesOf(after)
	if len(got) != len(want) {
		t.Fatalf("post-swap top-%d has %d nodes, fresh engine %d", k, len(got), len(want))
	}
	for _, r := range want {
		if !got[r.Node] {
			t.Fatalf("post-swap top-%d %v lacks node %d of the fresh engine's %v", k, after["top"], r.Node, want)
		}
	}
	if !got[target] {
		t.Fatalf("test setup: new out-neighbour %d did not enter the top-%d, so a stale answer would go unnoticed", target, k)
	}
	// The new generation's answer is remembered in turn.
	if _, again := get(t, s, path); again["cached"] != true || again["generation"] != after["generation"] {
		t.Fatalf("repeat on the new generation: cached=%v generation=%v", again["cached"], again["generation"])
	}
}

// TestDynamicFirstTopKAfterSwapRunsNoCalibration: the rebuild calibrates
// the engine it swaps in, so the first top-k query on that engine runs only
// its own solve. Counted through the engine's iteration hook — the
// executor's solver_iters_total — the query costs exactly the iterations it
// reports; a query that calibrated would add the reference solves'. The
// calibration's time is in the rebuild's /flush JSON and in its
// rebuild_swap event.
func TestDynamicFirstTopKAfterSwapRunsNoCalibration(t *testing.T) {
	g := bepi.RMAT(9, 8, 42)
	d, err := bepi.NewDynamic(g, bepi.WithHubRatio(0.2))
	if err != nil {
		t.Fatal(err)
	}
	s := NewDynamic(d, qexec.Config{})
	t.Cleanup(s.Close)
	seed := 0
	for g.OutDegree(seed) == 0 {
		seed++
	}
	target := 0
	for target == seed || g.HasEdge(seed, target) {
		target++
	}

	if rec, body := post(t, s, "/edges", EdgesRequest{Add: []EdgeJSON{{Src: seed, Dst: target}}}); rec.Code != http.StatusOK {
		t.Fatalf("/edges: status %d body %v", rec.Code, body)
	}
	rec, body := post(t, s, "/flush", nil)
	if rec.Code != http.StatusAccepted {
		t.Fatalf("/flush: status %d body %v", rec.Code, body)
	}
	if _, ok := body["calibrate_ms"]; !ok {
		t.Fatalf("/flush answer %v has no calibrate_ms", body)
	}
	final := waitFlush(t, s, uint64(body["id"].(float64)))
	if final["state"] != string(bepi.RebuildDone) {
		t.Fatalf("rebuild state %v (error %v)", final["state"], final["error"])
	}
	if cal := final["calibrate_ms"].(float64); cal <= 0 || cal > final["duration_ms"].(float64) {
		t.Fatalf("calibrate_ms %v, duration_ms %v: want a calibration inside the rebuild", cal, final["duration_ms"])
	}
	swaps := 0
	for _, ev := range s.Executor().Observer().Events.Recent(0) {
		if ev.Kind != "rebuild_swap" {
			continue
		}
		swaps++
		if cal, err := time.ParseDuration(ev.Fields["calibrate"]); err != nil || cal <= 0 {
			t.Fatalf("rebuild_swap event %v: calibrate %q (%v)", ev.Fields, ev.Fields["calibrate"], err)
		}
	}
	if swaps != 1 {
		t.Fatalf("%d rebuild_swap events, want 1", swaps)
	}

	_, before := get(t, s, "/metrics")
	rec, q := get(t, s, fmt.Sprintf("/query?seed=%d&topk=5", seed))
	if rec.Code != http.StatusOK {
		t.Fatalf("top-k query: status %d body %v", rec.Code, q)
	}
	_, after := get(t, s, "/metrics")
	iters := q["iterations"].(float64)
	spent := after["solver_iters_total"].(float64) - before["solver_iters_total"].(float64)
	if iters <= 0 || spent != iters {
		t.Fatalf("the first top-k after the swap reports %v iterations, the iteration hook counted %v", iters, spent)
	}
}
