package cluster

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"sync/atomic"
	"testing"

	"bepi"
	"bepi/internal/obs"
	"bepi/internal/qexec"
	"bepi/internal/server"
)

// traceTestFleet stands up `replicas` real shard servers over loopback HTTP
// and a coordinator routing to them through HTTPBackend — the full
// cross-process propagation path (context → X-Bepi-Trace header → shard
// executor) minus the network.
func traceTestFleet(t *testing.T, n, replicas int, cfg Config) (*Coordinator, []*bepi.Dynamic, func()) {
	t.Helper()
	g := swapTestGraph(t, n)
	var cleanups []func()
	dyns := make([]*bepi.Dynamic, replicas)
	backends := make([]Backend, replicas)
	for i := 0; i < replicas; i++ {
		d, err := bepi.NewDynamic(g)
		if err != nil {
			t.Fatalf("NewDynamic: %v", err)
		}
		dyns[i] = d
		srv := server.NewDynamic(d, qexec.Config{})
		hs := httptest.NewServer(srv)
		cleanups = append(cleanups, hs.Close, srv.Close)
		backends[i] = NewHTTPBackend(strings.TrimPrefix(hs.URL, "http://"), nil)
	}
	coord, err := New(backends, cfg)
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	cleanups = append(cleanups, coord.Close)
	return coord, dyns, func() {
		for i := len(cleanups) - 1; i >= 0; i-- {
			cleanups[i]()
		}
	}
}

// TestClusterDistributedTraceTreeHTTP is the tentpole's end-to-end
// acceptance check: one ?trace=1 query through the coordinator's HTTP
// handler must yield, at GET /debug/traces?trace=<id>, a single tree under
// one trace ID whose root is the coordinator's routing record (attempt
// spans tagged with the owning shard) and whose child is that shard's qexec
// record carrying the engine's solve-stage spans.
func TestClusterDistributedTraceTreeHTTP(t *testing.T) {
	coord, _, cleanup := traceTestFleet(t, 40, 2, Config{
		HealthInterval: -1,
		Obs:            obs.New(obs.Options{TraceSample: 1}),
	})
	defer cleanup()

	ch := httptest.NewServer(NewHandler(coord))
	defer ch.Close()

	// full=true forces a full-tolerance solve through the worker, so the
	// shard record carries engine stage spans, not just a cache probe.
	resp, err := http.Get(ch.URL + "/query?seed=3&full=true&trace=1")
	if err != nil {
		t.Fatalf("query: %v", err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("query status %d", resp.StatusCode)
	}
	traceID := resp.Header.Get(obs.TraceHeader)
	if traceID == "" {
		t.Fatal("?trace=1 must echo the trace ID in X-Bepi-Trace")
	}

	tr, err := http.Get(ch.URL + "/debug/traces?trace=" + traceID)
	if err != nil {
		t.Fatalf("debug/traces: %v", err)
	}
	defer tr.Body.Close()
	var tree TraceTreeResponse
	if err := json.NewDecoder(tr.Body).Decode(&tree); err != nil {
		t.Fatalf("decode tree: %v", err)
	}
	if tree.TraceID != traceID || tree.Count < 2 {
		t.Fatalf("tree: id=%q count=%d (want the coordinator and shard records)", tree.TraceID, tree.Count)
	}
	if len(tree.Roots) != 1 {
		t.Fatalf("roots: %d want exactly 1 (all records under one tree)", len(tree.Roots))
	}
	root := tree.Roots[0]
	if root.Source != "coordinator" || root.Kind != "cluster.query" || root.TraceID != traceID {
		t.Fatalf("root wrong: source=%q kind=%q trace=%q", root.Source, root.Kind, root.TraceID)
	}
	owner := root.Tags["shard"]
	if owner == "" {
		t.Fatalf("root missing shard tag: %+v", root.Tags)
	}
	var attempt *obs.Span
	for i := range root.Spans {
		if root.Spans[i].Name == "attempt" {
			attempt = &root.Spans[i]
		}
	}
	if attempt == nil || attempt.Tags["shard"] != owner {
		t.Fatalf("root attempt span wrong: %+v", root.Spans)
	}
	if len(root.Children) == 0 {
		t.Fatalf("coordinator record has no shard children (count=%d)", tree.Count)
	}
	shardRec := root.Children[0]
	if shardRec.Source != owner {
		t.Fatalf("child from %q want owning shard %q", shardRec.Source, owner)
	}
	if shardRec.TraceID != traceID || shardRec.ParentID != root.SpanID {
		t.Fatalf("child linkage wrong: trace=%q parent=%d rootspan=%d",
			shardRec.TraceID, shardRec.ParentID, root.SpanID)
	}
	spans := map[string]bool{}
	for _, sp := range shardRec.Spans {
		spans[sp.Name] = true
	}
	if !spans["solve"] || !spans["schur"] {
		t.Fatalf("shard record missing solve-stage spans: %+v", shardRec.Spans)
	}
}

// TestClusterFleetMergedQuantilesProm checks the metrics-aggregation leg:
// the coordinator's /metrics.prom must expose fleet-merged histograms whose
// total count equals the sum of the per-shard snapshots (bucket-wise
// merging is exact), alongside the build-info and ring gauges on both
// tiers.
func TestClusterFleetMergedQuantilesProm(t *testing.T) {
	const n = 40
	g := swapTestGraph(t, n)
	cores := make([]*server.Core, 2)
	backends := make([]Backend, 2)
	for i := range cores {
		d, err := bepi.NewDynamic(g)
		if err != nil {
			t.Fatalf("NewDynamic: %v", err)
		}
		cores[i] = server.NewDynamicCore(d, qexec.Config{})
		defer cores[i].Close()
		backends[i] = NewLocalBackend(fmt.Sprintf("replica-%d", i), cores[i])
	}
	coord, err := New(backends, Config{HealthInterval: -1})
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	defer coord.Close()

	for seed := 0; seed < 12; seed++ {
		if _, err := coord.Query(context.Background(), seed, 5, false); err != nil {
			t.Fatalf("query %d: %v", seed, err)
		}
	}

	snaps := coord.FleetSnapshots(context.Background())
	if len(snaps) != 2 {
		t.Fatalf("snapshots: %d want 2", len(snaps))
	}
	var total uint64
	var loQ, hiQ float64
	for i, s := range snaps {
		h := s.Histograms[obs.FamilyQueryLatency]
		total += h.Count
		q := h.Quantile(0.5)
		if i == 0 || q < loQ {
			loQ = q
		}
		if q > hiQ {
			hiQ = q
		}
	}
	if total != 12 {
		t.Fatalf("per-shard latency counts sum to %d want 12", total)
	}
	merged, mismatched := obs.MergeMetricsSnapshots(snaps)
	if len(mismatched) != 0 {
		t.Fatalf("mismatched families: %v", mismatched)
	}
	mh := merged.Histograms[obs.FamilyQueryLatency]
	if mh.Count != total {
		t.Fatalf("merged count %d want %d", mh.Count, total)
	}
	// The union's median must lie within the envelope of the shard medians
	// (to bucket resolution — counts merge exactly, so this is exact here).
	if q := mh.Quantile(0.5); q < loQ || q > hiQ {
		t.Fatalf("merged p50 %g outside shard envelope [%g, %g]", q, loQ, hiQ)
	}

	// The exposition carries the fleet families and identity gauges.
	rec := httptest.NewRecorder()
	NewHandler(coord).ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/metrics.prom", nil))
	body := rec.Body.String()
	for _, want := range []string{
		"bepi_build_info{",
		"bepi_ring_members 2",
		`bepi_shard_healthy{shard="replica-0"} 1`,
		"bepi_fleet_query_latency_seconds_count 12",
		"bepi_fleet_query_latency_seconds_bucket",
		"bepi_shard_query_latency_p50_seconds{",
		"bepi_cluster_retries_total",
		"bepi_cluster_refetches_total",
	} {
		if !strings.Contains(body, want) {
			t.Errorf("/metrics.prom missing %q", want)
		}
	}

	// The shard-side exposition carries the same identity gauges.
	rec = httptest.NewRecorder()
	server.NewFromCore(cores[0]).ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/metrics.prom", nil))
	body = rec.Body.String()
	for _, want := range []string{"bepi_build_info{", "bepi_ring_members 1", `bepi_shard_healthy{shard="local"} 1`} {
		if !strings.Contains(body, want) {
			t.Errorf("shard /metrics.prom missing %q", want)
		}
	}
}

// TestClusterTraceConcurrentSwapHTTP runs traced queries through
// HTTPBackends while background rebuilds swap shard engines — the -race
// regression for trace propagation: header forwarding, forced shard
// tracing, and concurrent span appends must survive engine swaps, and a
// completed trace must still assemble into a tree afterwards.
func TestClusterTraceConcurrentSwapHTTP(t *testing.T) {
	const n = 40
	coord, dyns, cleanup := traceTestFleet(t, n, 2, Config{
		HealthInterval: -1,
		Obs:            obs.New(obs.Options{TraceSample: 1}),
	})
	defer cleanup()

	rounds := 3
	if testing.Short() {
		rounds = 1
	}
	done := make(chan struct{})
	var updErr atomic.Value
	go func() {
		defer close(done)
		for r := 0; r < rounds; r++ {
			src, dst := r%n, (r*7+11)%n
			for _, d := range dyns {
				if err := d.AddEdge(src, dst); err != nil {
					updErr.Store(fmt.Errorf("AddEdge: %w", err))
					return
				}
			}
			for _, d := range dyns {
				if err := d.StartFlush().Wait(); err != nil {
					updErr.Store(fmt.Errorf("rebuild: %w", err))
					return
				}
			}
		}
	}()

	var wg sync.WaitGroup
	var qErr atomic.Value
	var traced atomic.Int64
	var lastTrace atomic.Value
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for iter := 0; ; iter++ {
				if iter >= 6 {
					select {
					case <-done:
						return
					default:
					}
				}
				tc := obs.TraceContext{TraceID: obs.NewTraceID()}
				ctx := obs.WithTrace(context.Background(), tc)
				if _, err := coord.Query(ctx, (w*7+iter)%n, 5, false); err != nil {
					qErr.Store(fmt.Errorf("query: %w", err))
					return
				}
				traced.Add(1)
				lastTrace.Store(tc.TraceID)
			}
		}(w)
	}
	wg.Wait()
	if err := updErr.Load(); err != nil {
		t.Fatal(err)
	}
	if err := qErr.Load(); err != nil {
		t.Fatal(err)
	}
	for i, d := range dyns {
		if d.Generation() == 1 {
			t.Fatalf("replica %d never swapped; the test exercised nothing", i)
		}
	}

	// Any completed trace must assemble: a coordinator root plus the owning
	// shard's record under the same ID, fetched over HTTP TraceSource.
	id := lastTrace.Load().(string)
	roots, count := coord.TraceTree(context.Background(), id, 0)
	if count < 2 || len(roots) != 1 || len(roots[0].Children) == 0 {
		t.Fatalf("trace %s did not assemble: count=%d roots=%d", id, count, len(roots))
	}
	t.Logf("traced=%d queries, final tree count=%d", traced.Load(), count)
}
