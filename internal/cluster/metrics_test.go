package cluster

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"regexp"
	"sort"
	"strings"
	"sync"
	"testing"
	"time"

	"bepi"
	"bepi/internal/obs"
	"bepi/internal/qexec"
	"bepi/internal/server"
)

// sharedHelp are the families both tiers emit; their HELP text is allowed
// to differ between the tiers' goldens, so it is masked.
var sharedHelp = map[string]bool{
	"bepi_ring_members":                     true,
	"bepi_shard_healthy":                    true,
	"bepi_stream_bytes_per_second":          true,
	"bepi_kernel_achieved_bytes_per_second": true,
	"bepi_delta_applied_total":              true,
}

// maskProm keeps what a scrape config and a dashboard depend on — family
// order, names, TYPE, HELP, label names and sample names — and masks every
// sample value and the build-identity label values.
func maskProm(t *testing.T, body string) string {
	t.Helper()
	var b strings.Builder
	for _, line := range strings.Split(strings.TrimRight(body, "\n"), "\n") {
		if strings.HasPrefix(line, "# HELP ") {
			f := strings.SplitN(line, " ", 4)
			if sharedHelp[f[2]] {
				line = "# HELP " + f[2] + " *"
			}
			b.WriteString(line + "\n")
			continue
		}
		if strings.HasPrefix(line, "#") {
			b.WriteString(line + "\n")
			continue
		}
		sp := strings.LastIndexByte(line, ' ')
		if sp < 0 {
			t.Fatalf("bad sample line %q", line)
		}
		key := line[:sp]
		if strings.HasPrefix(key, "bepi_build_info{") {
			key = "bepi_build_info{go_version=*,version=*}"
		}
		b.WriteString(key + " *\n")
	}
	return b.String()
}

// jsonShape flattens a decoded JSON document into sorted "path type"
// lines: object keys join with '.', array elements share the path "[]".
func jsonShape(t *testing.T, body []byte) string {
	t.Helper()
	var v any
	if err := json.Unmarshal(body, &v); err != nil {
		t.Fatalf("invalid JSON %q: %v", body, err)
	}
	set := map[string]bool{}
	var walk func(path string, v any)
	walk = func(path string, v any) {
		switch x := v.(type) {
		case map[string]any:
			if len(x) == 0 {
				set[path+" object"] = true
			}
			for k, e := range x {
				p := k
				if path != "" {
					p = path + "." + k
				}
				walk(p, e)
			}
		case []any:
			if len(x) == 0 {
				set[path+" array"] = true
			}
			for _, e := range x {
				walk(path+"[]", e)
			}
		case string:
			set[path+" string"] = true
		case float64:
			set[path+" number"] = true
		case bool:
			set[path+" bool"] = true
		case nil:
			set[path+" null"] = true
		}
	}
	walk("", v)
	lines := make([]string, 0, len(set))
	for l := range set {
		lines = append(lines, l)
	}
	sort.Strings(lines)
	return strings.Join(lines, "\n") + "\n"
}

// checkGolden compares got against testdata/<name>.golden, reporting the
// lines each side lacks.
func checkGolden(t *testing.T, name, got string) {
	t.Helper()
	path := filepath.Join("testdata", name+".golden")
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("%s: %v", path, err)
	}
	if got == string(want) {
		return
	}
	wl, gl := strings.Split(string(want), "\n"), strings.Split(got, "\n")
	inWant, inGot := map[string]bool{}, map[string]bool{}
	for _, l := range wl {
		inWant[l] = true
	}
	for _, l := range gl {
		inGot[l] = true
	}
	var diff []string
	for _, l := range wl {
		if !inGot[l] {
			diff = append(diff, "- "+l)
		}
	}
	for _, l := range gl {
		if !inWant[l] {
			diff = append(diff, "+ "+l)
		}
	}
	if len(diff) == 0 {
		diff = append(diff, "(same lines, different order)")
	}
	t.Errorf("%s differs from %s:\n%s\n--- got ---\n%s", name, path, strings.Join(diff, "\n"), got)
}

func scrape(t *testing.T, h http.Handler, path string) []byte {
	t.Helper()
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, path, nil))
	if rec.Code != http.StatusOK {
		t.Fatalf("%s: status %d: %s", path, rec.Code, rec.Body)
	}
	return rec.Body.Bytes()
}

// metricTier is one serving tier as the metrics tests scrape it.
type metricTier struct {
	name     string
	h        http.Handler
	snapshot bool // serves /metrics/snapshot
}

// metricTiers stands up every configuration whose metrics differ — a
// static shard with the slow-query log on, a dynamic shard after a flush,
// and a coordinator over two in-process replicas — and drives a little
// traffic through each, so every family they can export is present.
func metricTiers(t *testing.T) []metricTier {
	t.Helper()
	g := swapTestGraph(t, 40)
	ctx := context.Background()

	eng, err := bepi.New(g)
	if err != nil {
		t.Fatal(err)
	}
	static := server.NewWithConfig(eng, qexec.Config{Obs: obs.New(obs.Options{SlowQuery: time.Hour})})
	t.Cleanup(static.Close)

	d, err := bepi.NewDynamic(g)
	if err != nil {
		t.Fatal(err)
	}
	dynamic := server.NewDynamic(d, qexec.Config{})
	t.Cleanup(dynamic.Close)

	for _, s := range []*server.Server{static, dynamic} {
		for seed := 0; seed < 3; seed++ {
			scrape(t, s, fmt.Sprintf("/query?seed=%d", seed))
		}
		scrape(t, s, "/query?seed=0")
		if _, err := s.Core().Personalized(ctx, map[int]float64{1: 1, 2: 1}, 3); err != nil {
			t.Fatal(err)
		}
	}
	if err := d.AddEdge(1, 7); err != nil {
		t.Fatal(err)
	}
	if err := d.StartFlush().Wait(); err != nil {
		t.Fatal(err)
	}

	backends := make([]Backend, 2)
	for i := range backends {
		c := server.NewCore(eng, qexec.Config{})
		t.Cleanup(c.Close)
		backends[i] = NewLocalBackend(fmt.Sprintf("replica-%d", i), c)
	}
	coord, err := New(backends, testConfig())
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(coord.Close)
	coord.CheckNow(ctx)
	for seed := 0; seed < 6; seed++ {
		if _, err := coord.Query(ctx, seed, 5, false); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := coord.Personalized(ctx, map[int]float64{1: 1, 2: 1}, 3); err != nil {
		t.Fatal(err)
	}
	return []metricTier{
		{"static", static, true},
		{"dynamic", dynamic, true},
		{"coordinator", NewHandler(coord), false},
	}
}

// TestMetricsGolden pins the shape of every metrics view on both tiers
// with values masked: the Prometheus families in order with their HELP,
// TYPE, label and sample names; the /metrics JSON key paths and value
// types; the /metrics/snapshot histogram families and counter keys.
func TestMetricsGolden(t *testing.T) {
	for _, tier := range metricTiers(t) {
		checkGolden(t, tier.name+"-prom", maskProm(t, string(scrape(t, tier.h, "/metrics.prom"))))
		checkGolden(t, tier.name+"-json", jsonShape(t, scrape(t, tier.h, "/metrics")))
		if tier.snapshot {
			checkGolden(t, tier.name+"-snapshot", jsonShape(t, scrape(t, tier.h, "/metrics/snapshot")))
		}
	}
}

// TestMetricsREADMETable holds README.md to the metric tables in both
// directions: every bepi_* family it names is one a tier registers, and
// every registered family has a row, with its type, in the Observability
// table. The fleet-merged histograms and the per-replica latency families
// are named there by pattern.
func TestMetricsREADMETable(t *testing.T) {
	patterns := []string{"bepi_fleet_", replicaLatencyFamily}
	pattern := func(name string) string {
		for _, p := range patterns {
			if strings.HasPrefix(name, p) {
				return p
			}
		}
		return name
	}
	registered := map[string]string{} // family or pattern → type
	for _, tier := range metricTiers(t) {
		for _, line := range strings.Split(string(scrape(t, tier.h, "/metrics.prom")), "\n") {
			if f := strings.Fields(line); len(f) == 4 && f[1] == "TYPE" && strings.HasPrefix(f[2], "bepi_") {
				registered[pattern(f[2])] = f[3]
			}
		}
	}

	readme, err := os.ReadFile(filepath.Join("..", "..", "README.md"))
	if err != nil {
		t.Fatal(err)
	}
	name := regexp.MustCompile(`bepi_[a-z0-9_]+`)
	for _, n := range name.FindAllString(string(readme), -1) {
		if _, ok := registered[pattern(n)]; !ok {
			t.Errorf("README names %s, which no tier registers", n)
		}
	}
	_, section, _ := strings.Cut(string(readme), "\n### Observability\n")
	section, _, _ = strings.Cut(section, "\n### ")
	rows := map[string]string{} // family or pattern → type column
	for _, line := range strings.Split(section, "\n") {
		cells := strings.Split(line, "|")
		if len(cells) < 4 || !strings.HasPrefix(line, "| `bepi_") {
			continue
		}
		rows[pattern(name.FindString(cells[1]))] = strings.TrimSpace(cells[2])
	}
	for n, typ := range registered {
		switch got, ok := rows[n]; {
		case !ok:
			t.Errorf("%s (%s) has no row in README's Observability table", n, typ)
		case got != typ:
			t.Errorf("README's Observability table says %s is a %s, the exposition a %s", n, got, typ)
		}
	}
}

// TestFleetDropsMalformedSnapshot: a replica snapshot whose histogram
// cannot have come from a histogram — fewer counts than buckets — is
// dropped from the merge and reported like a bounds mismatch, and the
// exposition still completes.
func TestFleetDropsMalformedSnapshot(t *testing.T) {
	var bad obs.HistSnapshot
	if err := json.Unmarshal([]byte(`{"bounds":[1,2,3],"counts":[1],"count":1}`), &bad); err != nil {
		t.Fatal(err)
	}
	good := obs.NewHistogram(obs.FamilySolve, obs.LatencyBuckets())
	good.Observe(0.01)
	c, err := New([]Backend{
		snapshotFake{newFake("r0", 10), obs.MetricsSnapshot{Histograms: map[string]obs.HistSnapshot{obs.FamilyQueryLatency: bad}}},
		snapshotFake{newFake("r1", 10), obs.MetricsSnapshot{Histograms: map[string]obs.HistSnapshot{obs.FamilySolve: good.Snapshot()}}},
	}, testConfig())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	h := NewHandler(c)
	prom := string(scrape(t, h, "/metrics.prom"))
	if !strings.Contains(prom, "go_maxprocs") || strings.Contains(prom, "exposition error") {
		t.Fatalf("exposition cut short:\n%s", prom)
	}
	if strings.Contains(prom, "bepi_fleet_query_latency_seconds") || !strings.Contains(prom, "bepi_fleet_solve_seconds_count 1") {
		t.Errorf("fleet view should hold the well-formed family and not the malformed one:\n%s", prom)
	}
	var body struct {
		Fleet struct {
			Mismatched []string `json:"mismatched_families"`
		} `json:"fleet"`
	}
	if err := json.Unmarshal(scrape(t, h, "/metrics"), &body); err != nil {
		t.Fatal(err)
	}
	if len(body.Fleet.Mismatched) != 1 || body.Fleet.Mismatched[0] != obs.FamilyQueryLatency {
		t.Errorf("mismatched_families = %v, want [%s]", body.Fleet.Mismatched, obs.FamilyQueryLatency)
	}
}

// snapshotFake is a scripted replica that also serves a metrics snapshot.
type snapshotFake struct {
	*fakeBackend
	snap obs.MetricsSnapshot
}

func (f snapshotFake) MetricsSnapshot(context.Context) (obs.MetricsSnapshot, error) {
	return f.snap, nil
}

// TestNewRefusesCollidingMetricNames: two replica names that differ only
// in characters a metric name cannot hold would share one latency family,
// which the exposition cannot carry twice; New refuses them as it refuses
// duplicate names.
func TestNewRefusesCollidingMetricNames(t *testing.T) {
	if _, err := New([]Backend{newFake("h-1:80", 10), newFake("h_1:80", 10)}, testConfig()); err == nil {
		t.Fatal("New accepted replicas h-1:80 and h_1:80, whose latency families collide")
	}
}

// TestMetricsScrapeUnderLoad scrapes every metrics view of a dynamic shard
// and of a coordinator in front of it while queries run through the
// coordinator and flushes swap the shard's engine: under -race, the check
// that building the tables reads counters, histograms, the serving engine
// and the update buffer safely.
func TestMetricsScrapeUnderLoad(t *testing.T) {
	const n = 40
	g := swapTestGraph(t, n)
	d, err := bepi.NewDynamic(g)
	if err != nil {
		t.Fatal(err)
	}
	shard := server.NewDynamic(d, qexec.Config{})
	defer shard.Close()
	d2, err := bepi.NewDynamic(g)
	if err != nil {
		t.Fatal(err)
	}
	other := server.NewDynamicCore(d2, qexec.Config{})
	defer other.Close()
	coord, err := New([]Backend{NewLocalBackend("a", shard.Core()), NewLocalBackend("b", other)}, testConfig())
	if err != nil {
		t.Fatal(err)
	}
	defer coord.Close()

	done := make(chan struct{})
	finished := func() bool {
		select {
		case <-done:
			return true
		default:
			return false
		}
	}
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		defer close(done)
		for r := 0; r < 3; r++ {
			if err := d.AddEdge(r, (r*7+11)%n); err != nil {
				t.Error(err)
				return
			}
			if err := d.StartFlush().Wait(); err != nil {
				t.Error(err)
				return
			}
		}
	}()
	for w := 0; w < 2; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; !finished(); i++ {
				if _, err := coord.Query(context.Background(), (w*13+i)%n, 5, false); err != nil {
					t.Error(err)
					return
				}
			}
		}()
	}
	for _, target := range []struct {
		h     http.Handler
		paths []string
	}{
		{shard, []string{"/metrics", "/metrics.prom", "/metrics/snapshot"}},
		{NewHandler(coord), []string{"/metrics", "/metrics.prom"}},
	} {
		for _, path := range target.paths {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for i := 0; i < 2 || !finished(); i++ {
					rec := httptest.NewRecorder()
					target.h.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, path, nil))
					body := rec.Body.String()
					if rec.Code != http.StatusOK || strings.Contains(body, "exposition error") ||
						(!strings.HasSuffix(path, ".prom") && !json.Valid(rec.Body.Bytes())) {
						t.Errorf("%s: status %d: %.300s", path, rec.Code, body)
						return
					}
				}
			}()
		}
	}
	wg.Wait()
}
