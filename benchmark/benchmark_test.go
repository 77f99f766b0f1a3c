package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"math"
	"os"
	"strings"
	"testing"
	"time"

	"bepi"
)

func TestPercentileNeedsTenSamplesBeyond(t *testing.T) {
	seq := func(n int) []float64 {
		s := make([]float64, n)
		for i := range s {
			s[i] = float64(i + 1)
		}
		return s
	}
	// p95 of 200 samples is the 190th; exactly ten lie beyond it.
	if v, ok := percentile(seq(200), 0.95); !ok || v != 190 {
		t.Errorf("p95 of 200 = %v, %v; want 190, true", v, ok)
	}
	if v, ok := percentile(seq(199), 0.95); ok || v != 0 {
		t.Errorf("p95 of 199 = %v, %v; want 0, false (nine beyond)", v, ok)
	}
	if _, ok := percentile(seq(999), 0.99); ok {
		t.Error("p99 of 999 samples reported with nine beyond")
	}
	if v, ok := percentile(seq(1000), 0.99); !ok || v != 990 {
		t.Errorf("p99 of 1000 = %v, %v; want 990, true", v, ok)
	}
	if _, ok := percentile(nil, 0.5); ok {
		t.Error("percentile of nothing reported")
	}
	m := metrics{}
	m.latency("latency", seq(250))
	if _, ok := m["latency_p95_ms"]; !ok {
		t.Error("latency_p95_ms missing with 250 samples")
	}
	if _, ok := m["latency_p99_ms"]; ok {
		t.Error("latency_p99_ms emitted with 250 samples")
	}
	if got := m["latency_p50_ms"]; got.Value != 125.5 || got.N != 250 || got.Unit != "ms" {
		t.Errorf("latency_p50_ms = %+v", got)
	}
}

func TestSpreadMatchesPythonQuantiles(t *testing.T) {
	// statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
	xs := []float64{10, 1, 9, 2, 8, 3, 7, 4, 6, 5}
	if got, want := spread(xs), (8.25-2.75)/5.5; math.Abs(got-want) > 1e-12 {
		t.Errorf("spread = %v, want %v", got, want)
	}
}

// fakeClock is a manual clock: Sleep advances it, nothing else does.
type fakeClock struct{ now time.Time }

func (c *fakeClock) Now() time.Time        { return c.now }
func (c *fakeClock) Sleep(d time.Duration) { c.now = c.now.Add(d) }

func TestOpenLoopTimesFromDueTimeAndCountsUnsent(t *testing.T) {
	clk := &fakeClock{now: time.Unix(1000, 0)}
	const msec = time.Millisecond
	// Five requests due every 10 ms on one connection; each takes 25 ms, so
	// the connection falls behind and the deadline (60 ms) cuts the tail off.
	due := []time.Duration{0, 10 * msec, 20 * msec, 30 * msec, 40 * msec}
	boom := errors.New("boom")
	res, peak := openLoop(clk, 1, due, 60*msec, func(i int) error {
		clk.Sleep(25 * msec)
		if i == 1 {
			return boom
		}
		return nil
	})
	if peak != 1 {
		t.Errorf("inflight peak = %d, want 1", peak)
	}
	want := []struct {
		sent          bool
		late, latency time.Duration
	}{
		{true, 0, 25 * msec},         // sent on time
		{true, 15 * msec, 40 * msec}, // due at 10, sent at 25, done at 50: 40 from due
		{true, 30 * msec, 55 * msec}, // due at 20, sent at 50, done at 75
		{false, 0, 0},                // its turn came at 75 > 60: unsent
		{false, 0, 0},
	}
	failed := 0
	for i, w := range want {
		r := res[i]
		if r.Sent != w.sent || r.Late != w.late || r.Latency != w.latency {
			t.Errorf("op %d: sent=%v late=%v latency=%v; want %v %v %v", i, r.Sent, r.Late, r.Latency, w.sent, w.late, w.latency)
		}
		if r.failed() {
			failed++
		}
	}
	if failed != 3 { // one error, two unsent
		t.Errorf("failed = %d, want 3", failed)
	}
	if !errors.Is(res[1].Err, boom) {
		t.Errorf("op 1 error = %v", res[1].Err)
	}
	var acc result
	acc.account(res)
	if acc.Attempted != 5 || acc.Failed != 3 {
		t.Errorf("accounted %d attempted, %d failed; want 5, 3", acc.Attempted, acc.Failed)
	}
}

func TestOpenLoopWaitsForDueTime(t *testing.T) {
	clk := &fakeClock{now: time.Unix(0, 0)}
	start := clk.now
	due := fixedSchedule(100, 50*time.Millisecond) // 0, 10, 20, 30, 40 ms
	if len(due) != 5 || due[4] != 40*time.Millisecond {
		t.Fatalf("schedule = %v", due)
	}
	res, _ := openLoop(clk, 1, due, time.Second, func(int) error { clk.Sleep(time.Millisecond); return nil })
	for i, r := range res {
		if got := r.Start.Sub(start); got != due[i] || r.Late != 0 || r.Latency != time.Millisecond {
			t.Errorf("op %d started at %v (late %v, latency %v), due %v", i, got, r.Late, r.Latency, due[i])
		}
	}
}

func TestSelfTimesAndUnattributed(t *testing.T) {
	// client [0,100] ⊃ coord [10,90] ⊃ two backend calls [20,40] and [50,80]
	// (a retry); the second ⊃ shard [55,75], which reports 12 of core time.
	// A span of a layer the waterfall does not declare is not attributed.
	defs := []layerDef{{"client", ""}, {"coord", "client"}, {"backend", "coord"}, {"shard", "backend"}, {"core", "shard"}}
	spans := []span{
		{Req: 1, Layer: "client", Start: 0, End: 100},
		{Req: 1, Layer: "coord", Start: 10, End: 90},
		{Req: 1, Layer: "backend", Start: 20, End: 40},
		{Req: 1, Layer: "backend", Start: 50, End: 80},
		{Req: 1, Layer: "shard", Start: 55, End: 75},
		{Req: 1, Layer: "core", End: 12, Reported: true},
		{Req: 1, Layer: "stray", Start: 95, End: 120},
	}
	total, self, ok := selfTimes(spans, defs)
	if !ok || total["client"] != 100 || total["backend"] != 50 {
		t.Fatalf("span times = %v, %v", total, ok)
	}
	want := map[string]int64{"client": 20, "coord": 30, "backend": 30, "shard": 8, "core": 12}
	var sum int64
	for l, w := range want {
		if self[l] != w {
			t.Errorf("self[%s] = %d, want %d", l, self[l], w)
		}
		sum += self[l]
	}
	if _, ok := self["stray"]; ok {
		t.Error("a span of an undeclared layer was attributed")
	}
	if sum != total["client"] {
		t.Errorf("self times sum to %d, root is %d", sum, total["client"])
	}
	if _, _, ok := selfTimes(spans[1:], defs); ok {
		t.Error("a request without a root span was accepted")
	}

	// Reported stages are siblings under the op: its self time is what they
	// leave over.
	stages := []span{
		{Layer: "op", Start: 0, End: 100},
		{Layer: "solve", End: 60, Reported: true},
		{Layer: "permute", End: 10, Reported: true},
		{Layer: "back", End: 20, Reported: true},
	}
	_, self, _ = selfTimes(stages, []layerDef{{"op", ""}, {"permute", "op"}, {"solve", "op"}, {"back", "op"}})
	if self["solve"] != 60 || self["permute"] != 10 || self["back"] != 20 || self["op"] != 10 {
		t.Errorf("sibling reported spans: self = %v", self)
	}

	// The waterfall's rows are medians per layer; with its unattributed row
	// they sum to the median root span. Three requests whose medians do not
	// add up: roots 100, 100, 200 with coord 80, 90, 100.
	req := func(root, coord int64) []span {
		return []span{{Layer: "client", End: root}, {Layer: "coord", End: coord}}
	}
	reqs := map[uint64][]span{1: req(100, 80), 2: req(100, 90), 3: req(200, 100), 4: req(0, 0)[1:]}
	two := defs[:2]
	layers, roots := aggregate(reqs, two)
	if len(roots) != 3 {
		t.Fatalf("%d requests with a root, want 3", len(roots))
	}
	rows, rootMS := waterfall(layers, roots, two)
	var sumMS float64
	for _, r := range rows {
		sumMS += r.MS
	}
	if math.Abs(sumMS-rootMS) > 1e-12 {
		t.Errorf("rows sum to %v, root span is %v", sumMS, rootMS)
	}
	// Median self times: client 20 (of 20, 10, 100), coord 90; root 100.
	last := rows[len(rows)-1]
	if last.Layer != "unattributed" || math.Abs(last.MS-(-10e-6)) > 1e-12 {
		t.Errorf("unattributed row = %+v, want -10 ns", last)
	}
	if got := unattributedShare(rows); math.Abs(got-0.10) > 1e-9 {
		t.Errorf("unattributed share = %v, want 0.10", got)
	}
}

func TestInputsAreAFunctionOfTheSeed(t *testing.T) {
	hashOf := func(seed int64) string {
		in, err := genGraph(8, 6, seed)
		if err != nil {
			t.Fatal(err)
		}
		h := newOpHash()
		h.graph(in)
		h.ints(in.distinctSeeds(opRNG(seed, 2))...)
		hot := in.distinctSeeds(opRNG(seed, 3))[:8]
		h.ints(in.hotMix(opRNG(seed, 4), hot, hotShare, 100)...)
		leaf := newDeltaStream(in, opRNG(seed, 6), in.leafSources(), 8)
		hub := newDeltaStream(in, opRNG(seed, 7), in.hubSources(), 4)
		for i := 0; i < 4; i++ {
			h.ops(leaf.next())
			h.ops(hub.next())
		}
		return h.sum()
	}
	a, b, c := hashOf(7), hashOf(7), hashOf(8)
	if a != b {
		t.Errorf("one seed, two hashes: %s and %s", a, b)
	}
	if a == c {
		t.Errorf("two seeds, one hash: %s", a)
	}
}

func TestDeltaStreamOpsAlwaysChangeTheGraph(t *testing.T) {
	in, err := genGraph(8, 6, 3)
	if err != nil {
		t.Fatal(err)
	}
	present := make(map[[2]int]bool)
	for _, e := range in.edges {
		present[[2]int{e.Src, e.Dst}] = true
	}
	applied := make(map[[2]int]bool)
	ds := newDeltaStream(in, opRNG(3, 6), in.leafSources(), 8)
	for b := 0; b < 5; b++ {
		batch := ds.next()
		if len(batch) != 8 {
			t.Fatalf("batch %d has %d ops", b, len(batch))
		}
		ins := 0
		for _, e := range batch {
			k := [2]int{e.Src, e.Dst}
			if present[k] == e.Insert {
				t.Fatalf("batch %d: op %+v is a no-op", b, e)
			}
			if d := in.g.OutDegree(e.Src); d < 1 || d > 2 {
				t.Fatalf("batch %d: source %d has out-degree %d, not a leaf", b, e.Src, d)
			}
			present[k] = e.Insert
			applied[k] = e.Insert
			if e.Insert {
				ins++
			}
		}
		if ins != 4 {
			t.Fatalf("batch %d: %d inserts of 8 ops", b, ins)
		}
	}
	final := finalEdges(in, applied)
	if len(final) != len(in.edges) {
		t.Errorf("final edge set has %d edges, base %d: every batch inserts as many as it deletes", len(final), len(in.edges))
	}
	for _, e := range final {
		if !present[[2]int{e.Src, e.Dst}] {
			t.Fatalf("final edge set holds deleted edge %+v", e)
		}
	}
}

func TestOracle(t *testing.T) {
	// Two nodes in a cycle: r0 = c + (1−c)·r1 and r1 = (1−c)·r0.
	edges := []bepi.Edge{{Src: 0, Dst: 1}, {Src: 1, Dst: 0}}
	r := oracleScores(2, edges, 0)
	c := restartProb
	want0 := c / (1 - (1-c)*(1-c))
	if math.Abs(r[0]-want0) > 1e-9 || math.Abs(r[1]-(1-c)*want0) > 1e-9 {
		t.Errorf("oracle = %v, want [%v %v]", r, want0, (1-c)*want0)
	}
	// The program agrees with the oracle, and a corrupted answer does not.
	in, err := genGraph(8, 6, 5)
	if err != nil {
		t.Fatal(err)
	}
	eng, err := bepi.New(in.g)
	if err != nil {
		t.Fatal(err)
	}
	seed := in.eligible[0]
	got, err := eng.Query(seed)
	if err != nil {
		t.Fatal(err)
	}
	if err := checkScores(in.g.N(), in.edges, seed, got); err != nil {
		t.Error(err)
	}
	bad := append([]float64(nil), got...)
	bad[(seed+1)%len(bad)] += 1e-4
	if checkScores(in.g.N(), in.edges, seed, bad) == nil {
		t.Error("a perturbed vector passed the oracle")
	}
	top, err := eng.TopK(seed, topK)
	if err != nil {
		t.Fatal(err)
	}
	nodes := make([]int, len(top))
	for i, r := range top {
		nodes[i] = r.Node
	}
	if err := checkTopK(in.g.N(), in.edges, seed, topK, nodes); err != nil {
		t.Error(err)
	}
	// Swap the best node for the worst-scoring one: no longer the top-k set.
	worst := 0
	for u := range got {
		if u != seed && got[u] < got[worst] {
			worst = u
		}
	}
	nodes[0] = worst
	if checkTopK(in.g.N(), in.edges, seed, topK, nodes) == nil {
		t.Error("a wrong top-k set passed the oracle")
	}
}

func TestSpecIsBenchmarkJSON(t *testing.T) {
	want, err := currentSpec().marshal()
	if err != nil {
		t.Fatal(err)
	}
	got, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Error("BENCHMARK.json differs from `go run ./benchmark spec`; regenerate it")
	}
	seen := map[string]bool{}
	for _, d := range append(append([]metricDef(nil), endToEnd...), perLayer...) {
		if seen[d.Name] {
			t.Errorf("metric %s is declared twice", d.Name)
		}
		seen[d.Name] = true
	}
	hasSetup := false
	for _, d := range endToEnd {
		if d.Bound <= 0 || d.Bound > 0.25 {
			t.Errorf("%s: bound %v outside (0, 0.25]", d.Name, d.Bound)
		}
		hasSetup = hasSetup || (d.Name == "setup_s" && d.Unit == "s" && d.Better == "lower")
	}
	if !hasSetup {
		t.Error("setup_s is not an end-to-end metric")
	}
}

// TestQuickSmoke runs all five workloads at smoke sizes, untraced and
// traced, and checks that every metric BENCHMARK.json names is emitted with
// its unit: every end-to-end metric by every workload, every per-layer
// metric by at least one.
func TestQuickSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the five workloads")
	}
	emitted := map[string]string{}
	for _, w := range workloads {
		for _, trace := range []bool{false, true} {
			c := config{seed: 1, window: 400 * time.Millisecond, trace: trace, quick: true, outDir: t.TempDir()}
			res, err := w.run(c)
			if err != nil {
				t.Fatalf("%s trace=%v: %v", w.name, trace, err)
			}
			if !res.Correct || res.Failed != 0 || res.Attempted == 0 {
				t.Errorf("%s trace=%v: attempted %d, failed %d: %v", w.name, trace, res.Attempted, res.Failed, res.Errors)
			}
			if res.WorkloadHash == "" {
				t.Errorf("%s: no workload hash", w.name)
			}
			for name, m := range res.Metrics {
				emitted[name] = m.Unit
			}
			for _, d := range endToEnd {
				if m, ok := res.Metrics[d.Name]; !ok || m.Unit != d.Unit || m.Value <= 0 {
					t.Errorf("%s trace=%v: end-to-end metric %s = %+v (present %v), want a positive value in %s", w.name, trace, d.Name, m, ok, d.Unit)
				}
			}
			line, err := contractLine(res)
			if err != nil {
				t.Fatalf("%s trace=%v: %v", w.name, trace, err)
			}
			var obj struct {
				Correct   *bool
				Attempted *int
				Failed    *int
				Metrics   map[string]struct {
					Value *float64
					Unit  string
				}
			}
			dec := json.NewDecoder(strings.NewReader(line))
			dec.DisallowUnknownFields()
			if err := dec.Decode(&obj); err != nil || obj.Correct == nil || obj.Attempted == nil || obj.Failed == nil {
				t.Fatalf("%s: result line %q: %v", w.name, line, err)
			}
			defs := endToEnd
			if trace {
				defs = perLayer
			}
			if len(obj.Metrics) != len(defs) {
				t.Errorf("%s trace=%v: result line has %d metrics, want %d", w.name, trace, len(obj.Metrics), len(defs))
			}
			for _, d := range defs {
				if m, ok := obj.Metrics[d.Name]; !ok || m.Value == nil || m.Unit != d.Unit {
					t.Errorf("%s trace=%v: result line lacks %s in %s", w.name, trace, d.Name, d.Unit)
				}
			}
		}
	}
	// Tail percentiles are emitted only with ten samples beyond them, which a
	// smoke run on a slow machine may not collect.
	sampleLimited := map[string]bool{"latency_p95_ms": true, "latency_p99_ms": true,
		"dynamic.read_idle_p95_ms": true, "dynamic.read_in_flush_p95_ms": true}
	for _, d := range perLayer {
		unit, ok := emitted[d.Name]
		if !ok && sampleLimited[d.Name] {
			t.Logf("%s: too few samples at smoke sizes", d.Name)
			continue
		}
		if !ok || unit != d.Unit {
			t.Errorf("per-layer metric %s (%s) was emitted by no workload (got unit %q)", d.Name, d.Unit, unit)
		}
	}
}

func TestCompareVerdicts(t *testing.T) {
	spec := benchmarkSpec{
		Workloads: []workloadWhy{{Name: "w"}},
		EndToEnd: []specMetric{
			{Name: "latency_p50_ms", Unit: "ms", Better: "lower", Bound: 0.10},
			{Name: "throughput_ops_s", Unit: "ops/s", Better: "higher", Bound: 0.10},
			{Name: "index_bytes", Unit: "B", Better: "lower", Bound: 1e-6},
			{Name: "setup_s", Unit: "s", Better: "lower", Bound: 0.25},
		},
		PerLayer: []specLayer{
			{Name: "slo_rate_rps", Unit: "rps", Better: "higher"},
			{Name: "error_share", Unit: "ratio", Better: "lower"},
			{Name: "latency_p95_ms", Unit: "ms", Better: "lower"},
			{Name: "dynamic.mode_full_count", Unit: "count", Better: "lower"},
			{Name: "dynamic.mode_hub_count", Unit: "count", Better: "higher"},
			{Name: "solver.iters_per_solve", Unit: "iters", Better: "lower"},
			{Name: "core.query_ms", Unit: "ms", Better: "lower"},
		},
	}
	set := func(trace bool, rows ...map[string]float64) []*result {
		var out []*result
		for i, row := range rows {
			r := &result{Workload: "w", Seed: int64(i + 1), Trace: trace, Metrics: metrics{}}
			for k, v := range row {
				r.Metrics.set(k, v, "")
			}
			out = append(out, r)
		}
		return out
	}
	// Five untraced runs per side; the demoted end-to-end metrics ride on them.
	steady := func(lat, thr, bytes, setup, slo, p95 float64) []map[string]float64 {
		var rows []map[string]float64
		for i := 0; i < 5; i++ {
			f := 1 + 0.002*float64(i)
			rows = append(rows, map[string]float64{"latency_p50_ms": lat * f, "throughput_ops_s": thr * f, "index_bytes": bytes,
				"setup_s": setup * f, "slo_rate_rps": slo, "error_share": 0, "latency_p95_ms": p95 * f})
		}
		return rows
	}
	a := append(set(false, steady(10, 100, 1000, 1, 100, 20)...),
		set(true, map[string]float64{"dynamic.mode_full_count": 16, "dynamic.mode_hub_count": 8, "solver.iters_per_solve": 8.5, "core.query_ms": 5,
			"slo_rate_rps": 0, "error_share": 1})...) // a traced run's copies of untraced metrics are not read
	noisy := steady(10.5, 85, 1001, 1, 50, 40)
	for i := range noisy { // setup_s: spread far beyond its bound
		noisy[i]["setup_s"] = 1 + float64(i)
	}
	b := append(set(false, noisy...),
		set(true, map[string]float64{"dynamic.mode_full_count": 17, "dynamic.mode_hub_count": 9, "solver.iters_per_solve": 8.5, "core.query_ms": 50})...)
	verdicts := func(a, b []*result) map[string]string {
		got := map[string]string{}
		for _, v := range compare(spec, a, b) {
			got[v.metric] = v.status
		}
		return got
	}
	got := verdicts(a, b)
	want := map[string]string{
		"latency_p50_ms":          "ok",         // 5% worse, bound 10%
		"throughput_ops_s":        "regressed",  // 15% lower
		"index_bytes":             "regressed",  // one byte in a thousand more
		"setup_s":                 "unresolved", // B's spread exceeds the bound
		"slo_rate_rps":            "ok",         // untraced runs: one ladder step down is allowed
		"error_share":             "ok",         // untraced runs: 0
		"latency_p95_ms":          "-",          // demoted, no bound: shown, not judged
		"dynamic.mode_full_count": "regressed",  // exact, and worse
		"dynamic.mode_hub_count":  "ok",         // exact, and better
		"solver.iters_per_solve":  "ok",         // exact and equal
	}
	for k, w := range want {
		if got[k] != w {
			t.Errorf("%s: %q, want %q", k, got[k], w)
		}
	}
	if _, ok := got["core.query_ms"]; ok {
		t.Error("an unbounded per-layer row was judged")
	}
	b[0].Metrics.set("slo_rate_rps", 25, "rps")
	b[1].Metrics.set("slo_rate_rps", 25, "rps")
	b[2].Metrics.set("slo_rate_rps", 25, "rps")
	b[4].Metrics.set("error_share", 0.01, "ratio")
	for _, r := range b[:5] { // smaller on every run: better, not a regression
		r.Metrics.set("index_bytes", 999, "B")
	}
	got = verdicts(a, b)
	if got["slo_rate_rps"] != "regressed" {
		t.Errorf("slo_rate_rps two steps down: %q", got["slo_rate_rps"])
	}
	if got["error_share"] != "regressed" {
		t.Errorf("one run with failures: error_share %q", got["error_share"])
	}
	if got["index_bytes"] != "ok" {
		t.Errorf("a smaller index: index_bytes %q", got["index_bytes"])
	}
}

// TestExactRowsRepeat runs the traced serving workloads twice with one seed
// and different windows: every row `compare` holds to exact equality must be
// identical, however far the timed loops of either run got.
func TestExactRowsRepeat(t *testing.T) {
	if testing.Short() {
		t.Skip("runs workloads")
	}
	for _, name := range []string{"serve-hot", "serve-miss-full"} {
		w, err := findWorkload(name)
		if err != nil {
			t.Fatal(err)
		}
		var runs []*result
		for _, window := range []time.Duration{400 * time.Millisecond, 600 * time.Millisecond} {
			res, err := w.run(config{seed: 3, window: window, trace: true, quick: true, outDir: t.TempDir()})
			if err != nil {
				t.Fatalf("%s: %v", name, err)
			}
			runs = append(runs, res)
		}
		exact := 0
		for _, d := range perLayer {
			if !exactRow(d.Name, d.Unit) {
				continue
			}
			x, okx := runs[0].Metrics[d.Name]
			y, oky := runs[1].Metrics[d.Name]
			if okx != oky || x.Value != y.Value || x.N != y.N {
				t.Errorf("%s: %s = %+v, then %+v", name, d.Name, x, y)
			}
			if okx {
				exact++
			}
		}
		if exact == 0 {
			t.Errorf("%s emitted no exact row", name)
		}
	}
}
