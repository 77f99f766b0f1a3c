package obs

import (
	"encoding/json"
	"net/http/httptest"
	"strings"
	"testing"
)

// TestMetricViews derives the three views from one small table and checks
// each rule: seconds become milliseconds under an "_ms" key and
// nanoseconds under an "_ns" snapshot key, label values expand into keys
// ("{}") or array elements ("[]"), a histogram summarizes in milliseconds
// when its family is in seconds, and a nil source is left out of the
// exposition but read as zero elsewhere.
func TestMetricViews(t *testing.T) {
	// An overflow observation: every quantile reads the top bound, 2 ms.
	lat := NewHistogram("lat_seconds", []float64{0.001, 0.002})
	lat.Observe(1)
	rows := []Metric{
		{Name: "ops_total", Kind: KindCounter, Help: "Ops.", JSON: "ops", Snap: "ops", Value: Val(7)},
		{Name: "busy_seconds_total", Kind: KindCounter, Help: "Busy.", JSON: "busy_ms", Snap: "busy_ns", Value: Val(1.5)},
		{Name: "off_total", Kind: KindCounter, Help: "Not collected.", JSON: "off", Snap: "off"},
		{Name: "stage_seconds", Kind: KindGauge, Help: "Stages.", Label: "stage", JSON: "prep.{}_ms",
			Vec: func() map[string]float64 { return map[string]float64{"a": 0.25, "b": 2} }},
		{Name: "p50_seconds", Kind: KindGauge, Help: "p50.", Label: "shard", JSON: "fleet.shards[].p50_ms",
			Vec: func() map[string]float64 { return map[string]float64{"s1": 0.001, "s0": 0.003} }},
		{Label: "shard", JSON: "fleet.shards[].count",
			Vec: func() map[string]float64 { return map[string]float64{"s0": 4, "s1": 5} }},
		{Name: "lat_seconds", Kind: KindHistogram, Help: "Latency.", JSON: "latency", Snap: "lat_seconds", Hist: lat.Snapshot},
		{Name: "gone_seconds", Kind: KindHistogram, Help: "Not collected.", JSON: "gone", Snap: "gone_seconds"},
	}

	rec := httptest.NewRecorder()
	ServeProm(rec, BuildInfo{Version: "v", GoVersion: "go"}, rows)
	prom := rec.Body.String()
	for _, want := range []string{
		`bepi_build_info{go_version="go",version="v"} 1`,
		"ops_total 7\n", "busy_seconds_total 1.5\n",
		`stage_seconds{stage="a"} 0.25`, `p50_seconds{shard="s0"} 0.003`,
		"lat_seconds_count 1\n", "go_goroutines ",
	} {
		if !strings.Contains(prom, want) {
			t.Errorf("exposition lacks %q:\n%s", want, prom)
		}
	}
	for _, gone := range []string{"off_total", "gone_seconds", "count{"} {
		if strings.Contains(prom, gone) {
			t.Errorf("exposition has %q:\n%s", gone, prom)
		}
	}

	b, err := json.Marshal(JSON(rows))
	if err != nil {
		t.Fatal(err)
	}
	const want = `{"busy_ms":1500,"fleet":{"shards":[{"count":4,"p50_ms":3,"shard":"s0"},{"count":5,"p50_ms":1,"shard":"s1"}]},` +
		`"gone":{"count":0,"p50_ms":0,"p90_ms":0,"p99_ms":0},"latency":{"count":1,"p50_ms":2,"p90_ms":2,"p99_ms":2},` +
		`"off":0,"ops":7,"prep":{"a_ms":250,"b_ms":2000}}`
	if string(b) != want {
		t.Errorf("JSON\n got %s\nwant %s", b, want)
	}

	s := Snapshot(BuildInfo{}, rows)
	if s.Counters["ops"] != 7 || s.Counters["busy_ns"] != 1.5e9 || s.Counters["off"] != 0 || len(s.Counters) != 3 {
		t.Errorf("snapshot counters %v", s.Counters)
	}
	if s.Counter("busy_ns") != 1.5 {
		t.Errorf("Counter(busy_ns) = %v, want the row's 1.5 s", s.Counter("busy_ns"))
	}
	if _, ok := s.Histograms["gone_seconds"]; ok || s.Histograms["lat_seconds"].Count != 1 || len(s.Histograms) != 1 {
		t.Errorf("snapshot histograms %v", s.Histograms)
	}
}

// TestHistSnapshotValidate: only a snapshot a Histogram could have taken
// passes — the merge refuses the rest.
func TestHistSnapshotValidate(t *testing.T) {
	h := NewHistogram("h", []float64{1, 2, 3})
	h.Observe(1.5)
	if err := h.Snapshot().Validate(); err != nil {
		t.Fatalf("a histogram's own snapshot: %v", err)
	}
	for name, s := range map[string]HistSnapshot{
		"short counts":   {Bounds: []float64{1, 2, 3}, Counts: []uint64{1}, Count: 1},
		"long counts":    {Bounds: []float64{1}, Counts: []uint64{0, 1, 0}, Count: 1},
		"descending":     {Bounds: []float64{2, 1}, Counts: []uint64{0, 1, 0}, Count: 1},
		"repeated bound": {Bounds: []float64{1, 1}, Counts: []uint64{0, 1, 0}, Count: 1},
		"count mismatch": {Bounds: []float64{1, 2}, Counts: []uint64{0, 1, 0}, Count: 2},
		"empty":          {},
	} {
		if s.Validate() == nil {
			t.Errorf("%s: accepted %+v", name, s)
		}
	}
}
