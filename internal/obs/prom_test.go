package obs

import (
	"strings"
	"testing"
)

func TestPromWriterFamilies(t *testing.T) {
	var b strings.Builder
	p := NewPromWriter(&b)
	p.rows([]Metric{
		{Name: "requests_total", Kind: KindCounter, Help: "Total requests.", Value: Val(42)},
		{Name: "up", Kind: KindGauge, Help: "Whether up.", Value: Val(1)},
		{Name: "absent", Kind: KindGauge, Help: "Not collected here."},
		{JSON: "json_only", Value: Val(1)},
		{Name: "stage_seconds", Kind: KindGauge, Help: "Stage times.", Label: "stage", Vec: func() map[string]float64 {
			return map[string]float64{"reorder": 0.5, "build": 1.25}
		}},
	})
	if err := p.Err(); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	for _, want := range []string{
		"# HELP requests_total Total requests.\n",
		"# TYPE requests_total counter\n",
		"requests_total 42\n",
		"# TYPE up gauge\n",
		"up 1\n",
		`stage_seconds{stage="build"} 1.25` + "\n",
		`stage_seconds{stage="reorder"} 0.5` + "\n",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("missing %q in:\n%s", want, out)
		}
	}
	for _, gone := range []string{"absent", "json_only"} {
		if strings.Contains(out, gone) {
			t.Errorf("%s written:\n%s", gone, out)
		}
	}
	// Labeled samples must be sorted (build before reorder).
	if strings.Index(out, `stage="build"`) > strings.Index(out, `stage="reorder"`) {
		t.Error("labeled samples not sorted")
	}
}

func TestPromWriterHistogram(t *testing.T) {
	h := NewHistogram("lat", []float64{0.1, 1})
	h.Observe(0.05)
	h.Observe(0.5)
	h.Observe(0.5)
	h.Observe(2)
	var b strings.Builder
	p := NewPromWriter(&b)
	p.Histogram("lat_seconds", "Latency.", h.Snapshot())
	if err := p.Err(); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	for _, want := range []string{
		"# TYPE lat_seconds histogram\n",
		`lat_seconds_bucket{le="0.1"} 1` + "\n",
		`lat_seconds_bucket{le="1"} 3` + "\n",
		`lat_seconds_bucket{le="+Inf"} 4` + "\n",
		"lat_seconds_sum 3.05\n",
		"lat_seconds_count 4\n",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("missing %q in:\n%s", want, out)
		}
	}
}

func TestPromWriterRejectsDuplicatesAndBadNames(t *testing.T) {
	gauge := func(name string) Metric { return Metric{Name: name, Kind: KindGauge, Help: "X.", Value: Val(1)} }
	p := NewPromWriter(&strings.Builder{})
	p.rows([]Metric{gauge("x_total"), gauge("x_total")})
	if p.Err() == nil {
		t.Fatal("duplicate family not rejected")
	}
	for _, bad := range []string{"1bad", "bad name"} {
		p := NewPromWriter(&strings.Builder{})
		p.rows([]Metric{gauge(bad)})
		if p.Err() == nil {
			t.Fatalf("invalid name %q not rejected", bad)
		}
	}
}

func TestWriteGoStats(t *testing.T) {
	var b strings.Builder
	p := NewPromWriter(&b)
	p.rows(goStats())
	if err := p.Err(); err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"go_goroutines", "go_mem_heap_alloc_bytes", "go_gc_cycles_total"} {
		if !strings.Contains(b.String(), want) {
			t.Errorf("missing %s", want)
		}
	}
}
