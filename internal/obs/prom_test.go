package obs

import (
	"strings"
	"testing"
)

func TestPromWriterFamilies(t *testing.T) {
	var b strings.Builder
	p := NewPromWriter(&b)
	p.Counter("requests_total", "Total requests.", 42)
	p.Gauge("up", "Whether up.", 1)
	p.GaugeVec("stage_seconds", "Stage times.", "stage", map[string]float64{
		"reorder": 0.5, "build": 1.25,
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
	var b strings.Builder
	p := NewPromWriter(&b)
	p.Counter("x_total", "X.", 1)
	p.Counter("x_total", "X again.", 2)
	if p.Err() == nil {
		t.Fatal("duplicate family not rejected")
	}
	p2 := NewPromWriter(&strings.Builder{})
	p2.Gauge("1bad", "Bad.", 0)
	if p2.Err() == nil {
		t.Fatal("invalid name not rejected")
	}
	p3 := NewPromWriter(&strings.Builder{})
	p3.Gauge("bad name", "Bad.", 0)
	if p3.Err() == nil {
		t.Fatal("space in name not rejected")
	}
}

func TestWriteGoStats(t *testing.T) {
	var b strings.Builder
	p := NewPromWriter(&b)
	WriteGoStats(p)
	if err := p.Err(); err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"go_goroutines", "go_mem_heap_alloc_bytes", "go_gc_cycles_total"} {
		if !strings.Contains(b.String(), want) {
			t.Errorf("missing %s", want)
		}
	}
}
