package obs

import (
	"math"
	"math/rand"
	"testing"
	"time"
)

// TestHistogramMergePropertyConcat is the merge correctness property: for
// observation streams recorded on separate histograms with identical
// bounds, the merged snapshot must be indistinguishable from a single
// histogram that saw the concatenated stream — identical bucket counts,
// hence identical quantiles at every q (merging is exact, not approximate).
func TestHistogramMergePropertyConcat(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	bounds := LatencyBuckets()
	shards := []*Histogram{
		NewHistogram("s0", bounds),
		NewHistogram("s1", bounds),
		NewHistogram("s2", bounds),
	}
	all := NewHistogram("all", bounds)

	const n = 5000
	var sum float64
	for i := 0; i < n; i++ {
		// Log-uniform over the bucket range plus a few overflow values.
		v := math.Pow(10, -6+7.2*rng.Float64())
		shards[i%len(shards)].Observe(v)
		all.Observe(v)
		sum += v
	}

	merged := HistSnapshot{}
	for _, h := range shards {
		var err error
		merged, err = merged.Merge(h.Snapshot())
		if err != nil {
			t.Fatalf("Merge: %v", err)
		}
	}
	want := all.Snapshot()
	if merged.Count != want.Count || merged.Count != n {
		t.Fatalf("merged count %d want %d", merged.Count, want.Count)
	}
	for i := range want.Counts {
		if merged.Counts[i] != want.Counts[i] {
			t.Fatalf("bucket %d: merged %d want %d", i, merged.Counts[i], want.Counts[i])
		}
	}
	// Sums accumulate in different orders; equality is up to rounding.
	if d := math.Abs(merged.Sum-sum) / sum; d > 1e-9 {
		t.Fatalf("merged sum %g want %g (rel err %g)", merged.Sum, sum, d)
	}
	for q := 0.01; q < 1; q += 0.07 {
		if got, want := merged.Quantile(q), want.Quantile(q); got != want {
			t.Fatalf("q=%.2f: merged %g concat %g", q, got, want)
		}
	}
}

func TestHistogramMergeZeroIdentity(t *testing.T) {
	h := NewHistogram("h", IterationBuckets())
	h.Observe(5)
	s := h.Snapshot()
	if m, err := (HistSnapshot{}).Merge(s); err != nil || m.Count != 1 {
		t.Fatalf("zero.Merge(s) = %+v, %v", m, err)
	}
	if m, err := s.Merge(HistSnapshot{}); err != nil || m.Count != 1 {
		t.Fatalf("s.Merge(zero) = %+v, %v", m, err)
	}
}

func TestHistogramMergeBoundsMismatch(t *testing.T) {
	a := NewHistogram("a", []float64{1, 2, 3})
	b := NewHistogram("b", []float64{1, 2, 4})
	c := NewHistogram("c", []float64{1, 2})
	a.Observe(1)
	b.Observe(1)
	c.Observe(1)
	if _, err := a.Snapshot().Merge(b.Snapshot()); err == nil {
		t.Fatal("differing bound values must refuse to merge")
	}
	if _, err := a.Snapshot().Merge(c.Snapshot()); err == nil {
		t.Fatal("differing bound counts must refuse to merge")
	}
}

func TestMergeMetricsSnapshots(t *testing.T) {
	mk := func(replica string, bounds []float64, vals ...float64) MetricsSnapshot {
		h := NewHistogram(FamilyQueryLatency, bounds)
		for _, v := range vals {
			h.Observe(v)
		}
		return MetricsSnapshot{
			Replica:    replica,
			TakenAt:    time.Unix(int64(len(vals)), 0),
			Histograms: map[string]HistSnapshot{FamilyQueryLatency: h.Snapshot()},
			Counters:   map[string]int64{"queries": int64(len(vals))},
		}
	}
	a := mk("a", LatencyBuckets(), 0.001, 0.002)
	b := mk("b", LatencyBuckets(), 0.004)
	merged, mismatched := MergeMetricsSnapshots([]MetricsSnapshot{a, b})
	if len(mismatched) != 0 {
		t.Fatalf("mismatched: %v", mismatched)
	}
	if got := merged.Histograms[FamilyQueryLatency].Count; got != 3 {
		t.Fatalf("merged family count %d want 3", got)
	}
	if merged.Counters["queries"] != 3 {
		t.Fatalf("merged counter %d want 3", merged.Counters["queries"])
	}
	if !merged.TakenAt.Equal(time.Unix(2, 0)) {
		t.Fatalf("TakenAt %v want the newest", merged.TakenAt)
	}

	// A shard with different bounds poisons only that family, reported.
	c := mk("c", []float64{1, 2, 3}, 1)
	merged, mismatched = MergeMetricsSnapshots([]MetricsSnapshot{a, b, c})
	if len(mismatched) != 1 || mismatched[0] != FamilyQueryLatency {
		t.Fatalf("mismatched: %v", mismatched)
	}
	if _, ok := merged.Histograms[FamilyQueryLatency]; ok {
		t.Fatal("mismatched family must be dropped, not misbinned")
	}
	if merged.Counters["queries"] != 4 {
		t.Fatalf("counters must still merge: %d", merged.Counters["queries"])
	}
}
