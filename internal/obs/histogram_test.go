package obs

import (
	"math"
	"sync"
	"testing"
)

func TestHistogramBuckets(t *testing.T) {
	h := NewHistogram("test", []float64{1, 10, 100})
	for _, v := range []float64{0.5, 1, 1.5, 10, 99, 100, 101, 1e9} {
		h.Observe(v)
	}
	s := h.Snapshot()
	want := []uint64{2, 2, 2, 2} // ≤1: {0.5, 1}; ≤10: {1.5, 10}; ≤100: {99, 100}; +Inf: {101, 1e9}
	for i, w := range want {
		if s.Counts[i] != w {
			t.Errorf("bucket %d: got %d want %d (counts %v)", i, s.Counts[i], w, s.Counts)
		}
	}
	if s.Count != 8 {
		t.Errorf("count %d want 8", s.Count)
	}
	wantSum := 0.5 + 1 + 1.5 + 10 + 99 + 100 + 101 + 1e9
	if math.Abs(s.Sum-wantSum) > 1e-6 {
		t.Errorf("sum %v want %v", s.Sum, wantSum)
	}
}

func TestHistogramNilSafe(t *testing.T) {
	var h *Histogram
	h.Observe(1)
	if s := h.Snapshot(); s.Count != 0 || s.Quantile(0.5) != 0 {
		t.Fatal("nil histogram must snapshot empty")
	}
	if h.Name() != "" {
		t.Fatal("nil histogram name")
	}
}

func TestHistogramQuantile(t *testing.T) {
	h := NewHistogram("q", []float64{10, 20, 30, 40})
	// 100 observations uniform over (0, 40]: 25 per bucket.
	for i := 1; i <= 100; i++ {
		h.Observe(float64(i) * 0.4)
	}
	s := h.Snapshot()
	for _, c := range []struct{ q, want, tol float64 }{
		{0.5, 20, 1},
		{0.9, 36, 1},
		{0.99, 39.6, 1},
		{0, 0, 1},
		{1, 40, 1e-9},
	} {
		if got := s.Quantile(c.q); math.Abs(got-c.want) > c.tol {
			t.Errorf("p%g = %v, want %v ± %v", c.q*100, got, c.want, c.tol)
		}
	}
	// Everything in overflow → largest finite bound.
	o := NewHistogram("o", []float64{1})
	o.Observe(5)
	if got := o.Snapshot().Quantile(0.5); got != 1 {
		t.Errorf("overflow quantile %v want 1", got)
	}
}

func TestLogBuckets(t *testing.T) {
	b := LogBuckets(1e-6, 1, 5)
	if b[0] != 1e-6 {
		t.Fatalf("first bound %v", b[0])
	}
	if last := b[len(b)-1]; last < 1 {
		t.Fatalf("last bound %v does not reach hi", last)
	}
	for i := 1; i < len(b); i++ {
		ratio := b[i] / b[i-1]
		if math.Abs(ratio-math.Pow(10, 0.2)) > 1e-9 {
			t.Fatalf("ratio %v at %d not log-spaced", ratio, i)
		}
	}
	// The standard bucket sets must satisfy NewHistogram's ordering check.
	NewHistogram("lat", LatencyBuckets())
	NewHistogram("iter", IterationBuckets())
	NewHistogram("res", ResidualBuckets())
}

// TestHistogramConcurrent hammers Observe from many goroutines while
// snapshots are taken — the record-vs-snapshot race coverage for the
// lock-free implementation. Run under -race (wired into `make race-par`).
func TestHistogramConcurrent(t *testing.T) {
	h := NewHistogram("conc", LatencyBuckets())
	const goroutines, per = 8, 5000
	stop := make(chan struct{})
	var readers sync.WaitGroup
	readers.Add(1)
	go func() { // concurrent snapshot reader
		defer readers.Done()
		for {
			select {
			case <-stop:
				return
			default:
				s := h.Snapshot()
				var sum uint64
				for _, c := range s.Counts {
					sum += c
				}
				if sum != s.Count {
					t.Error("snapshot count does not equal bucket total")
					return
				}
			}
		}
	}()
	var writers sync.WaitGroup
	writers.Add(goroutines)
	for g := 0; g < goroutines; g++ {
		go func(g int) {
			defer writers.Done()
			for i := 0; i < per; i++ {
				h.Observe(float64(g*per+i) * 1e-7)
			}
		}(g)
	}
	writers.Wait()
	close(stop)
	readers.Wait()
	s := h.Snapshot()
	if s.Count != goroutines*per {
		t.Fatalf("count %d want %d", s.Count, goroutines*per)
	}
}

func BenchmarkHistogramObserve(b *testing.B) {
	h := NewHistogram("bench", LatencyBuckets())
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		h.Observe(float64(i%1000) * 1e-6)
	}
}

func BenchmarkHistogramObserveParallel(b *testing.B) {
	h := NewHistogram("bench", LatencyBuckets())
	b.ReportAllocs()
	b.RunParallel(func(pb *testing.PB) {
		i := 0
		for pb.Next() {
			h.Observe(float64(i%1000) * 1e-6)
			i++
		}
	})
}
