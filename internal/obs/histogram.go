package obs

import (
	"fmt"
	"math"
	"sort"
	"sync/atomic"
)

// Histogram is a lock-free fixed-bucket histogram. Bucket i counts values
// v ≤ Bounds[i] (the first bound that fits); one extra bucket catches the
// overflow (+Inf). Record is a binary search plus two atomic updates, cheap
// enough for the per-query hot path; Snapshot reads the buckets without
// stopping writers, so a snapshot taken under concurrent recording is a
// consistent-enough point-in-time view (each bucket is atomically read, the
// set of buckets is not read as one atomic unit).
type Histogram struct {
	name   string
	bounds []float64
	counts []atomic.Uint64 // len(bounds)+1, last = overflow
	sum    atomic.Uint64   // float64 bits, CAS-accumulated
}

// NewHistogram builds a histogram over the given ascending upper bounds.
// The name is its Prometheus family name.
func NewHistogram(name string, bounds []float64) *Histogram {
	for i := 1; i < len(bounds); i++ {
		if bounds[i] <= bounds[i-1] {
			panic("obs: histogram bounds must be strictly ascending")
		}
	}
	return &Histogram{
		name:   name,
		bounds: bounds,
		counts: make([]atomic.Uint64, len(bounds)+1),
	}
}

// Observe records one value. It is safe for concurrent use and a no-op on a
// nil histogram.
func (h *Histogram) Observe(v float64) {
	if h == nil {
		return
	}
	h.counts[sort.SearchFloat64s(h.bounds, v)].Add(1)
	for {
		old := h.sum.Load()
		if h.sum.CompareAndSwap(old, math.Float64bits(math.Float64frombits(old)+v)) {
			return
		}
	}
}

// Name returns the family name the histogram was built with.
func (h *Histogram) Name() string {
	if h == nil {
		return ""
	}
	return h.name
}

// HistSnapshot is a point-in-time copy of a histogram's state. It is the
// histogram's mergeable exported form: because every process builds a given
// metric over identical bounds, snapshots travel as JSON (shards serve them
// at /metrics/snapshot) and fleet-wide quantiles come from Merge-ing the
// per-shard snapshots — histogram merging is exact (bucket counts add),
// unlike quantile merging.
type HistSnapshot struct {
	Name   string    `json:"name,omitempty"`
	Bounds []float64 `json:"bounds"` // bucket upper bounds; one implicit +Inf bucket follows
	Counts []uint64  `json:"counts"` // per-bucket counts, len(Bounds)+1
	Count  uint64    `json:"count"`  // total observations (sum of Counts)
	Sum    float64   `json:"sum"`    // sum of observed values
}

// Merge returns the snapshot of the union of the two observation streams.
// Both snapshots must have identical bounds (the standard bucket layouts in
// this package guarantee that for same-named metrics); merging with a zero
// snapshot returns the other operand. An error is returned on a bounds
// mismatch rather than silently misbinning.
func (s HistSnapshot) Merge(o HistSnapshot) (HistSnapshot, error) {
	if s.Count == 0 && len(s.Bounds) == 0 {
		return o, nil
	}
	if o.Count == 0 && len(o.Bounds) == 0 {
		return s, nil
	}
	if len(s.Bounds) != len(o.Bounds) {
		return HistSnapshot{}, fmt.Errorf("obs: merge %q: %d bounds vs %d", s.Name, len(s.Bounds), len(o.Bounds))
	}
	for i := range s.Bounds {
		if s.Bounds[i] != o.Bounds[i] {
			return HistSnapshot{}, fmt.Errorf("obs: merge %q: bound[%d] %g vs %g", s.Name, i, s.Bounds[i], o.Bounds[i])
		}
	}
	m := HistSnapshot{
		Name:   s.Name,
		Bounds: s.Bounds,
		Counts: make([]uint64, len(s.Counts)),
		Count:  s.Count + o.Count,
		Sum:    s.Sum + o.Sum,
	}
	copy(m.Counts, s.Counts)
	for i := range o.Counts {
		if i < len(m.Counts) {
			m.Counts[i] += o.Counts[i]
		}
	}
	return m, nil
}

// Validate reports whether the snapshot is one a Histogram could have
// taken: one count per bound plus the overflow bucket, strictly ascending
// bounds, and a total that is the sum of the buckets.
func (s HistSnapshot) Validate() error {
	if len(s.Counts) != len(s.Bounds)+1 {
		return fmt.Errorf("obs: histogram %q: %d counts for %d bounds", s.Name, len(s.Counts), len(s.Bounds))
	}
	for i := 1; i < len(s.Bounds); i++ {
		if !(s.Bounds[i] > s.Bounds[i-1]) {
			return fmt.Errorf("obs: histogram %q: bounds not strictly ascending at %d", s.Name, i)
		}
	}
	var sum uint64
	for _, c := range s.Counts {
		sum += c
	}
	if sum != s.Count {
		return fmt.Errorf("obs: histogram %q: count %d, buckets sum to %d", s.Name, s.Count, sum)
	}
	return nil
}

// Snapshot copies the histogram's current state. Safe under concurrent
// Observe calls; returns a zero snapshot for a nil histogram.
func (h *Histogram) Snapshot() HistSnapshot {
	if h == nil {
		return HistSnapshot{}
	}
	s := HistSnapshot{
		Name:   h.name,
		Bounds: h.bounds,
		Counts: make([]uint64, len(h.counts)),
		Sum:    math.Float64frombits(h.sum.Load()),
	}
	for i := range h.counts {
		c := h.counts[i].Load()
		s.Counts[i] = c
		s.Count += c
	}
	return s
}

// Quantile estimates the q-quantile (0 ≤ q ≤ 1) by linear interpolation
// inside the bucket holding the target rank. Values in the overflow bucket
// report the largest finite bound; an empty histogram reports 0.
func (s HistSnapshot) Quantile(q float64) float64 {
	if s.Count == 0 || len(s.Bounds) == 0 {
		return 0
	}
	rank := q * float64(s.Count)
	var cum float64
	for i, c := range s.Counts {
		if c == 0 {
			continue
		}
		next := cum + float64(c)
		if rank <= next || i == len(s.Counts)-1 {
			if i >= len(s.Bounds) {
				return s.Bounds[len(s.Bounds)-1]
			}
			lo := 0.0
			if i > 0 {
				lo = s.Bounds[i-1]
			}
			hi := s.Bounds[i]
			frac := (rank - cum) / float64(c)
			if frac < 0 {
				frac = 0
			} else if frac > 1 {
				frac = 1
			}
			return lo + frac*(hi-lo)
		}
		cum = next
	}
	return s.Bounds[len(s.Bounds)-1]
}

// LogBuckets returns upper bounds log-spaced from lo up to at least hi with
// `per` buckets per decade. lo and hi must be positive, per ≥ 1.
func LogBuckets(lo, hi float64, per int) []float64 {
	if lo <= 0 || hi <= lo || per < 1 {
		panic("obs: LogBuckets needs 0 < lo < hi and per ≥ 1")
	}
	ratio := math.Pow(10, 1/float64(per))
	var b []float64
	for v := lo; ; v *= ratio {
		b = append(b, v)
		if v >= hi {
			return b
		}
	}
}

// LatencyBuckets spans 1µs to 60s in seconds, five buckets per decade —
// wide enough for a cache hit and a cold billion-edge solve alike.
func LatencyBuckets() []float64 { return LogBuckets(1e-6, 60, 5) }

// IterationBuckets covers iterative-solver iteration counts: the paper's
// experiments sit at 4-70 GMRES iterations, MaxIter defaults to 1000.
func IterationBuckets() []float64 {
	return []float64{1, 2, 3, 4, 6, 8, 12, 16, 24, 32, 48, 64, 96, 128, 192, 256, 384, 512, 768, 1024}
}

// ResidualBuckets covers final relative residuals from the default
// tolerance (1e-9) regime up to non-convergence.
func ResidualBuckets() []float64 { return LogBuckets(1e-13, 1, 2) }
