package qexec

import "sync/atomic"

// counters is the executor's internal atomic counter set.
type counters struct {
	hits     atomic.Int64
	topkHits atomic.Int64
	misses   atomic.Int64
	shed     atomic.Int64
	executed atomic.Int64
	swaps    atomic.Int64
	panics   atomic.Int64
	topk     atomic.Int64
	early    atomic.Int64
}

// Metrics is a point-in-time snapshot of the executor's counters. All
// counter fields are cumulative since the executor started — they are
// never reset, so rates come from subtracting two snapshots (Delta) rather
// than from a Reset that would race other readers. CacheEntries, CacheBytes
// and Queued are gauges: current occupancy, not cumulative.
type Metrics struct {
	// CacheHits counts queries answered from the LRU cache with no solve.
	CacheHits int64
	// TopKCacheHits counts the subset of CacheHits served from a certified
	// (seed, k) ranking rather than a full score vector.
	TopKCacheHits int64
	// CacheMisses counts queries that had to go past the cache (includes
	// personalized queries).
	CacheMisses int64
	// Coalesced is always 0: every miss runs its own solve. The name is
	// what the benchmark harness compiles against.
	Coalesced int64
	// Shed counts queries rejected by admission control because
	// QueueDepth callers were already waiting for a solve slot.
	Shed int64
	// Batches counts engine solves admitted. Each solve serves
	// one query, so it equals Executed; the name is what the benchmark
	// harness compiles against.
	Batches int64
	// Executed counts queries admitted to a solve slot and solved.
	Executed int64
	// EngineSwaps counts SwapEngine calls that actually replaced the
	// engine (the dynamic-graph rebuild path).
	EngineSwaps int64
	// SolvePanics counts engine solves that panicked and were recovered by
	// the solve's panic barrier (each fails its query with
	// ErrSolvePanicked).
	SolvePanics int64
	// TopKSolves counts queries solved through the bounded top-k path.
	TopKSolves int64
	// EarlyStops counts bounded top-k solves whose certificate fired before
	// the solver reached full tolerance (the subset of TopKSolves that
	// actually saved iterations).
	EarlyStops int64
	// CacheEntries is the current number of cached answers, score vectors
	// and certified rankings together (gauge).
	CacheEntries int
	// CacheBytes is what those answers are charged against the cache's byte
	// budget: 8 B per cached score, 16 B per cached ranked entry (gauge).
	CacheBytes int64
	// ProbationEvictions counts answers the cache evicted from its
	// probation segment without any request having read them.
	ProbationEvictions int64
	// Queued is the number of callers currently waiting for a solve slot
	// (gauge).
	Queued int
	// Generation is the current engine generation (gauge; starts at 1,
	// bumped on every swap).
	Generation uint64
}

// Metrics snapshots the executor's counters. Each field is read atomically,
// but the snapshot as a whole is not one atomic unit: under concurrent
// traffic the fields may be skewed by the handful of queries that completed
// between reads. That skew is bounded and disappears in Delta-based rate
// computations over any non-trivial window.
func (e *Executor) Metrics() Metrics {
	m := Metrics{
		CacheHits:     e.m.hits.Load(),
		TopKCacheHits: e.m.topkHits.Load(),
		CacheMisses:   e.m.misses.Load(),
		Shed:          e.m.shed.Load(),
		Executed:      e.m.executed.Load(),
		EngineSwaps:   e.m.swaps.Load(),
		SolvePanics:   e.m.panics.Load(),
		TopKSolves:    e.m.topk.Load(),
		EarlyStops:    e.m.early.Load(),
		Queued:        int(e.queued.Load()),
		Generation:    e.Generation(),
	}
	m.Batches = m.Executed
	if e.cache != nil {
		m.CacheEntries, m.CacheBytes, m.ProbationEvictions = e.cache.size()
	}
	return m
}

// Delta returns the counter movement between two snapshots, m − prev —
// the Reset-free way to compute steady-state rates (take a snapshot after
// warmup, another at the end, and call Delta). Gauge fields (CacheEntries,
// CacheBytes, Queued) are carried over from m unchanged.
func (m Metrics) Delta(prev Metrics) Metrics {
	return Metrics{
		CacheHits:     m.CacheHits - prev.CacheHits,
		TopKCacheHits: m.TopKCacheHits - prev.TopKCacheHits,
		CacheMisses:   m.CacheMisses - prev.CacheMisses,
		Shed:          m.Shed - prev.Shed,
		Batches:       m.Batches - prev.Batches,
		Executed:      m.Executed - prev.Executed,
		EngineSwaps:   m.EngineSwaps - prev.EngineSwaps,
		SolvePanics:   m.SolvePanics - prev.SolvePanics,
		TopKSolves:    m.TopKSolves - prev.TopKSolves,
		EarlyStops:    m.EarlyStops - prev.EarlyStops,
		CacheEntries:  m.CacheEntries,
		CacheBytes:    m.CacheBytes,
		Queued:        m.Queued,
		Generation:    m.Generation,

		ProbationEvictions: m.ProbationEvictions - prev.ProbationEvictions,
	}
}

// HitRate returns the fraction of queries served from the cache,
// CacheHits / (CacheHits + CacheMisses), or 0 before any traffic. Apply it
// to a Delta for a steady-state rate unpolluted by cold-cache warmup.
func (m Metrics) HitRate() float64 {
	total := m.CacheHits + m.CacheMisses
	if total == 0 {
		return 0
	}
	return float64(m.CacheHits) / float64(total)
}

// AvgBatchSize returns Executed/Batches — queries per engine solve, 1 once
// anything was solved — or 0 before any solve.
func (m Metrics) AvgBatchSize() float64 {
	if m.Batches == 0 {
		return 0
	}
	return float64(m.Executed) / float64(m.Batches)
}
