package qexec

import (
	"context"
	"sync/atomic"
	"testing"

	"bepi/internal/core"
	"bepi/internal/gen"
	"bepi/internal/obs"
)

// benchSeed models serving traffic with a hot set: three quarters of
// queries go to 16 popular seeds, the rest spread over the graph.
// Deterministic in i.
func benchSeed(i, n int) int {
	if i%4 != 3 {
		return (i * 7) % 16
	}
	return (i * 131) % n
}

// BenchmarkQexecThroughput compares three execution strategies for the
// same stream of top-10 requests on the same engine:
//
//	naive   — the pre-qexec serving path: every request calls
//	          Engine.Query directly, allocating all solve temporaries, and
//	          ranks the full vector.
//	pooled  — qexec with the cache disabled: bound-pruned TopK solves on
//	          the engine's pooled workspaces behind the admission semaphore.
//	qexec   — the full subsystem: admission + LRU cache.
//
// The qexec variants ask what a serving shard is asked, TopK(seed, 10), so
// the cache holds rankings, not full vectors, and the whole hot set fits in
// its byte budget. The qexec variant fails when its hit rate falls below
// minHitRate: its numbers are meant to measure the cached path.
//
// Run with -benchmem: queries/sec (ns/op) and allocs/op are the acceptance
// numbers for the subsystem.
func BenchmarkQexecThroughput(b *testing.B) {
	g := gen.RMAT(gen.DefaultRMAT(10, 8, 3))
	e, err := core.Preprocess(g, core.Options{})
	if err != nil {
		b.Fatal(err)
	}
	n := e.N()
	rank := func(scores []float64, seed int) {
		if got := core.RankTopK(scores, 10, seed); len(got) == 0 {
			b.Fail()
		}
	}

	b.Run("naive", func(b *testing.B) {
		var ctr atomic.Int64
		b.ReportAllocs()
		b.RunParallel(func(pb *testing.PB) {
			for pb.Next() {
				i := int(ctr.Add(1))
				seed := benchSeed(i, n)
				scores, _, err := e.Query(seed)
				if err != nil {
					b.Error(err)
					return
				}
				rank(scores, seed)
			}
		})
	})

	// minHitRate is below the three quarters of the stream that go to the
	// hot set, all of which a working cache answers.
	const minHitRate = 0.70
	run := func(b *testing.B, cfg Config, minHit float64) {
		ex := New(e, cfg)
		defer ex.Close()
		// Prime the hot set so the cached variants measure steady state,
		// then snapshot: the Delta at the end excludes this warmup.
		ctx := context.Background()
		for i := 0; i < 64; i++ {
			if _, _, err := ex.TopK(ctx, benchSeed(i, n), 10); err != nil {
				b.Fatal(err)
			}
		}
		warm := ex.Metrics()
		var ctr atomic.Int64
		b.ReportAllocs()
		b.ResetTimer()
		// Model several concurrent clients even on few cores, so hot-set
		// queries race each other as serving traffic does.
		b.SetParallelism(8)
		b.RunParallel(func(pb *testing.PB) {
			ctx := context.Background()
			for pb.Next() {
				i := int(ctr.Add(1))
				seed := benchSeed(i, n)
				top, _, err := ex.TopK(ctx, seed, 10)
				if err != nil {
					b.Error(err)
					return
				}
				if len(top) == 0 {
					b.Fail()
				}
			}
		})
		b.StopTimer()
		d := ex.Metrics().Delta(warm)
		b.ReportMetric(d.HitRate(), "hitrate")
		if hit := d.HitRate(); hit < minHit {
			b.Fatalf("hit rate %.2f, want at least %.2f", hit, minHit)
		}
	}

	b.Run("pooled", func(b *testing.B) { run(b, Config{CacheEntries: -1}, 0) })
	b.Run("qexec", func(b *testing.B) { run(b, Config{}, minHitRate) })
	// Observability cost check: the full subsystem with every obs hook
	// disabled. qexec vs noobs is the histogram/trace recording overhead
	// on the hot path (acceptance: <1%).
	b.Run("noobs", func(b *testing.B) { run(b, Config{Obs: obs.Disabled}, 0) })
}
