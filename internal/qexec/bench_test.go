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
// same query stream on the same engine:
//
//	naive   — the pre-qexec serving path: every request calls
//	          Engine.Query directly, allocating all solve temporaries.
//	pooled  — qexec with the cache disabled: solves on the engine's
//	          pooled workspaces behind the admission semaphore.
//	qexec   — the full subsystem: admission + LRU cache.
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

	run := func(b *testing.B, cfg Config) {
		ex := New(e, cfg)
		defer ex.Close()
		// Prime the hot set so the cached variants measure steady state,
		// then snapshot: the Delta at the end excludes this warmup.
		ctx := context.Background()
		for i := 0; i < 64; i++ {
			if _, err := ex.Query(ctx, benchSeed(i, n)); err != nil {
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
				res, err := ex.Query(ctx, seed)
				if err != nil {
					b.Error(err)
					return
				}
				rank(res.Scores, seed)
			}
		})
		b.StopTimer()
		d := ex.Metrics().Delta(warm)
		b.ReportMetric(d.HitRate(), "hitrate")
	}

	b.Run("pooled", func(b *testing.B) { run(b, Config{CacheEntries: -1}) })
	b.Run("qexec", func(b *testing.B) { run(b, Config{}) })
	// Observability cost check: the full subsystem with every obs hook
	// disabled. qexec vs noobs is the histogram/trace recording overhead
	// on the hot path (acceptance: <1%).
	b.Run("noobs", func(b *testing.B) { run(b, Config{Obs: obs.Disabled}) })
}
