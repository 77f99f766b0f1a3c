package cluster

import (
	"context"
	"fmt"
	"testing"

	"bepi"
	"bepi/internal/qexec"
	"bepi/internal/server"
)

// BenchmarkCoordinatorPersonalized times a multi-seed query through the
// coordinator at 1, 4 and 16 seeds, over three LocalBackends that share
// one engine of a scale-15 RMAT graph (edge factor 14, the size of the
// serving benchmark's graph):
//
//	shard — one server.Core.Personalized call with the same weights: the
//	        single solve the coordinator forwards the query to;
//	cold  — the coordinator over shards with their caches disabled, so no
//	        query finds anything cached;
//	warm  — the coordinator over shards with default caches, each query
//	        asked once before the timer starts.
func BenchmarkCoordinatorPersonalized(b *testing.B) {
	eng, err := bepi.New(bepi.RMAT(15, 14, 1))
	if err != nil {
		b.Fatal(err)
	}
	fleet := func(b *testing.B, cfg qexec.Config) *Coordinator {
		var backends []Backend
		for i := 0; i < 3; i++ {
			c := server.NewCore(eng, cfg)
			b.Cleanup(c.Close)
			backends = append(backends, NewLocalBackend(fmt.Sprintf("replica-%d", i), c))
		}
		coord, err := New(backends, testConfig())
		if err != nil {
			b.Fatal(err)
		}
		b.Cleanup(coord.Close)
		return coord
	}
	ctx := context.Background()
	loop := func(b *testing.B, query func() error) {
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if err := query(); err != nil {
				b.Fatal(err)
			}
		}
	}
	for _, seeds := range []int{1, 4, 16} {
		weights := make(map[int]float64, seeds)
		for i := 0; i < seeds; i++ {
			weights[1+i*997] = float64(1 + i%3)
		}
		b.Run(fmt.Sprintf("shard/seeds=%d", seeds), func(b *testing.B) {
			c := server.NewCore(eng, qexec.Config{CacheEntries: -1})
			b.Cleanup(c.Close)
			loop(b, func() error {
				_, err := c.Personalized(ctx, weights, 10)
				return err
			})
		})
		for _, mode := range []struct {
			name string
			cfg  qexec.Config
		}{
			{"cold", qexec.Config{CacheEntries: -1}},
			{"warm", qexec.Config{}},
		} {
			b.Run(fmt.Sprintf("%s/seeds=%d", mode.name, seeds), func(b *testing.B) {
				coord := fleet(b, mode.cfg)
				if _, err := coord.Personalized(ctx, weights, 10); err != nil {
					b.Fatal(err)
				}
				loop(b, func() error {
					_, err := coord.Personalized(ctx, weights, 10)
					return err
				})
			})
		}
	}
}
