package bench

import (
	"context"
	"fmt"
	"sync"
	"time"

	"bepi"
	"bepi/internal/cluster"
	"bepi/internal/core"
	"bepi/internal/graph"
	"bepi/internal/obs"
	"bepi/internal/qexec"
	"bepi/internal/server"
)

// clusterReplicaCounts are the fleet sizes the cluster experiment sweeps.
var clusterReplicaCounts = []int{1, 2, 4}

// clusterClients is the closed-loop client count.
const clusterClients = 16

// clusterHotSeeds is the hot-set size — deliberately larger than one
// replica's cache (clusterCacheEntries), so a single replica cannot hold
// the working set while a sharded fleet can: seed-affine routing gives each
// replica a disjoint shard of the hot set, and the aggregate cache capacity
// grows with the fleet.
const clusterHotSeeds = 64

// clusterCacheEntries is each replica's LRU capacity. At 1 replica the
// 64-seed hot set thrashes a 24-entry cache; at 4 replicas each shard
// (~16 seeds) fits entirely.
const clusterCacheEntries = 24

// clusterSeed draws from the hot set pseudo-randomly (a cyclic sweep is
// LRU's worst case and would collapse the 1-replica hit rate to zero; the
// random draw gives the smooth cap/workingset hit rate real traffic shows).
func clusterSeed(i, n int) int {
	h := uint64(i) * 0x9e3779b97f4a7c15
	h ^= h >> 29
	h *= 0xbf58476d1ce4e5b9
	h ^= h >> 32
	return int(h % uint64(min(clusterHotSeeds, n)))
}

// clusterQueries returns the measured query count per replica sweep.
func clusterQueries(s Size) int {
	return 4 * servingQueries(s)
}

// publicGraph rebuilds an internal benchmark graph through the public API,
// which is what the serving core (and therefore a cluster replica) accepts.
func publicGraph(g *graph.Graph) (*bepi.Graph, error) {
	internal := g.Edges()
	edges := make([]bepi.Edge, len(internal))
	for i, e := range internal {
		edges[i] = bepi.Edge{Src: e.Src, Dst: e.Dst}
	}
	return bepi.NewGraph(g.N(), edges)
}

// Cluster measures the sharded serving tier: closed-loop throughput of the
// coordinator over 1, 2 and 4 in-process replicas on a hot-set workload
// that exceeds one replica's cache. Every replica shares one engine (the
// index is identical across a real fleet too) but owns its executor —
// worker pool, LRU cache, singleflight — so the sweep measures exactly
// what sharding buys: consistent-hash routing splits the hot set into
// disjoint per-replica shards, the aggregate cache capacity grows with the
// fleet, and the hit rate (and with it qps, since a miss is a Schur solve)
// climbs as replicas are added. The queries are default top-10 rankings,
// so what each cache holds is mostly certified (seed, 10) rankings.
// Spraying seeds randomly instead of
// affinity-routing would duplicate the working set in every cache and
// forfeit the capacity win.
func Cluster(cfg Config) ([]*Table, error) {
	cfg = cfg.withDefaults()
	suite := Suite(cfg.Size)
	d := suite[len(suite)-1]
	t := &Table{
		Title: "Sharded serving (cluster coordinator over in-process replicas)",
		Note: fmt.Sprintf("dataset %s; %d closed-loop clients; %d hot seeds vs %d-entry per-replica caches, seed-affine routing; warmup excluded",
			d.Name, clusterClients, clusterHotSeeds, clusterCacheEntries),
		Header: []string{"replicas", "queries", "qps", "speedup", "hit rate", "p50", "p99", "retries"},
	}

	pg, err := publicGraph(d.G)
	if err != nil {
		return nil, fmt.Errorf("bench: cluster graph: %w", err)
	}
	engOpts := []bepi.Option{bepi.WithTolerance(cfg.Tol), bepi.WithCompact(cfg.Compact != core.CompactOff)}
	if cfg.Parallelism != 0 {
		engOpts = append(engOpts, bepi.WithParallelism(cfg.Parallelism))
	}
	eng, err := bepi.New(pg, engOpts...)
	if err != nil {
		return nil, fmt.Errorf("bench: cluster preprocess %s: %w", d.Name, err)
	}
	n := eng.N()
	total := clusterQueries(cfg.Size)
	perClient := total / clusterClients

	var baseQPS float64
	for _, replicas := range clusterReplicaCounts {
		cores := make([]*server.Core, replicas)
		backends := make([]cluster.Backend, replicas)
		lats := make([]*obs.Histogram, replicas)
		for i := range cores {
			o := obs.New(obs.Options{TraceCapacity: -1})
			lats[i] = o.QueryLatency
			cores[i] = server.NewCore(eng, qexec.Config{Obs: o, CacheEntries: clusterCacheEntries})
			backends[i] = cluster.NewLocalBackend(fmt.Sprintf("replica-%d", i), cores[i])
		}
		coord, err := cluster.New(backends, cluster.Config{HealthInterval: -1})
		if err != nil {
			return nil, err
		}

		ctx := context.Background()
		for i := 0; i < 2*clusterHotSeeds; i++ {
			if _, err := coord.Query(ctx, clusterSeed(i, n), 10, false); err != nil {
				return nil, fmt.Errorf("bench: cluster warmup: %w", err)
			}
		}
		warm := make([]qexec.Metrics, replicas)
		warmLat := make([]obs.HistSnapshot, replicas)
		for i, c := range cores {
			warm[i] = c.Executor().Metrics()
			warmLat[i] = lats[i].Snapshot()
		}

		start := time.Now()
		var wg sync.WaitGroup
		for c := 0; c < clusterClients; c++ {
			wg.Add(1)
			go func(c int) {
				defer wg.Done()
				for i := 0; i < perClient; i++ {
					_, _ = coord.Query(ctx, clusterSeed(c*perClient+i, n), 10, false)
				}
			}(c)
		}
		wg.Wait()
		elapsed := time.Since(start)

		var hits, misses, retries int64
		lat := obs.HistSnapshot{}
		for i, c := range cores {
			dm := c.Executor().Metrics().Delta(warm[i])
			hits += dm.CacheHits
			misses += dm.CacheMisses
			ds := deltaSnapshot(lats[i].Snapshot(), warmLat[i])
			if i == 0 {
				lat = ds
			} else {
				for b := range lat.Counts {
					lat.Counts[b] += ds.Counts[b]
				}
				lat.Count += ds.Count
				lat.Sum += ds.Sum
			}
		}
		for _, rs := range coord.Replicas() {
			retries += rs.Retries
		}
		coord.Close()
		for _, c := range cores {
			c.Close()
		}

		ran := clusterClients * perClient
		qps := float64(ran) / elapsed.Seconds()
		if replicas == clusterReplicaCounts[0] {
			baseQPS = qps
		}
		hitRate := 0.0
		if hits+misses > 0 {
			hitRate = float64(hits) / float64(hits+misses)
		}
		t.AddRow(fmt.Sprintf("%d", replicas),
			fmt.Sprintf("%d", ran),
			fmt.Sprintf("%.0f", qps),
			fmt.Sprintf("%.2fx", qps/baseQPS),
			fmt.Sprintf("%.1f%%", 100*hitRate),
			FmtDuration(time.Duration(lat.Quantile(0.50)*float64(time.Second))),
			FmtDuration(time.Duration(lat.Quantile(0.99)*float64(time.Second))),
			fmt.Sprintf("%d", retries))
	}
	return []*Table{t}, nil
}
