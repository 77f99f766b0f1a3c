package bench

import (
	"fmt"
	"sync"
	"time"

	"bepi/internal/core"
	"bepi/internal/obs"
	"bepi/internal/qexec"
)

// servingClients is how many concurrent query clients the serving
// experiment models; enough to keep every worker busy and identical
// requests coalescing.
const servingClients = 8

// servingQueries returns the measured query count per dataset.
func servingQueries(s Size) int {
	switch s {
	case Full:
		return 5000
	case Small:
		return 1000
	default:
		return 200
	}
}

// servingSeed is the workload's seed stream: three quarters of queries hit
// 16 popular seeds, the rest spread over the graph. Deterministic in i.
func servingSeed(i, n int) int {
	if i%4 != 3 {
		return (i * 7) % min(16, n)
	}
	return (i * 131) % n
}

// Serving measures the qexec serving layer in steady state on each suite
// dataset: throughput and latency quantiles under a hot-set workload from
// concurrent clients. The cache is warmed first and the warmup excluded
// from the rates via Metrics.Delta, so the hit rate is the steady-state
// one rather than an average polluted by the cold start.
func Serving(cfg Config) ([]*Table, error) {
	cfg = cfg.withDefaults()
	t := &Table{
		Title: "Steady-state serving (qexec over BePI)",
		Note: fmt.Sprintf("%d concurrent clients, hot-set workload; warmup excluded via metric deltas; engine layout: %s",
			servingClients, layoutName(cfg.Compact)),
		Header: []string{"dataset", "queries", "qps", "p50", "p99", "hit rate", "coalesced", "shed"},
	}
	for _, d := range Suite(cfg.Size) {
		e, err := core.Preprocess(d.G, core.Options{
			Variant: core.VariantFull, Tol: cfg.Tol, Parallelism: cfg.Parallelism,
			MemoryBudget: cfg.Budget.Memory, Deadline: cfg.Budget.Deadline,
			Compact: cfg.Compact,
		})
		if err != nil {
			t.AddRow(d.Name, classifyCell(err), "-", "-", "-", "-", "-", "-")
			continue
		}
		// Histograms only: tracing off so the measurement is the serving
		// path, not the trace ring.
		o := obs.New(obs.Options{TraceCapacity: -1})
		ex := qexec.New(e, qexec.Config{Obs: o})
		n := e.N()

		// Warm the hot set, then snapshot: the Delta below subtracts this.
		for i := 0; i < 64; i++ {
			if _, err := ex.Query(nil, servingSeed(i, n)); err != nil {
				ex.Close()
				return nil, fmt.Errorf("bench: serving warmup on %s: %w", d.Name, err)
			}
		}
		warm := ex.Metrics()
		warmLat := o.QueryLatency.Snapshot()

		total := servingQueries(cfg.Size)
		perClient := total / servingClients
		start := time.Now()
		var wg sync.WaitGroup
		for c := 0; c < servingClients; c++ {
			wg.Add(1)
			go func(c int) {
				defer wg.Done()
				for i := 0; i < perClient; i++ {
					// Interleave the clients' positions in the stream.
					_, _ = ex.Query(nil, servingSeed(c*perClient+i, n))
				}
			}(c)
		}
		wg.Wait()
		elapsed := time.Since(start)
		dm := ex.Metrics().Delta(warm)
		lat := deltaSnapshot(o.QueryLatency.Snapshot(), warmLat)
		ex.Close()

		ran := servingClients * perClient
		t.AddRow(d.Name,
			fmt.Sprintf("%d", ran),
			fmt.Sprintf("%.0f", float64(ran)/elapsed.Seconds()),
			FmtDuration(time.Duration(lat.Quantile(0.50)*float64(time.Second))),
			FmtDuration(time.Duration(lat.Quantile(0.99)*float64(time.Second))),
			fmt.Sprintf("%.1f%%", 100*dm.HitRate()),
			fmt.Sprintf("%d", dm.Coalesced),
			fmt.Sprintf("%d", dm.Shed))
	}
	return []*Table{t}, nil
}

// deltaSnapshot subtracts an earlier snapshot of the same histogram, so
// quantiles cover only the measured window.
func deltaSnapshot(now, prev obs.HistSnapshot) obs.HistSnapshot {
	d := obs.HistSnapshot{Name: now.Name, Bounds: now.Bounds, Counts: make([]uint64, len(now.Counts))}
	for i := range now.Counts {
		d.Counts[i] = now.Counts[i] - prev.Counts[i]
		d.Count += d.Counts[i]
	}
	d.Sum = now.Sum - prev.Sum
	return d
}
