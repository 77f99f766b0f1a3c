package cluster

import (
	"context"
	"strconv"
	"sync"
	"time"

	"bepi/internal/server"
)

// healthLoop probes every replica each HealthInterval until Close.
func (c *Coordinator) healthLoop() {
	defer c.wg.Done()
	t := time.NewTicker(c.cfg.HealthInterval)
	defer t.Stop()
	for {
		select {
		case <-c.stop:
			return
		case <-t.C:
			c.CheckNow(context.Background())
		}
	}
}

// CheckNow runs one synchronous probe round over all replicas, applying
// ejection and readmission transitions. The background checker calls it on
// every tick; tests call it directly for deterministic membership changes.
func (c *Coordinator) CheckNow(ctx context.Context) {
	var wg sync.WaitGroup
	results := make([]error, len(c.names))
	healths := make([]server.HealthResponse, len(c.names))
	for i, name := range c.names {
		wg.Add(1)
		go func(i int, rep *replica) {
			defer wg.Done()
			pctx, cancel := context.WithTimeout(ctx, attemptTimeout)
			defer cancel()
			healths[i], results[i] = rep.backend.Health(pctx)
		}(i, c.replicas[name])
	}
	wg.Wait()

	// Transitions are applied under mu so concurrent CheckNow calls (tests
	// racing the background loop) serialize their ring swaps.
	c.mu.Lock()
	defer c.mu.Unlock()
	ring := c.ring.Load()
	changed := false
	for i, name := range c.names {
		rep := c.replicas[name]
		if results[i] == nil {
			h := healths[i]
			rep.lastHealth.Store(&h)
			rep.consecFail = 0
			rep.consecOK++
			if !rep.healthy.Load() && rep.consecOK >= readmitThreshold {
				rep.healthy.Store(true)
				rep.readmissions.Add(1)
				c.obs.Events.Record("shard_readmitted", "", map[string]string{
					"shard":     name,
					"consec_ok": strconv.Itoa(rep.consecOK),
				})
				ring = ring.With(name)
				changed = true
			}
		} else {
			rep.consecOK = 0
			rep.consecFail++
			if rep.healthy.Load() && rep.consecFail >= failThreshold {
				rep.healthy.Store(false)
				rep.ejections.Add(1)
				c.obs.Events.Record("shard_ejected", "", map[string]string{
					"shard":       name,
					"consec_fail": strconv.Itoa(rep.consecFail),
					"cause":       results[i].Error(),
				})
				ring = ring.Without(name)
				changed = true
			}
		}
	}
	if changed {
		c.ring.Store(ring)
	}
}

// ReplicaStatus is one replica's row in the coordinator's /replicas view.
type ReplicaStatus struct {
	Name            string  `json:"name"`
	Healthy         bool    `json:"healthy"`
	Generation      uint64  `json:"generation"`
	IndexHash       string  `json:"index_hash,omitempty"`
	QueueDepth      int     `json:"queue_depth"`
	RebuildInFlight bool    `json:"rebuild_in_flight"`
	Routed          int64   `json:"routed"`
	Errors          int64   `json:"errors"`
	Retries         int64   `json:"retries"`
	Ejections       int64   `json:"ejections"`
	Readmissions    int64   `json:"readmissions"`
	P50MS           float64 `json:"p50_ms"`
	P99MS           float64 `json:"p99_ms"`
}

// Replicas returns per-replica routing and health state, sorted by name.
func (c *Coordinator) Replicas() []ReplicaStatus {
	out := make([]ReplicaStatus, 0, len(c.names))
	for _, name := range c.names {
		rep := c.replicas[name]
		st := ReplicaStatus{
			Name:         name,
			Healthy:      rep.healthy.Load(),
			Routed:       rep.routed.Load(),
			Errors:       rep.errs.Load(),
			Retries:      rep.retries.Load(),
			Ejections:    rep.ejections.Load(),
			Readmissions: rep.readmissions.Load(),
		}
		if h := rep.lastHealth.Load(); h != nil {
			st.Generation = h.Generation
			st.IndexHash = h.IndexHash
			st.QueueDepth = h.QueueDepth
			st.RebuildInFlight = h.RebuildInFlight
		}
		snap := rep.latency.Snapshot()
		if snap.Count > 0 {
			st.P50MS = snap.Quantile(0.5) * 1e3
			st.P99MS = snap.Quantile(0.99) * 1e3
		}
		out = append(out, st)
	}
	return out
}
