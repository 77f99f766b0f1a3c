package cluster

import (
	"context"
	"net/http"
	"sort"
	"strings"
	"sync"
	"time"

	"bepi/internal/obs"
	"bepi/internal/server"
	"bepi/internal/sparse"
)

// TraceNode is one process's trace record with the records it parented
// nested under it — one node of the cross-process trace tree.
type TraceNode struct {
	obs.Trace
	// Source is the process the record came from: "coordinator" or the
	// replica's ring name.
	Source   string       `json:"source"`
	Children []*TraceNode `json:"children,omitempty"`
}

// TraceTree assembles the distributed trace tree for one trace ID: the
// coordinator's own records plus every replica's (fetched concurrently from
// backends supporting TraceSource), linked by parent span ID. Records whose
// parent never arrived (evicted from a ring, or the fetch failed) are
// promoted to roots rather than dropped. The second return is the total
// record count.
func (c *Coordinator) TraceTree(ctx context.Context, traceID string, max int) ([]*TraceNode, int) {
	nodes := make([]*TraceNode, 0, 8)
	for _, t := range c.obs.Tracer.ByTraceID(traceID, max) {
		nodes = append(nodes, &TraceNode{Trace: t, Source: "coordinator"})
	}
	var mu sync.Mutex
	var wg sync.WaitGroup
	for _, name := range c.names {
		ts, ok := c.replicas[name].backend.(TraceSource)
		if !ok {
			continue
		}
		wg.Add(1)
		go func(name string, ts TraceSource) {
			defer wg.Done()
			fctx, cancel := context.WithTimeout(ctx, attemptTimeout)
			defer cancel()
			traces, err := ts.Traces(fctx, traceID, max)
			if err != nil {
				return // a missing shard degrades the tree, never fails it
			}
			mu.Lock()
			for _, t := range traces {
				nodes = append(nodes, &TraceNode{Trace: t, Source: name})
			}
			mu.Unlock()
		}(name, ts)
	}
	wg.Wait()

	// Link children under parents; chronological order at every level.
	sort.Slice(nodes, func(i, j int) bool { return nodes[i].Time.Before(nodes[j].Time) })
	bySpan := make(map[uint64]*TraceNode, len(nodes))
	for _, n := range nodes {
		if n.SpanID != 0 {
			bySpan[n.SpanID] = n
		}
	}
	var roots []*TraceNode
	for _, n := range nodes {
		if p, ok := bySpan[n.ParentID]; ok && n.ParentID != 0 && p != n {
			p.Children = append(p.Children, n)
			continue
		}
		roots = append(roots, n)
	}
	return roots, len(nodes)
}

// TraceTreeResponse is the coordinator's /debug/traces?trace=ID payload:
// the trace's records joined into a tree by parent span.
type TraceTreeResponse struct {
	TraceID string       `json:"trace_id"`
	Count   int          `json:"count"`
	Roots   []*TraceNode `json:"roots"`
}

// handleTraces serves the coordinator's recent trace records (flat, newest
// first), or — with ?trace=ID — the assembled cross-process tree for one
// distributed trace.
func (h *Handler) handleTraces(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		server.WriteError(w, http.StatusMethodNotAllowed, 0, "use GET")
		return
	}
	if r.Context().Err() != nil {
		return
	}
	n, ok := server.DebugCount(w, r, 50)
	if !ok {
		return
	}
	if id := r.URL.Query().Get("trace"); id != "" {
		roots, count := h.coord.TraceTree(r.Context(), id, n)
		if roots == nil {
			roots = []*TraceNode{}
		}
		server.WriteJSON(w, http.StatusOK, TraceTreeResponse{TraceID: id, Count: count, Roots: roots})
		return
	}
	traces := h.coord.Observer().Tracer.Recent(n)
	if traces == nil {
		traces = []obs.Trace{}
	}
	server.WriteJSON(w, http.StatusOK, server.TraceResponse{Count: len(traces), Traces: traces})
}

// FleetSnapshots fetches the mergeable metrics snapshot from every replica
// whose backend supports SnapshotSource, concurrently under the attempt
// timeout. Failed or unsupported replicas are skipped — aggregation
// degrades, it never fails a scrape. Results are sorted by replica name.
func (c *Coordinator) FleetSnapshots(ctx context.Context) []obs.MetricsSnapshot {
	out := make([]obs.MetricsSnapshot, 0, len(c.names))
	var mu sync.Mutex
	var wg sync.WaitGroup
	for _, name := range c.names {
		ss, ok := c.replicas[name].backend.(SnapshotSource)
		if !ok {
			continue
		}
		wg.Add(1)
		go func(name string, ss SnapshotSource) {
			defer wg.Done()
			fctx, cancel := context.WithTimeout(ctx, attemptTimeout)
			defer cancel()
			s, err := ss.MetricsSnapshot(fctx)
			if err != nil {
				return
			}
			if s.Replica == "" {
				s.Replica = name
			}
			mu.Lock()
			out = append(out, s)
			mu.Unlock()
		}(name, ss)
	}
	wg.Wait()
	sort.Slice(out, func(i, j int) bool { return out[i].Replica < out[j].Replica })
	return out
}

// metrics is the coordinator's metric table: routing counters, replica
// state and, when any replica served a snapshot, the fleet view merged
// from them — every metric declared once, in exposition order (see
// obs.Metric). It is built per scrape. mismatched lists the histogram
// families the merge dropped.
func (c *Coordinator) metrics(snaps []obs.MetricsSnapshot) (rows []obs.Metric, mismatched []string) {
	ring, reps := c.Ring(), c.Replicas()
	perReplica := func(f func(ReplicaStatus) float64) func() map[string]float64 {
		return func() map[string]float64 {
			m := make(map[string]float64, len(reps))
			for _, r := range reps {
				m[r.Name] = f(r)
			}
			return m
		}
	}
	total := func(f func(ReplicaStatus) float64) func() float64 {
		return func() float64 {
			var n float64
			for _, r := range reps {
				n += f(r)
			}
			return n
		}
	}
	routed := func(r ReplicaStatus) float64 { return float64(r.Routed) }
	errs := func(r ReplicaStatus) float64 { return float64(r.Errors) }
	retries := func(r ReplicaStatus) float64 { return float64(r.Retries) }
	ejections := func(r ReplicaStatus) float64 { return float64(r.Ejections) }
	readmissions := func(r ReplicaStatus) float64 { return float64(r.Readmissions) }
	generation := func(r ReplicaStatus) float64 { return float64(r.Generation) }
	healthy := perReplica(func(r ReplicaStatus) float64 {
		if r.Healthy {
			return 1
		}
		return 0
	})
	const counter, gauge = obs.KindCounter, obs.KindGauge
	rows = []obs.Metric{
		obs.RingMembers(obs.Val(ring.Len())),
		obs.ShardHealthy(healthy),
		// Fleet totals of the routing counters.
		{Name: "bepi_cluster_retries_total", Kind: counter, Help: "Query attempts retried on a ring successor.", Value: total(retries)},
		{Name: "bepi_cluster_ejections_total", Kind: counter, Help: "Health-check ejections across the fleet.", Value: total(ejections)},
		{Name: "bepi_cluster_readmissions_total", Kind: counter, Help: "Health-check readmissions across the fleet.", Value: total(readmissions)},
	}
	if len(snaps) > 0 {
		var fleet []obs.Metric
		fleet, mismatched = fleetMetrics(snaps)
		rows = append(rows, fleet...)
	}
	rows = append(rows, []obs.Metric{
		{Name: "bepi_cluster_ring_size", Kind: gauge, Help: "Healthy replicas on the ring.", Value: obs.Val(ring.Len())},
		{JSON: "vnodes", Value: obs.Val(DefaultVnodes)},
		{Name: "bepi_cluster_replica_routed_total", Kind: counter, Label: "replica", Help: "Queries routed per replica.", Vec: perReplica(routed)},
		{Name: "bepi_cluster_replica_errors_total", Kind: counter, Label: "replica", Help: "Failed replica attempts.", Vec: perReplica(errs)},
		{Name: "bepi_cluster_replica_retries_total", Kind: counter, Label: "replica", Help: "Retry attempts landing on this replica.", Vec: perReplica(retries)},
		{Name: "bepi_cluster_replica_ejections_total", Kind: counter, Label: "replica", Help: "Health-check ejections.", Vec: perReplica(ejections)},
		{Name: "bepi_cluster_replica_readmissions_total", Kind: counter, Label: "replica", Help: "Health-check readmissions.", Vec: perReplica(readmissions)},
		{Name: "bepi_cluster_replica_healthy", Kind: gauge, Label: "replica", Help: "1 if the replica is on the ring.", Vec: healthy},
		{Name: "bepi_cluster_replica_generation", Kind: gauge, Label: "replica", Help: "Replica's last reported index generation.", Vec: perReplica(generation)},
	}...)
	for _, name := range c.names {
		h := c.replicas[name].latency
		rows = append(rows, obs.Metric{Name: h.Name(), Kind: obs.KindHistogram, Help: "Attempt latency for replica " + name + ".", Hist: h.Snapshot})
	}
	return rows, mismatched
}

// fleetMetrics is the fleet view of replica snapshots: the merged kernel
// bandwidth and delta-path counters, per-shard and merged query-latency
// quantiles (merged quantiles are exact to bucket resolution because every
// shard shares the bucket layout), and every merged histogram family under
// a bepi_fleet_ prefix.
func fleetMetrics(snaps []obs.MetricsSnapshot) (rows []obs.Metric, mismatched []string) {
	merged, mismatched := obs.MergeMetricsSnapshots(snaps)
	sort.Strings(mismatched)
	perShard := func(f func(obs.HistSnapshot) float64) func() map[string]float64 {
		return func() map[string]float64 {
			m := make(map[string]float64, len(snaps))
			for _, s := range snaps {
				m[s.Replica] = f(s.Histograms[obs.FamilyQueryLatency])
			}
			return m
		}
	}
	quantile := func(q float64) func(obs.HistSnapshot) float64 {
		return func(h obs.HistSnapshot) float64 { return h.Quantile(q) }
	}
	if merged.Counters[obs.SnapKernelBytes] != 0 || merged.Counters[obs.SnapKernelNanos] != 0 {
		// Summed bytes over summed seconds, against the coordinator host's
		// own roof: a like-for-like fraction only on homogeneous fleets.
		kernel := obs.Kernel("fleet.kernel", obs.Val(merged.Counter(obs.SnapKernelBytes)),
			obs.Val(merged.Counter(obs.SnapKernelNanos)), sparse.StreamBandwidth)
		// The byte and second counters are the shards' own; their fleet
		// sums stay in JSON.
		kernel[0].Name, kernel[1].Name = "", ""
		rows = append(rows, kernel...)
	}
	lat := merged.Histograms[obs.FamilyQueryLatency]
	rows = append(rows,
		obs.DeltaApplied(obs.Val(merged.Counter(obs.SnapDeltaApplied))),
		obs.Metric{Name: "bepi_shard_query_latency_p50_seconds", Kind: obs.KindGauge, Label: "shard", Help: "Per-shard query-latency p50.",
			JSON: "fleet.shards[].p50_ms", Vec: perShard(quantile(0.50))},
		obs.Metric{Name: "bepi_shard_query_latency_p99_seconds", Kind: obs.KindGauge, Label: "shard", Help: "Per-shard query-latency p99.",
			JSON: "fleet.shards[].p99_ms", Vec: perShard(quantile(0.99))},
		obs.Metric{Label: "shard", JSON: "fleet.shards[].count", Vec: perShard(func(h obs.HistSnapshot) float64 { return float64(h.Count) })},
		obs.Metric{JSON: "fleet.merged.count", Value: obs.Val(lat.Count)},
		obs.Metric{JSON: "fleet.merged.p50_ms", Value: obs.Val(lat.Quantile(0.50))},
		obs.Metric{JSON: "fleet.merged.p99_ms", Value: obs.Val(lat.Quantile(0.99))},
	)
	families := make([]string, 0, len(merged.Histograms))
	for f := range merged.Histograms {
		families = append(families, f)
	}
	sort.Strings(families)
	for _, f := range families {
		// bepi_query_latency_seconds → bepi_fleet_query_latency_seconds:
		// the same family, bucket-wise summed across the fleet.
		h := merged.Histograms[f]
		rows = append(rows, obs.Metric{Name: "bepi_fleet_" + strings.TrimPrefix(f, "bepi_"), Kind: obs.KindHistogram,
			Help: "Fleet-merged " + f + " (bucket-wise sum over shards).", Hist: func() obs.HistSnapshot { return h }})
	}
	return rows, mismatched
}

// replicaLatencyFamily prefixes each replica's attempt-latency histogram;
// the suffix is the replica's name made metric-safe (promSafe).
const replicaLatencyFamily = "bepi_cluster_replica_latency_seconds_"

// promSafe rewrites a replica name (often host:port) into a metric-name
// suffix.
func promSafe(name string) string {
	var b strings.Builder
	for _, r := range name {
		switch {
		case r >= 'a' && r <= 'z', r >= 'A' && r <= 'Z', r >= '0' && r <= '9', r == '_':
			b.WriteRune(r)
		default:
			b.WriteByte('_')
		}
	}
	return b.String()
}

// snapshots fetches the replicas' snapshots for one /metrics scrape,
// waiting at most 5s on the fan-out before serving what it has.
func (h *Handler) snapshots(r *http.Request) []obs.MetricsSnapshot {
	ctx, cancel := context.WithTimeout(r.Context(), 5*time.Second)
	defer cancel()
	return h.coord.FleetSnapshots(ctx)
}

func (h *Handler) handleMetrics(w http.ResponseWriter, r *http.Request) {
	if server.WantsProm(r) {
		h.handleMetricsProm(w, r)
		return
	}
	if r.Context().Err() != nil {
		return
	}
	rows, mismatched := h.coord.metrics(h.snapshots(r))
	doc := obs.JSON(rows)
	obs.SetJSON(doc, "replicas", h.coord.Replicas())
	obs.SetJSON(doc, "ring_members", h.coord.Ring().Members())
	if len(mismatched) > 0 {
		// Histogram families dropped from the merge because replicas
		// disagreed on their bounds (a mixed-version fleet) or sent them
		// malformed.
		obs.SetJSON(doc, "fleet.mismatched_families", mismatched)
	}
	server.WriteJSON(w, http.StatusOK, doc)
}

func (h *Handler) handleMetricsProm(w http.ResponseWriter, r *http.Request) {
	if r.Context().Err() != nil {
		return
	}
	rows, _ := h.coord.metrics(h.snapshots(r))
	obs.ServeProm(w, server.BuildInfo(), rows)
}
