package cluster

import (
	"context"
	"net/http"
	"runtime"
	"sort"
	"sync"
	"time"

	"bepi"
	"bepi/internal/obs"
	"bepi/internal/server"
	"bepi/internal/sparse"
	"bepi/internal/wire"
)

// traceContext resolves a coordinator request's tracing context, mirroring
// the shard server: a propagated X-Bepi-Trace header wins (this coordinator
// may itself sit behind another tier), otherwise ?trace=1 forces a fresh
// trace. The resolved trace ID is echoed in the X-Bepi-Trace response
// header so the caller knows what to ask /debug/traces?trace=<id> for.
func traceContext(w http.ResponseWriter, r *http.Request) context.Context {
	ctx := r.Context()
	tc, ok := obs.ParseTraceHeader(r.Header.Get(obs.TraceHeader))
	if !ok {
		if r.URL.Query().Get("trace") != "1" {
			return ctx
		}
		tc = obs.TraceContext{TraceID: obs.NewTraceID()}
	}
	w.Header().Set(obs.TraceHeader, tc.TraceID)
	return obs.WithTrace(ctx, tc)
}

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
			fctx, cancel := context.WithTimeout(ctx, c.cfg.AttemptTimeout)
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
		wire.WriteError(w, http.StatusMethodNotAllowed, 0, "use GET")
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
		wire.WriteJSON(w, http.StatusOK, TraceTreeResponse{TraceID: id, Count: count, Roots: roots})
		return
	}
	traces := h.coord.Observer().Tracer.Recent(n)
	if traces == nil {
		traces = []obs.Trace{}
	}
	wire.WriteJSON(w, http.StatusOK, server.TraceResponse{Count: len(traces), Traces: traces})
}

// handleEvents serves the coordinator's flight recorder, newest first.
func (h *Handler) handleEvents(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		wire.WriteError(w, http.StatusMethodNotAllowed, 0, "use GET")
		return
	}
	if r.Context().Err() != nil {
		return
	}
	n, ok := server.DebugCount(w, r, 100)
	if !ok {
		return
	}
	events := h.coord.Observer().Events.Recent(n)
	if events == nil {
		events = []obs.Event{}
	}
	wire.WriteJSON(w, http.StatusOK, server.EventResponse{Count: len(events), Events: events})
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
			fctx, cancel := context.WithTimeout(ctx, c.cfg.AttemptTimeout)
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

// ShardQuantiles is one process's query-latency summary inside the fleet
// aggregation (milliseconds, from the mergeable histogram).
type ShardQuantiles struct {
	Shard string  `json:"shard,omitempty"`
	Count uint64  `json:"count"`
	P50MS float64 `json:"p50_ms"`
	P99MS float64 `json:"p99_ms"`
}

// FleetMetrics is the fleet-wide aggregation in the coordinator's /metrics
// JSON: per-shard query-latency quantiles plus the same quantiles over the
// bucket-wise merged histogram. Merged quantiles are exact to within bucket
// resolution because every shard shares the identical bucket layout.
type FleetMetrics struct {
	Shards []ShardQuantiles `json:"shards"`
	Merged ShardQuantiles   `json:"merged"`
	// MismatchedFamilies lists histogram families dropped from the merge
	// because shards disagreed on bucket bounds (a mixed-version fleet).
	MismatchedFamilies []string `json:"mismatched_families,omitempty"`
	// Kernel is the fleet-merged achieved-bandwidth view: summed kernel
	// bytes over summed kernel seconds from the shard snapshots, judged
	// against the coordinator host's own STREAM roof (shards may differ;
	// per-shard roofs live on the shards' /metrics).
	Kernel *KernelBandwidth `json:"kernel,omitempty"`
}

// KernelBandwidth is the fleet-level kernel bandwidth summary.
type KernelBandwidth struct {
	Bytes               int64   `json:"bytes"`
	Seconds             float64 `json:"seconds"`
	AchievedBytesPerSec float64 `json:"achieved_bytes_per_second"`
	StreamBytesPerSec   float64 `json:"stream_bytes_per_second"`
	PctOfStream         float64 `json:"pct_of_stream"`
}

// kernelBandwidth derives the fleet kernel summary from merged snapshot
// counters (nil when no shard reported kernel counters).
func kernelBandwidth(merged obs.MetricsSnapshot) *KernelBandwidth {
	bytes := merged.Counters["kernel_bytes"]
	ns := merged.Counters["kernel_seconds_ns"]
	if bytes == 0 && ns == 0 {
		return nil
	}
	k := &KernelBandwidth{
		Bytes:             bytes,
		Seconds:           float64(ns) / 1e9,
		StreamBytesPerSec: sparse.StreamBandwidth(),
	}
	if ns > 0 {
		k.AchievedBytesPerSec = float64(bytes) / (float64(ns) / 1e9)
	}
	if k.StreamBytesPerSec > 0 {
		k.PctOfStream = 100 * k.AchievedBytesPerSec / k.StreamBytesPerSec
	}
	return k
}

func quantilesOf(shard string, s obs.HistSnapshot) ShardQuantiles {
	return ShardQuantiles{
		Shard: shard,
		Count: s.Count,
		P50MS: s.Quantile(0.50) * 1e3,
		P99MS: s.Quantile(0.99) * 1e3,
	}
}

// fleetMetrics aggregates replica snapshots into the JSON fleet view.
func fleetMetrics(snaps []obs.MetricsSnapshot) *FleetMetrics {
	if len(snaps) == 0 {
		return nil
	}
	merged, mismatched := obs.MergeMetricsSnapshots(snaps)
	sort.Strings(mismatched)
	fm := &FleetMetrics{
		Merged:             quantilesOf("", merged.Histograms[obs.FamilyQueryLatency]),
		MismatchedFamilies: mismatched,
		Kernel:             kernelBandwidth(merged),
	}
	for _, s := range snaps {
		fm.Shards = append(fm.Shards, quantilesOf(s.Replica, s.Histograms[obs.FamilyQueryLatency]))
	}
	return fm
}

// writeFleetProm writes the fleet-aggregated families: build identity, ring
// shape, per-shard health and latency quantiles, and every bucket-wise
// merged histogram under a bepi_fleet_ prefix.
func (h *Handler) writeFleetProm(p *obs.PromWriter, snaps []obs.MetricsSnapshot) {
	c := h.coord
	obs.WriteBuildInfo(p, obs.BuildInfo{Version: bepi.Version, GoVersion: runtime.Version()})
	p.Gauge("bepi_ring_members", "Healthy replicas on the consistent-hash ring.", float64(c.Ring().Len()))
	healthy := make(map[string]float64, len(c.names))
	for _, name := range c.names {
		if c.replicas[name].healthy.Load() {
			healthy[name] = 1
		} else {
			healthy[name] = 0
		}
	}
	p.GaugeVec("bepi_shard_healthy", "1 when the shard is on the ring.", "shard", healthy)

	// Fleet-total routing counters (summed across replicas) and the
	// generation-guard counters.
	var retries, ejections, readmissions int64
	for _, name := range c.names {
		rep := c.replicas[name]
		retries += rep.retries.Load()
		ejections += rep.ejections.Load()
		readmissions += rep.readmissions.Load()
	}
	p.Counter("bepi_cluster_retries_total", "Query attempts retried on a ring successor.", float64(retries))
	p.Counter("bepi_cluster_ejections_total", "Health-check ejections across the fleet.", float64(ejections))
	p.Counter("bepi_cluster_readmissions_total", "Health-check readmissions across the fleet.", float64(readmissions))
	p.Counter("bepi_cluster_refetches_total", "Partials re-fetched to converge a merge on one generation.", float64(c.refetches.Load()))

	if len(snaps) == 0 {
		return
	}
	merged, _ := obs.MergeMetricsSnapshots(snaps)
	// Fleet-merged achieved kernel bandwidth: summed bytes over summed
	// seconds across shards. The STREAM roof is the coordinator host's own
	// probe — a like-for-like fraction only on homogeneous fleets.
	if k := kernelBandwidth(merged); k != nil {
		p.Gauge("bepi_kernel_achieved_bytes_per_second", "Fleet-merged achieved solve-kernel bandwidth (summed bytes over summed seconds).", k.AchievedBytesPerSec)
		p.Gauge("bepi_stream_bytes_per_second", "Measured STREAM-triad roof of the coordinator host.", k.StreamBytesPerSec)
	}
	// Incremental-rebuild adoption across the fleet (shards sum their
	// delta-mode rebuild counts into the mergeable snapshot).
	p.Counter("bepi_delta_applied_total", "Rebuilds absorbed incrementally by the delta path across the fleet.", float64(merged.Counters["delta_applied"]))
	p50 := make(map[string]float64, len(snaps))
	p99 := make(map[string]float64, len(snaps))
	for _, s := range snaps {
		q := quantilesOf(s.Replica, s.Histograms[obs.FamilyQueryLatency])
		p50[s.Replica] = q.P50MS / 1e3
		p99[s.Replica] = q.P99MS / 1e3
	}
	p.GaugeVec("bepi_shard_query_latency_p50_seconds", "Per-shard query-latency p50.", "shard", p50)
	p.GaugeVec("bepi_shard_query_latency_p99_seconds", "Per-shard query-latency p99.", "shard", p99)
	families := make([]string, 0, len(merged.Histograms))
	for f := range merged.Histograms {
		families = append(families, f)
	}
	sort.Strings(families)
	for _, f := range families {
		// bepi_query_latency_seconds → bepi_fleet_query_latency_seconds:
		// the same family, bucket-wise summed across the fleet.
		p.Histogram("bepi_fleet_"+f[len("bepi_"):], "Fleet-merged "+f+" (bucket-wise sum over shards).",
			merged.Histograms[f])
	}
}

// snapshotCtx bounds how long a /metrics scrape waits on replica snapshot
// fan-out before serving what it has.
func snapshotCtx(r *http.Request) (context.Context, context.CancelFunc) {
	return context.WithTimeout(r.Context(), 5*time.Second)
}
