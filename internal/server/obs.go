package server

import (
	"net/http"
	"runtime"
	"strconv"

	"bepi"
	"bepi/internal/obs"
	"bepi/internal/sparse"
	"bepi/internal/wire"
)

// metrics is the shard's metric table: every metric it exports, declared
// once, in exposition order. /metrics.prom, the /metrics JSON and
// /metrics/snapshot are all derived from it (see obs.Metric). It is built
// per scrape, over one read of the executor's counters.
func (c *Core) metrics() []obs.Metric {
	o := c.exec.Observer()
	xm := c.exec.Metrics()
	eng := c.Engine()
	st := eng.Internal().PrepStats()
	queries, personalized := c.queries.Load(), c.personalized.Load()
	served, servedSeconds := queries+personalized, float64(c.queryNanos.Load())/1e9
	var avg, perPrep float64
	if served > 0 {
		avg = servedSeconds / float64(served)
	}
	if prep := eng.PreprocessTime().Seconds(); prep > 0 {
		perPrep = servedSeconds / prep
	}
	// Sources of what only some shards collect: a nil source leaves the
	// family out of the exposition.
	var slow, pending, delta func() float64
	var modes func() map[string]float64
	if o.SlowLog != nil {
		slow = obs.Val(o.SlowLog.Count())
	}
	if c.dyn != nil {
		pending = obs.Val(c.dyn.Pending())
		delta = obs.Val(c.deltaApplied.Load())
		// One-hot: which path produced the serving index's most recent
		// rebuild.
		modes = func() map[string]float64 {
			m := map[string]float64{}
			for _, mode := range []bepi.RebuildMode{bepi.RebuildModeFull, bepi.RebuildModeDeltaSpoke, bepi.RebuildModeDeltaHub, bepi.RebuildModeNoop} {
				m[string(mode)] = 0
			}
			if last, ok := c.lastRebuildMode.Load().(string); ok && last != "" {
				m[last] = 1
			}
			return m
		}
	}
	const counter, gauge = obs.KindCounter, obs.KindGauge
	// merged is a row in JSON and in the fleet snapshot under one key.
	merged := func(kind obs.Kind, name, key, help string, v func() float64) obs.Metric {
		return obs.Metric{Name: name, Kind: kind, Help: help, JSON: key, Snap: key, Value: v}
	}
	rows := []obs.Metric{
		// Ring shape (degenerate for one process), so fleet dashboards can
		// target shards and coordinators with the same queries.
		obs.RingMembers(obs.Val(1)),
		obs.ShardHealthy(func() map[string]float64 { return map[string]float64{"local": 1} }),

		// Served traffic.
		merged(counter, "bepi_queries_total", "queries", "Single-seed queries served.", obs.Val(queries)),
		merged(counter, "bepi_personalized_total", "personalized", "Personalized (multi-seed) queries served.", obs.Val(personalized)),
		merged(counter, "bepi_errors_total", "errors", "Requests answered with an error status.", obs.Val(c.errors.Load())),
		{JSON: "avg_query_ms", Value: obs.Val(avg)},
		{JSON: "preprocess_ms", Value: obs.Val(eng.PreprocessTime().Seconds())},
		{JSON: "queries_per_preprocess", Value: obs.Val(perPrep)},

		// Query-execution subsystem.
		merged(counter, "bepi_cache_hits_total", "cache_hits", "Queries answered from the cache (score vectors and certified top-k rankings).", obs.Val(xm.CacheHits)),
		merged(counter, "bepi_topk_cache_hits_total", "topk_cache_hits", "Cache hits served from a certified (seed, k) ranking.", obs.Val(xm.TopKCacheHits)),
		merged(counter, "bepi_cache_misses_total", "cache_misses", "Queries past the cache.", obs.Val(xm.CacheMisses)),
		merged(counter, "bepi_shed_total", "shed", "Requests shed by admission control.", obs.Val(xm.Shed)),
		{Name: "bepi_cache_entries", Kind: gauge, Help: "Cached answers: score vectors and certified top-k rankings.", JSON: "cache_entries", Value: obs.Val(xm.CacheEntries)},
		merged(gauge, "bepi_cache_bytes", "cache_bytes", "Bytes the cached answers are charged against the cache's budget, the index size.", obs.Val(xm.CacheBytes)),
		merged(counter, "bepi_cache_probation_evictions_total", "cache_probation_evictions", "Cached answers evicted from probation without ever being hit.", obs.Val(xm.ProbationEvictions)),
		{Name: "bepi_queue_depth", Kind: gauge, Help: "Requests waiting in the admission queue.", JSON: "queued", Value: obs.Val(xm.Queued)},
		{JSON: "executed", Value: obs.Val(xm.Executed)},
		{JSON: "hit_rate", Value: obs.Val(xm.HitRate())},

		// Solver progress and the observer's histograms.
		{Name: "bepi_solver_iterations_total", Kind: counter, Help: "Iterative-solver iterations across all solves.", JSON: "solver_iters_total", Snap: "solver_iterations", Value: obs.Val(o.SolverIters.Load())},
		merged(counter, "bepi_slow_queries_total", "slow_queries", "Queries slower than the slow-query threshold.", slow),
		o.Metric(obs.FamilyQueryLatency, "query_latency"),
		o.Metric(obs.FamilySolve, ""),
		o.Metric(obs.FamilyQueueWait, "queue_wait"),
		o.Metric(obs.FamilyIterations, ""),
		o.Metric(obs.FamilyResidual, ""),
		o.Metric(obs.FamilySchurApply, ""),
		o.Metric(obs.FamilyPrecondApply, ""),
	}
	rows = append(rows, obs.Kernel("kernel",
		obs.Val(o.KernelBytes.Load()), obs.Val(float64(o.KernelNanos.Load())/1e9), sparse.StreamBandwidth)...)
	return append(rows, []obs.Metric{
		// Bounded top-k path.
		merged(counter, "bepi_topk_solves_total", "topk_solves", "Queries solved through the bounded top-k path.", obs.Val(xm.TopKSolves)),
		merged(counter, "bepi_topk_early_stops_total", "topk_early_stops", "Bounded top-k solves stopped early by the certificate.", obs.Val(xm.EarlyStops)),
		o.Metric(obs.FamilyTopKSaved, "topk_iters_saved"),

		// Dynamic-update subsystem: rebuild cost, buffered updates, and the
		// generation the executor is serving from.
		o.Metric(obs.FamilyRebuild, "rebuild_latency"),
		{Name: "bepi_pending_updates", Kind: gauge, Help: "Updates (edges and nodes) buffered since the last rebuild.", JSON: "pending_updates", Value: pending},
		obs.DeltaApplied(delta),
		{Name: "bepi_rebuild_mode", Kind: gauge, Label: "mode", Help: "Mode of the most recent settled rebuild (one-hot).", Vec: modes},
		{Name: "bepi_index_generation", Kind: gauge, Help: "Serving-engine generation (bumped on every swap).", JSON: "generation", Value: obs.Val(xm.Generation)},
		merged(counter, "bepi_engine_swaps_total", "engine_swaps", "Engine swaps applied by the executor.", obs.Val(xm.EngineSwaps)),
		merged(counter, "bepi_solve_panics_total", "solve_panics", "Engine solves recovered by the panic barrier.", obs.Val(xm.SolvePanics)),

		// Index and preprocessing (Table 2 / Figure 1 quantities, live).
		{Name: "bepi_index_bytes", Kind: gauge, Help: "Preprocessed index size.", JSON: "index_bytes", Value: obs.Val(eng.MemoryBytes())},
		{Name: "bepi_index_part_bytes", Kind: gauge, Label: "part", Help: "Preprocessed index size by part; the parts sum to bepi_index_bytes.", JSON: "index_parts.{}", Vec: func() map[string]float64 {
			m := map[string]float64{}
			for _, p := range eng.Internal().IndexParts() {
				m[p.Name] = float64(p.Bytes)
			}
			return m
		}},
		{Name: "bepi_nodes", Kind: gauge, Help: "Graph nodes.", JSON: "prep.nodes", Value: obs.Val(st.N)},
		{Name: "bepi_edges", Kind: gauge, Help: "Graph edges.", JSON: "prep.edges", Value: obs.Val(st.M)},
		{Name: "bepi_schur_nnz", Kind: gauge, Help: "Nonzeros in the Schur complement.", JSON: "prep.schur_nnz", Value: obs.Val(st.SchurNNZ)},
		{Name: "bepi_hub_ratio", Kind: gauge, Help: "Hub selection ratio k.", JSON: "prep.hub_ratio", Value: obs.Val(st.HubRatio)},
		{Name: "bepi_prep_workers", Kind: gauge, Help: "Effective parallel workers during preprocessing.", JSON: "prep.workers", Value: obs.Val(st.Workers)},
		{JSON: "prep.blocks", Value: obs.Val(st.Blocks)},
		{Name: "bepi_partition_size", Kind: gauge, Label: "block", Help: "Nodes per block of the hub-and-spoke reordering.", JSON: "prep.{}", Vec: func() map[string]float64 {
			return map[string]float64{"spokes": float64(st.N1), "hubs": float64(st.N2), "deadends": float64(st.N3)}
		}},
		{Name: "bepi_prep_stage_seconds", Kind: gauge, Label: "stage", Help: "Preprocessing wall time by stage.", JSON: "prep.{}_ms", Vec: func() map[string]float64 {
			return map[string]float64{
				"reorder":    st.Reorder.Seconds(),
				"build_h":    st.BuildH.Seconds(),
				"factor_h11": st.FactorH11.Seconds(),
				"schur":      st.Schur.Seconds(),
				"ilu":        st.ILU.Seconds(),
				"total":      st.Total.Seconds(),
			}
		}},
	}...)
}

// BuildInfo reports the running build's identity: module version and Go
// toolchain.
func BuildInfo() obs.BuildInfo {
	return obs.BuildInfo{Version: bepi.Version, GoVersion: runtime.Version()}
}

// MetricsSnapshot exports this core's metrics in the mergeable form the
// cluster coordinator aggregates (served at GET /metrics/snapshot).
func (c *Core) MetricsSnapshot() obs.MetricsSnapshot {
	return obs.Snapshot(BuildInfo(), c.metrics())
}

// handleMetricsProm writes the full Prometheus exposition.
func (s *Server) handleMetricsProm(w http.ResponseWriter, r *http.Request) {
	obs.ServeProm(w, BuildInfo(), s.core.metrics())
}

// TraceResponse is the /debug/traces payload.
type TraceResponse struct {
	Count  int         `json:"count"`
	Traces []obs.Trace `json:"traces"`
}

// maxDebugItems caps how many traces or events one debug request returns,
// whatever ?n= asks for — debug endpoints must never serialize an unbounded
// response while the serving path is under load.
const maxDebugItems = 512

// DebugCount parses the `?n=` item count of a debug endpoint, on the shard
// and the coordinator alike: default def, 0 or anything above
// maxDebugItems capped to it. The bool is false (after a 400 was written)
// when the parameter is malformed or negative.
func DebugCount(w http.ResponseWriter, r *http.Request, def int) (int, bool) {
	n := def
	if v := r.URL.Query().Get("n"); v != "" {
		var err error
		n, err = strconv.Atoi(v)
		if err != nil || n < 0 {
			writeError(w, http.StatusBadRequest, "bad n %q", v)
			return 0, false
		}
	}
	if n == 0 || n > maxDebugItems {
		n = maxDebugItems
	}
	return n, true
}

// handleTraces serves finished query traces, newest first. `?n=` bounds the
// count (default 50, see DebugCount); `?trace=ID` filters to the
// records of one distributed trace (the shape the cluster coordinator
// fetches when assembling a cross-process trace tree).
func (s *Server) handleTraces(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		writeError(w, http.StatusMethodNotAllowed, "use GET")
		return
	}
	if r.Context().Err() != nil {
		return // client already gone: skip the ring scan and the write
	}
	n, ok := DebugCount(w, r, 50)
	if !ok {
		return
	}
	tracer := s.core.exec.Observer().Tracer
	var traces []obs.Trace
	if id := r.URL.Query().Get("trace"); id != "" {
		traces = tracer.ByTraceID(id, n)
	} else {
		traces = tracer.Recent(n)
	}
	if traces == nil {
		traces = []obs.Trace{} // tracing disabled: an empty list, not null
	}
	wire.WriteJSON(w, http.StatusOK, TraceResponse{Count: len(traces), Traces: traces})
}

// EventResponse is the /debug/events payload.
type EventResponse struct {
	Count  int         `json:"count"`
	Events []obs.Event `json:"events"`
}

// ServeEvents serves a flight recorder, on the shard and the coordinator
// alike: recent structured operational events, newest first. `?n=` bounds
// the count (default 100, see DebugCount).
func ServeEvents(w http.ResponseWriter, r *http.Request, log *obs.EventLog) {
	if r.Method != http.MethodGet {
		writeError(w, http.StatusMethodNotAllowed, "use GET")
		return
	}
	if r.Context().Err() != nil {
		return
	}
	n, ok := DebugCount(w, r, 100)
	if !ok {
		return
	}
	events := log.Recent(n)
	if events == nil {
		events = []obs.Event{}
	}
	wire.WriteJSON(w, http.StatusOK, EventResponse{Count: len(events), Events: events})
}

// handleMetricsSnapshot serves this process's mergeable metrics export — the
// payload the cluster coordinator fetches and folds into fleet-wide
// quantiles.
func (s *Server) handleMetricsSnapshot(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		writeError(w, http.StatusMethodNotAllowed, "use GET")
		return
	}
	wire.WriteJSON(w, http.StatusOK, s.core.MetricsSnapshot())
}
