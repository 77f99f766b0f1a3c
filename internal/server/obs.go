package server

import (
	"net/http"
	"strconv"

	"bepi"
	"bepi/internal/obs"
	"bepi/internal/sparse"
	"bepi/internal/wire"
)

// handleMetricsProm writes the full Prometheus exposition: served-traffic
// counters, qexec counters and histograms, preprocessing stats, and Go
// runtime health.
func (s *Server) handleMetricsProm(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	p := obs.NewPromWriter(w)
	s.writeProm(p)
	if err := p.Err(); err != nil {
		// Too late for a status change; surface the bug in the body where
		// the scraper's parse failure will point at it.
		http.Error(w, "exposition error: "+err.Error(), http.StatusInternalServerError)
	}
}

func (s *Server) writeProm(p *obs.PromWriter) {
	// Build identity and (degenerate single-process) ring shape, so fleet
	// dashboards can target shards and coordinators with the same queries.
	obs.WriteBuildInfo(p, s.core.BuildInfo())
	p.Gauge("bepi_ring_members", "Replicas on the consistent-hash ring (1 for a standalone shard).", 1)
	p.GaugeVec("bepi_shard_healthy", "1 when the shard is serving (per-shard from the coordinator).", "shard",
		map[string]float64{"local": 1})

	// Served traffic.
	p.Counter("bepi_queries_total", "Single-seed queries served.", float64(s.core.queries.Load()))
	p.Counter("bepi_personalized_total", "Personalized (multi-seed) queries served.", float64(s.core.personalized.Load()))
	p.Counter("bepi_errors_total", "Requests answered with an error status.", float64(s.core.errors.Load()))

	// Query-execution subsystem counters.
	xm := s.core.exec.Metrics()
	p.Counter("bepi_cache_hits_total", "Queries answered from the cache (score vectors and certified top-k rankings).", float64(xm.CacheHits))
	p.Counter("bepi_topk_cache_hits_total", "Cache hits served from a certified (seed, k) ranking.", float64(xm.TopKCacheHits))
	p.Counter("bepi_cache_misses_total", "Queries past the cache.", float64(xm.CacheMisses))
	p.Counter("bepi_coalesced_total", "Queries that rode an identical in-flight solve.", float64(xm.Coalesced))
	p.Counter("bepi_shed_total", "Requests shed by admission control.", float64(xm.Shed))
	p.Gauge("bepi_cache_entries", "Cached answers: score vectors and certified top-k rankings.", float64(xm.CacheEntries))
	p.Gauge("bepi_cache_bytes", "Bytes the cached answers are charged against the cache's budget, the index size.", float64(xm.CacheBytes))
	p.Gauge("bepi_queue_depth", "Requests waiting in the admission queue.", float64(xm.Queued))

	// Observer histograms and live counters.
	o := s.core.exec.Observer()
	p.Counter("bepi_solver_iterations_total", "Iterative-solver iterations across all solves.", float64(o.SolverIters.Load()))
	if sl := o.SlowLog; sl != nil {
		p.Counter("bepi_slow_queries_total", "Queries slower than the slow-query threshold.", float64(sl.Count()))
	}
	if o.QueryLatency != nil {
		p.Histogram("bepi_query_latency_seconds", "End-to-end executor latency per query.", o.QueryLatency.Snapshot())
	}
	if o.SolveLatency != nil {
		p.Histogram("bepi_solve_seconds", "Wall time of each engine solve.", o.SolveLatency.Snapshot())
	}
	if o.QueueWait != nil {
		p.Histogram("bepi_queue_wait_seconds", "Admission-queue wait per solved query.", o.QueueWait.Snapshot())
	}
	if o.Iterations != nil {
		p.Histogram("bepi_query_iterations", "Schur-solver iterations per solved query.", o.Iterations.Snapshot())
	}
	if o.Residual != nil {
		p.Histogram("bepi_query_residual", "Final relative residual per solved query.", o.Residual.Snapshot())
	}
	if o.SchurApply != nil {
		p.Histogram("bepi_schur_apply_seconds", "Wall time per application of the solve's operator: the one-pass preconditioned Schur operator, or S itself on unpreconditioned variants.", o.SchurApply.Snapshot())
	}
	if o.PrecondApply != nil {
		p.Histogram("bepi_precond_apply_seconds", "Wall time per preconditioner sweep outside the operator: the two half-passes of a split solve.", o.PrecondApply.Snapshot())
	}
	p.Counter("bepi_kernel_bytes_total", "Bytes streamed by the observed solve kernels.", float64(o.KernelBytes.Load()))
	p.Counter("bepi_kernel_seconds_total", "Wall seconds spent in the observed solve kernels.", float64(o.KernelNanos.Load())/1e9)
	p.Gauge("bepi_kernel_achieved_bytes_per_second", "Achieved memory bandwidth of the observed solve kernels (cumulative bytes over seconds).", o.AchievedBandwidth())
	p.Gauge("bepi_stream_bytes_per_second", "Measured STREAM-triad memory-bandwidth roof of this host.", sparse.StreamBandwidth())

	// Bounded top-k path.
	p.Counter("bepi_topk_solves_total", "Queries solved through the bounded top-k path.", float64(xm.TopKSolves))
	p.Counter("bepi_topk_early_stops_total", "Bounded top-k solves stopped early by the certificate.", float64(xm.EarlyStops))
	if o.TopKSaved != nil {
		p.Histogram("bepi_topk_iters_saved", "Estimated solver iterations saved per early-stopped top-k solve.", o.TopKSaved.Snapshot())
	}

	// Dynamic-update subsystem: rebuild cost, buffered updates, and the
	// generation the executor is serving from.
	if o.Rebuild != nil {
		p.Histogram("bepi_rebuild_seconds", "Wall time of each background index rebuild.", o.Rebuild.Snapshot())
	}
	if s.core.dyn != nil {
		p.Gauge("bepi_pending_updates", "Updates (edges and nodes) buffered since the last rebuild.", float64(s.core.dyn.Pending()))
		p.Counter("bepi_delta_applied_total", "Rebuilds absorbed incrementally by the delta path (spoke or hub mode).", float64(s.core.deltaApplied.Load()))
		// One-hot mode gauge: which path produced the serving index's most
		// recent rebuild.
		modes := map[string]float64{
			string(bepi.RebuildModeFull):       0,
			string(bepi.RebuildModeDeltaSpoke): 0,
			string(bepi.RebuildModeDeltaHub):   0,
			string(bepi.RebuildModeNoop):       0,
		}
		if m, ok := s.core.lastRebuildMode.Load().(string); ok && m != "" {
			modes[m] = 1
		}
		p.GaugeVec("bepi_rebuild_mode", "Mode of the most recent settled rebuild (one-hot).", "mode", modes)
	}
	p.Gauge("bepi_index_generation", "Serving-engine generation (bumped on every swap).", float64(xm.Generation))
	p.Counter("bepi_engine_swaps_total", "Engine swaps applied by the executor.", float64(xm.EngineSwaps))
	p.Counter("bepi_solve_panics_total", "Engine solves recovered by the panic barrier.", float64(xm.SolvePanics))

	// Index and preprocessing (Table 2 / Figure 1 quantities, live).
	eng := s.core.Engine()
	st := eng.Internal().PrepStats()
	p.Gauge("bepi_index_bytes", "Preprocessed index size.", float64(eng.MemoryBytes()))
	p.Gauge("bepi_nodes", "Graph nodes.", float64(st.N))
	p.Gauge("bepi_edges", "Graph edges.", float64(st.M))
	p.Gauge("bepi_schur_nnz", "Nonzeros in the Schur complement.", float64(st.SchurNNZ))
	p.Gauge("bepi_hub_ratio", "Hub selection ratio k.", st.HubRatio)
	p.Gauge("bepi_prep_workers", "Effective parallel workers during preprocessing.", float64(st.Workers))
	p.GaugeVec("bepi_partition_size", "Nodes per block of the hub-and-spoke reordering.", "block",
		map[string]float64{
			"spokes":   float64(st.N1),
			"hubs":     float64(st.N2),
			"deadends": float64(st.N3),
		})
	p.GaugeVec("bepi_prep_stage_seconds", "Preprocessing wall time by stage.", "stage",
		map[string]float64{
			"reorder":    st.Reorder.Seconds(),
			"build_h":    st.BuildH.Seconds(),
			"factor_h11": st.FactorH11.Seconds(),
			"schur":      st.Schur.Seconds(),
			"ilu":        st.ILU.Seconds(),
			"total":      st.Total.Seconds(),
		})

	obs.WriteGoStats(p)
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

// handleEvents serves the flight recorder: recent structured operational
// events, newest first. `?n=` bounds the count (default 100, see
// DebugCount).
func (s *Server) handleEvents(w http.ResponseWriter, r *http.Request) {
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
	events := s.core.exec.Observer().Events.Recent(n)
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

// LatencySummary is the JSON quantile summary of one latency histogram.
type LatencySummary struct {
	Count int64   `json:"count"`
	P50MS float64 `json:"p50_ms"`
	P90MS float64 `json:"p90_ms"`
	P99MS float64 `json:"p99_ms"`
}

// IterationSummary is the JSON quantile summary of an iteration-count
// histogram (dimensionless, unlike LatencySummary's milliseconds).
type IterationSummary struct {
	Count int64   `json:"count"`
	P50   float64 `json:"p50"`
	P90   float64 `json:"p90"`
	P99   float64 `json:"p99"`
}

func summarizeIters(h *obs.Histogram) IterationSummary {
	s := h.Snapshot()
	return IterationSummary{
		Count: int64(s.Count),
		P50:   s.Quantile(0.50),
		P90:   s.Quantile(0.90),
		P99:   s.Quantile(0.99),
	}
}

func summarize(h *obs.Histogram) LatencySummary {
	s := h.Snapshot()
	return LatencySummary{
		Count: int64(s.Count),
		P50MS: s.Quantile(0.50) * 1e3,
		P90MS: s.Quantile(0.90) * 1e3,
		P99MS: s.Quantile(0.99) * 1e3,
	}
}

// PrepMetrics is core.PrepStats in the /metrics JSON payload: stage wall
// times plus the partition sizes preprocessing decided on.
type PrepMetrics struct {
	TotalMS     float64 `json:"total_ms"`
	ReorderMS   float64 `json:"reorder_ms"`
	BuildHMS    float64 `json:"build_h_ms"`
	FactorH11MS float64 `json:"factor_h11_ms"`
	SchurMS     float64 `json:"schur_ms"`
	ILUMS       float64 `json:"ilu_ms"`
	Nodes       int     `json:"nodes"`
	Edges       int     `json:"edges"`
	Spokes      int     `json:"spokes"`
	Hubs        int     `json:"hubs"`
	Deadends    int     `json:"deadends"`
	Blocks      int     `json:"blocks"`
	SchurNNZ    int     `json:"schur_nnz"`
	HubRatio    float64 `json:"hub_ratio"`
	Workers     int     `json:"workers"`
}
