// Package server exposes a preprocessed BePI index over HTTP/JSON — the
// "many queries against one index" serving shape the paper's preprocessing
// phase exists for. The package splits into a transport-agnostic serving
// core (Core: query/top-k/personalized/metrics logic over a qexec
// executor) and a thin HTTP binding (Server), so the same engine can
// simultaneously serve public HTTP traffic and the cluster coordinator's
// in-process replica path (internal/cluster). All query traffic runs
// through the internal/qexec execution subsystem (LRU cache → admission
// control → one solve on the request's goroutine), so hot seeds hit the
// cache and overload sheds with 429 (plus a Retry-After hint) instead of
// piling up waiting requests.
//
// Endpoints:
//
//	GET  /healthz                          readiness: generation, index
//	                                       hash, queue depth, rebuild
//	                                       in-flight
//	GET  /stats                            index statistics
//	GET  /metrics                          traffic + qexec counters, latency
//	                                       quantiles, prep stats (JSON;
//	                                       Prometheus text when Accept says
//	                                       text/plain or ?format=prometheus)
//	GET  /metrics.prom                     always Prometheus text format
//	GET  /metrics/snapshot                 mergeable metrics snapshot (JSON;
//	                                       fetched by the cluster coordinator
//	                                       for fleet-wide aggregation)
//	GET  /debug/traces?n=K                 recent per-query stage traces
//	GET  /debug/traces?trace=ID            traces belonging to one trace ID
//	GET  /debug/events?n=K                 flight-recorder events, newest first
//	GET  /query?seed=N&topk=K              top-K ranking for a seed (bound-pruned)
//	GET  /query?seed=N&topk=K&exact=true   same set from a full-tolerance solve
//	GET  /query?seed=N&full=true           the full score vector
//	GET  /query?seed=N&debug=1             adds solver/stage detail
//	GET  /query?seed=N&trace=1             forces a trace; the X-Bepi-Trace
//	                                       response header carries its ID
//	POST /personalized {"weights":{...}}   multi-seed PPR ranking
package server

import (
	"context"
	"fmt"
	"net/http"
	"strconv"
	"time"

	"bepi"
	"bepi/internal/core"
	"bepi/internal/obs"
	"bepi/internal/qexec"
)

// Server is the http.Handler binding over a serving Core.
type Server struct {
	core *Core
	mux  *http.ServeMux
}

// New builds a server over a preprocessed engine with default execution
// settings. Call Close to stop the execution pool.
func New(eng *bepi.Engine) *Server { return NewWithConfig(eng, qexec.Config{}) }

// NewWithConfig builds a server with explicit query-execution settings
// (pool size, cache entries, queue depth, per-query timeout).
func NewWithConfig(eng *bepi.Engine, cfg qexec.Config) *Server {
	return NewFromCore(NewCore(eng, cfg))
}

// NewDynamic builds a server over a dynamic (online-update) index: the
// /edges and /flush endpoints buffer updates and trigger background
// rebuilds, and every successful rebuild atomically swaps the serving
// engine, purges the executor's cache (score vectors and certified top-k
// rankings alike), and bumps the index generation — queries in flight keep
// completing on the old engine, and no stale cached answer survives the
// swap.
func NewDynamic(d *bepi.Dynamic, cfg qexec.Config) *Server {
	return NewFromCore(NewDynamicCore(d, cfg))
}

// NewFromCore binds HTTP handlers over an existing serving core — the path
// used when the core is shared with another transport (e.g. a cluster
// replica that also answers in-process coordinator traffic). Closing the
// server closes the core.
func NewFromCore(c *Core) *Server {
	s := &Server{core: c, mux: http.NewServeMux()}
	s.mux.HandleFunc("/healthz", s.handleHealth)
	s.mux.HandleFunc("/stats", s.handleStats)
	s.mux.HandleFunc("/metrics", s.handleMetrics)
	s.mux.HandleFunc("/metrics.prom", s.handleMetricsProm)
	s.mux.HandleFunc("/metrics/snapshot", s.handleMetricsSnapshot)
	s.mux.HandleFunc("/debug/traces", s.handleTraces)
	s.mux.HandleFunc("/debug/events", func(w http.ResponseWriter, r *http.Request) {
		ServeEvents(w, r, c.exec.Observer().Events)
	})
	s.mux.HandleFunc("/query", s.handleQuery)
	s.mux.HandleFunc("/personalized", s.handlePersonalized)
	s.mux.HandleFunc("/edges", s.handleEdges)
	s.mux.HandleFunc("/flush", s.handleFlush)
	s.mux.HandleFunc("/flush/", s.handleFlushStatus)
	return s
}

// Core exposes the transport-agnostic serving core.
func (s *Server) Core() *Core { return s.core }

// Executor exposes the execution subsystem (for tests and shutdown hooks).
func (s *Server) Executor() *qexec.Executor { return s.core.Executor() }

// Close drains and stops the query-execution pool. In-flight requests
// finish; new ones fail with 503.
func (s *Server) Close() { s.core.Close() }

func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	if WantsProm(r) {
		s.handleMetricsProm(w, r)
		return
	}
	WriteJSON(w, http.StatusOK, obs.JSON(s.core.metrics()))
}

// ServeHTTP implements http.Handler.
func (s *Server) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	s.mux.ServeHTTP(w, r)
}

// writeError fails a request. Admission-control rejections carry a
// Retry-After hint so clients (the cluster coordinator in particular) back
// off instead of hot-retrying.
func writeError(w http.ResponseWriter, status int, format string, args ...any) {
	WriteError(w, status, RetryAfterSeconds(status), fmt.Sprintf(format, args...))
}

func (s *Server) fail(w http.ResponseWriter, status int, format string, args ...any) {
	s.core.errors.Add(1)
	writeError(w, status, format, args...)
}

// failCore writes an error already counted by the core, mapping it to its
// status (429 for shed load, 503 for deadline/shutdown, 400 for validation,
// 500 otherwise) with a Retry-After hint where one applies.
func (s *Server) failCore(w http.ResponseWriter, err error) {
	status := StatusOf(err)
	switch status {
	case http.StatusTooManyRequests:
		writeError(w, status, "overloaded: %v", err)
	case http.StatusServiceUnavailable:
		if err == context.DeadlineExceeded {
			writeError(w, status, "query deadline exceeded")
		} else {
			writeError(w, status, "server unavailable: %v", err)
		}
	default:
		writeError(w, status, "%v", err)
	}
}

func (s *Server) handleHealth(w http.ResponseWriter, r *http.Request) {
	WriteJSON(w, http.StatusOK, s.core.Health())
}

// StatsResponse is the /stats payload.
type StatsResponse struct {
	Nodes          int     `json:"nodes"`
	Spokes         int     `json:"spokes"`
	Hubs           int     `json:"hubs"`
	Deadends       int     `json:"deadends"`
	SchurNNZ       int     `json:"schur_nnz"`
	IndexBytes     int64   `json:"index_bytes"`
	HubRatio       float64 `json:"hub_ratio"`
	RestartProb    float64 `json:"restart_prob"`
	Tolerance      float64 `json:"tolerance"`
	Variant        string  `json:"variant"`
	Preconditioned bool    `json:"preconditioned"`
}

func (s *Server) handleStats(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		writeError(w, http.StatusMethodNotAllowed, "use GET")
		return
	}
	WriteJSON(w, http.StatusOK, s.core.Stats())
}

// RankedEntry is one row of a ranking response.
type RankedEntry = core.Ranked

// QueryResponse is the /query payload of both tiers. Generation and
// IndexHash tag the engine the scores were computed under; a shard leaves
// Replica empty, and the coordinator's answer is the shard's with Replica
// naming that shard.
type QueryResponse struct {
	Seed       int           `json:"seed"`
	Top        []RankedEntry `json:"top,omitempty"`
	Scores     []float64     `json:"scores,omitempty"`
	Iterations int           `json:"iterations"`
	DurationMS float64       `json:"duration_ms"`
	Cached     bool          `json:"cached,omitempty"`
	// EarlyStopped means the ranking came from a bound-certified
	// early-stopped solve: the top-k SET is exact, the scores shown are
	// within the certified error radius of the true values. It stays set
	// when the ranking is replayed from the cache (Cached).
	EarlyStopped bool        `json:"early_stopped,omitempty"`
	Generation   uint64      `json:"generation"`
	IndexHash    string      `json:"index_hash,omitempty"`
	Replica      string      `json:"replica,omitempty"`
	Debug        *QueryDebug `json:"debug,omitempty"`
}

// QueryDebug is the per-query solver and stage detail returned when the
// request asks for ?debug=1.
type QueryDebug struct {
	Iterations int     `json:"iterations"`
	Residual   float64 `json:"residual"`
	Cached     bool    `json:"cached"`
	// Engine stage wall times in milliseconds (zero for cache hits, which
	// never reach the engine).
	StageMS map[string]float64 `json:"stage_ms,omitempty"`
}

func queryDebug(res qexec.Result) *QueryDebug {
	d := &QueryDebug{
		Iterations: res.Stats.Iterations,
		Residual:   res.Stats.Residual,
		Cached:     res.Cached,
	}
	st := res.Stats.Stages
	if !res.Cached && st.Solve > 0 {
		ms := func(t time.Duration) float64 { return float64(t.Microseconds()) / 1000 }
		d.StageMS = map[string]float64{
			"permute_ms": ms(st.Permute),
			"forward_ms": ms(st.Forward),
			"solve_ms":   ms(st.Solve),
			"back_ms":    ms(st.Back),
		}
	}
	return d
}

// ParseQuery reads a /query request's parameters, as both tiers take
// them. An error is the request's fault: answer it with 400.
func ParseQuery(r *http.Request) (QueryRequest, error) {
	q := r.URL.Query()
	seed, err := strconv.Atoi(q.Get("seed"))
	if err != nil {
		return QueryRequest{}, fmt.Errorf("seed %q is not an integer", q.Get("seed"))
	}
	req := QueryRequest{
		Seed:  seed,
		Full:  q.Get("full") == "true",
		Exact: q.Get("exact") == "true",
		Debug: q.Get("debug") == "1",
	}
	if v := q.Get("topk"); v != "" {
		if req.TopK, err = strconv.Atoi(v); err != nil || req.TopK < 0 {
			return QueryRequest{}, fmt.Errorf("bad topk %q", v)
		}
	}
	return req, nil
}

func (s *Server) handleQuery(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		writeError(w, http.StatusMethodNotAllowed, "use GET")
		return
	}
	req, err := ParseQuery(r)
	if err != nil {
		s.fail(w, http.StatusBadRequest, "%v", err)
		return
	}
	resp, err := s.core.Query(obs.TraceRequest(w, r), req)
	if err != nil {
		s.failCore(w, err)
		return
	}
	// A full score vector goes out as bytes to a client that asked for them
	// (the coordinator's HTTPBackend does); everything else is JSON.
	WriteQuery(w, r, &resp)
}

// PersonalizedRequest is the /personalized request body of both tiers.
type PersonalizedRequest struct {
	// Weights maps node id (a JSON object's string key, such as "3") to
	// restart weight.
	Weights map[int]float64 `json:"weights"`
	TopK    int             `json:"topk"`
}

func (s *Server) handlePersonalized(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		writeError(w, http.StatusMethodNotAllowed, "use POST")
		return
	}
	var req PersonalizedRequest
	if status, err := ReadRequest(w, r, &req); err != nil {
		s.fail(w, status, "%v", err)
		return
	}
	resp, err := s.core.Personalized(obs.TraceRequest(w, r), req.Weights, req.TopK)
	if err != nil {
		s.failCore(w, err)
		return
	}
	WriteJSON(w, http.StatusOK, resp)
}
