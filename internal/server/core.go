package server

import (
	"context"
	"errors"
	"fmt"
	"math"
	"net/http"
	"strconv"
	"sync/atomic"
	"time"

	"bepi"
	"bepi/internal/core"
	"bepi/internal/qexec"
)

// Core is the transport-agnostic serving core: the query/top-k/metrics
// logic that used to live inside the HTTP handlers, factored out so the
// same engine can serve two transports at once — the public HTTP binding
// (Server) and the cluster coordinator's in-process replica path
// (internal/cluster.LocalBackend). Core methods speak plain requests and
// responses; transport concerns (JSON decoding, status codes, headers)
// stay in the bindings, which map Core errors through StatusOf.
//
// Every response that carries scores is tagged with the (index hash,
// generation) pair of the engine it was computed on, as the executor's
// result carries it, so a caller can tell which engine answered, across
// replicas and across an engine swap.
type Core struct {
	dyn  *bepi.Dynamic // nil for a static index
	exec *qexec.Executor

	// Served-traffic counters (atomic; exposed at /metrics).
	queries      atomic.Int64
	personalized atomic.Int64
	errors       atomic.Int64
	queryNanos   atomic.Int64

	// Dynamic-rebuild bookkeeping (atomic; exposed at /metrics).
	// deltaApplied counts rebuilds absorbed incrementally (delta-spoke or
	// delta-hub mode); lastRebuildMode holds the mode of the most recent
	// settled rebuild as a bepi.RebuildMode string.
	deltaApplied    atomic.Int64
	lastRebuildMode atomic.Value
}

// NewCore builds a serving core over a static preprocessed engine. Call
// Close to stop it admitting solves.
func NewCore(eng *bepi.Engine, cfg qexec.Config) *Core {
	return &Core{exec: qexec.New(eng.Internal(), cfg)}
}

// NewDynamicCore builds a serving core over a dynamic (online-update)
// index: every successful background rebuild atomically swaps the serving
// engine, purges the executor's cache and bumps the generation, and every
// settled rebuild, swapped or failed, is a flight-recorder event.
func NewDynamicCore(d *bepi.Dynamic, cfg qexec.Config) *Core {
	c := NewCore(d.Engine(), cfg)
	c.dyn = d
	d.OnRebuild(func(st bepi.RebuildStatus, swapped *bepi.Engine) {
		o := c.exec.Observer()
		if swapped != nil {
			c.exec.SwapEngine(swapped.Internal())
			o.Rebuild.Observe(st.Duration.Seconds())
		}
		fields := map[string]string{
			"id":         strconv.FormatUint(st.ID, 10),
			"generation": strconv.FormatUint(st.Generation, 10),
			"duration":   st.Duration.String(),
			"calibrate":  st.Calibration.String(),
			"mode":       string(st.Mode),
		}
		if st.Err != nil {
			fields["error"] = st.Err.Error()
			o.Events.Record("rebuild_fail", "", fields)
			return
		}
		c.lastRebuildMode.Store(string(st.Mode))
		if st.Mode == bepi.RebuildModeDeltaSpoke || st.Mode == bepi.RebuildModeDeltaHub {
			c.deltaApplied.Add(1)
		}
		o.Events.Record("rebuild_swap", "", fields)
	})
	return c
}

// Executor exposes the execution subsystem (for bindings and tests).
func (c *Core) Executor() *qexec.Executor { return c.exec }

// Close lets the admitted queries finish and refuses further solves.
func (c *Core) Close() { c.exec.Close() }

// RebuildInFlight reports whether a background index rebuild is running.
func (c *Core) RebuildInFlight() bool {
	if c.dyn == nil {
		return false
	}
	r := c.dyn.LastRebuild()
	return r != nil && r.Status().State == bepi.RebuildRunning
}

// HealthResponse is the /healthz readiness payload: enough for a load
// balancer or the cluster coordinator's health checker to route around a
// replica that is rebuilding or backed up.
type HealthResponse struct {
	Status     string `json:"status"`
	Nodes      int    `json:"nodes"`
	Generation uint64 `json:"generation"`
	IndexHash  string `json:"index_hash"`
	// QueueDepth is the current admission-queue occupancy (gauge).
	QueueDepth int `json:"queue_depth"`
	// RebuildInFlight is true while a background rebuild is running; the
	// replica keeps answering from the previous index for its duration.
	RebuildInFlight bool `json:"rebuild_in_flight"`
	// PendingUpdates counts buffered edge updates (dynamic mode only).
	PendingUpdates int `json:"pending_updates,omitempty"`
}

// Health reports the core's readiness state.
func (c *Core) Health() HealthResponse {
	gen, hash := c.exec.Identity()
	h := HealthResponse{
		Status:          "ok",
		Nodes:           c.exec.Engine().N(),
		Generation:      gen,
		IndexHash:       hash,
		QueueDepth:      c.exec.Metrics().Queued,
		RebuildInFlight: c.RebuildInFlight(),
	}
	if c.dyn != nil {
		h.PendingUpdates = c.dyn.Pending()
	}
	return h
}

// StatusError is an error with an HTTP-shaped status code, returned by
// Core methods for request-level failures (bad seed, bad weights) so every
// transport maps them identically.
type StatusError struct {
	Status int
	Msg    string
}

func (e *StatusError) Error() string { return e.Msg }

func badRequest(format string, args ...any) error {
	return &StatusError{Status: http.StatusBadRequest, Msg: fmt.Sprintf(format, args...)}
}

// StatusOf maps a Core (or qexec) error to its HTTP status: shed load is
// 429, deadline/shutdown are 503, validation errors carry their own
// status, anything else is a 500.
func StatusOf(err error) int {
	var se *StatusError
	switch {
	case err == nil:
		return http.StatusOK
	case errors.As(err, &se):
		return se.Status
	case errors.Is(err, qexec.ErrOverloaded):
		return http.StatusTooManyRequests
	case errors.Is(err, context.DeadlineExceeded),
		errors.Is(err, qexec.ErrClosed),
		errors.Is(err, context.Canceled):
		return http.StatusServiceUnavailable
	default:
		return http.StatusInternalServerError
	}
}

// RetryAfterSeconds is the back-off hint attached to admission-control
// rejections: 429 means the queue is momentarily full (retry quickly, the
// queue drains at solve speed); 503 means shutdown or deadline trouble
// (back off harder). Zero means no hint.
func RetryAfterSeconds(status int) int {
	switch status {
	case http.StatusTooManyRequests:
		return 1
	case http.StatusServiceUnavailable:
		return 2
	}
	return 0
}

// QueryRequest is one single-seed query through the core.
type QueryRequest struct {
	Seed int
	// TopK bounds the ranking length (default 10); ignored when Full.
	TopK int
	// Full returns the whole score vector instead of a ranking.
	Full bool
	// Exact forces the ranking to come from a full-tolerance solve instead
	// of the default bound-pruned search. Both return the identical top-k
	// SET; Exact additionally guarantees the reported scores are at full
	// solver tolerance, for callers that compare scores, not just sets.
	Exact bool
	// Debug attaches solver/stage detail to the response.
	Debug bool
}

// Query answers a single-seed query: a ranking by default, the full score
// vector when req.Full. The returned scores may be shared with the
// executor's cache and must be treated as read-only. A default ranking
// replayed from the cache keeps EarlyStopped as the solve that certified it
// set it; Full and Exact are only ever served full-tolerance scores.
func (c *Core) Query(ctx context.Context, req QueryRequest) (QueryResponse, error) {
	if n := c.exec.Engine().N(); req.Seed < 0 || req.Seed >= n {
		c.errors.Add(1)
		return QueryResponse{}, badRequest("seed %d out of range [0,%d)", req.Seed, n)
	}
	topk := req.TopK
	if topk == 0 {
		topk = 10
	}
	if topk < 0 {
		c.errors.Add(1)
		return QueryResponse{}, badRequest("bad topk %d", topk)
	}
	start := time.Now()
	var res qexec.Result
	var top []core.Ranked
	var err error
	switch {
	case req.Full:
		res, err = c.exec.Query(ctx, req.Seed)
	case req.Exact:
		// Full-tolerance solve + rank: exact scores, not just the exact set.
		top, res, err = c.exec.TopKFull(ctx, req.Seed, topk)
	default:
		// Bound-pruned search: the Schur solve stops as soon as the top-k
		// set is certified, and the certified ranking is remembered under
		// (seed, k); a repeat, or a cached full vector, answers without
		// touching the engine. Ranking runs inside the executor so traces
		// carry the "rank" span.
		top, res, err = c.exec.TopK(ctx, req.Seed, topk)
	}
	if err != nil {
		c.errors.Add(1)
		return QueryResponse{}, err
	}
	c.queries.Add(1)
	c.queryNanos.Add(time.Since(start).Nanoseconds())
	resp := QueryResponse{
		Seed:         req.Seed,
		Top:          top,
		Iterations:   res.Stats.Iterations,
		DurationMS:   float64(time.Since(start).Microseconds()) / 1000,
		Cached:       res.Cached,
		EarlyStopped: res.EarlyStopped,
		Generation:   res.Generation,
		IndexHash:    res.IndexHash,
	}
	if req.Debug {
		resp.Debug = queryDebug(res)
	}
	if req.Full {
		resp.Scores = res.Scores
	}
	return resp, nil
}

// PersonalizedResponse is the /personalized payload.
type PersonalizedResponse struct {
	Top        []RankedEntry `json:"top"`
	DurationMS float64       `json:"duration_ms"`
	Generation uint64        `json:"generation"`
	IndexHash  string        `json:"index_hash,omitempty"`
}

// Personalized answers a multi-seed PPR query from a node→weight map. The
// weights are validated and normalized here so both transports enforce the
// same rules; seeds themselves are excluded from the ranking. A map with
// one positive finite weight normalizes to exactly its node's unit vector,
// so it is that node's single-seed query: served from the cache, or solved
// and cached. Every other map is one solve.
func (c *Core) Personalized(ctx context.Context, weights map[int]float64, topk int) (PersonalizedResponse, error) {
	if len(weights) == 0 {
		c.errors.Add(1)
		return PersonalizedResponse{}, badRequest("weights must be non-empty")
	}
	n := c.exec.Engine().N()
	var sum float64
	positive, sole := 0, -1
	for node, v := range weights {
		if node < 0 || node >= n {
			c.errors.Add(1)
			return PersonalizedResponse{}, badRequest("node id %d out of range [0,%d)", node, n)
		}
		if v < 0 {
			c.errors.Add(1)
			return PersonalizedResponse{}, badRequest("negative weight for node %d", node)
		}
		sum += v
		if v > 0 {
			positive, sole = positive+1, node
		}
	}
	if sum <= 0 {
		c.errors.Add(1)
		return PersonalizedResponse{}, badRequest("weights must sum to a positive value")
	}
	if topk <= 0 {
		topk = 10
	}
	start := time.Now()
	var res qexec.Result
	var err error
	if positive == 1 && !math.IsInf(sum, 0) {
		res, err = c.exec.Query(ctx, sole)
	} else {
		q := make([]float64, n)
		for node, v := range weights {
			q[node] = v / sum
		}
		res, err = c.exec.Personalized(ctx, q)
	}
	if err != nil {
		c.errors.Add(1)
		return PersonalizedResponse{}, err
	}
	c.personalized.Add(1)
	c.queryNanos.Add(time.Since(start).Nanoseconds())
	scores := res.Scores
	return PersonalizedResponse{
		Top: core.RankTopKFunc(scores, topk, func(node int) bool {
			_, seed := weights[node]
			return seed || scores[node] <= 0
		}),
		DurationMS: float64(time.Since(start).Microseconds()) / 1000,
		Generation: res.Generation,
		IndexHash:  res.IndexHash,
	}, nil
}

// Stats reports the index statistics (the /stats payload).
func (c *Core) Stats() StatsResponse {
	eng := c.exec.Engine()
	st := eng.PrepStats()
	opts := eng.Options()
	return StatsResponse{
		Nodes:          eng.N(),
		Spokes:         st.N1,
		Hubs:           st.N2,
		Deadends:       st.N3,
		SchurNNZ:       st.SchurNNZ,
		IndexBytes:     eng.MemoryBytes(),
		HubRatio:       st.HubRatio,
		RestartProb:    opts.C,
		Tolerance:      opts.Tol,
		Variant:        opts.Variant.String(),
		Preconditioned: eng.Preconditioned(),
	}
}
