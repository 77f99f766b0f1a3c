package cluster

import (
	"errors"
	"fmt"
	"net/http"
	"strconv"

	"bepi/internal/obs"
	"bepi/internal/server"
	"bepi/internal/wire"
)

// Handler is the coordinator's HTTP binding — what `bepi-serve -coordinator`
// listens with.
//
// Endpoints:
//
//	GET  /query?seed=N&topk=K             routed single-seed query
//	     (&full=true for the score vector; top-k comes from the shard's
//	     bound-pruned path)
//	POST /batch {"seeds":[...],"topk":K}  scatter-gather batch (degraded
//	                                      responses report failed shards)
//	POST /personalized {"weights":{...}}  linearity-decomposed PPR: the
//	                                      weighted sum of per-seed score
//	                                      vectors, ranked
//	GET  /healthz                         coordinator readiness
//	GET  /replicas                        per-replica health/routing state
//	GET  /metrics, /metrics.prom          routing + fleet-merged metrics
//	                                      (JSON/Prometheus)
//	GET  /debug/traces?trace=ID           assembled cross-process trace tree
//	GET  /debug/traces?n=K                coordinator's recent trace records
//	GET  /debug/events?n=K                coordinator flight recorder
//
// Adding `?trace=1` to /query, /batch, or /personalized forces a distributed
// trace for that request; the X-Bepi-Trace response header carries its ID.
type Handler struct {
	coord *Coordinator
	mux   *http.ServeMux
}

// NewHandler binds HTTP routes over a coordinator.
func NewHandler(c *Coordinator) *Handler {
	h := &Handler{coord: c, mux: http.NewServeMux()}
	h.mux.HandleFunc("/query", h.handleQuery)
	h.mux.HandleFunc("/batch", h.handleBatch)
	h.mux.HandleFunc("/personalized", h.handlePersonalized)
	h.mux.HandleFunc("/healthz", h.handleHealth)
	h.mux.HandleFunc("/replicas", h.handleReplicas)
	h.mux.HandleFunc("/metrics", h.handleMetrics)
	h.mux.HandleFunc("/metrics.prom", h.handleMetricsProm)
	h.mux.HandleFunc("/debug/traces", h.handleTraces)
	h.mux.HandleFunc("/debug/events", func(w http.ResponseWriter, r *http.Request) {
		server.ServeEvents(w, r, c.Observer().Events)
	})
	return h
}

// ServeHTTP implements http.Handler.
func (h *Handler) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	h.mux.ServeHTTP(w, r)
}

// writeErr maps coordinator errors onto HTTP: replica errors keep their
// status (and Retry-After hint), a generation mix and an empty ring are
// retryable-soon conditions (503 + Retry-After).
func writeErr(w http.ResponseWriter, err error) {
	status := http.StatusInternalServerError
	retryAfter := 0
	var be *BackendError
	switch {
	case errors.As(err, &be):
		status = be.Status
		if be.RetryAfter > 0 {
			retryAfter = int(be.RetryAfter.Seconds())
		} else {
			retryAfter = server.RetryAfterSeconds(status)
		}
	case errors.Is(err, ErrGenerationMix), errors.Is(err, ErrNoReplicas):
		status = http.StatusServiceUnavailable
		retryAfter = server.RetryAfterSeconds(status)
	}
	wire.WriteError(w, status, retryAfter, err.Error())
}

func (h *Handler) handleQuery(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		wire.WriteError(w, http.StatusMethodNotAllowed, 0, "use GET")
		return
	}
	seedStr := r.URL.Query().Get("seed")
	seed, err := strconv.Atoi(seedStr)
	if err != nil {
		wire.WriteError(w, http.StatusBadRequest, 0, fmt.Sprintf("seed %q is not an integer", seedStr))
		return
	}
	topk := 0
	if v := r.URL.Query().Get("topk"); v != "" {
		if topk, err = strconv.Atoi(v); err != nil || topk < 0 {
			wire.WriteError(w, http.StatusBadRequest, 0, fmt.Sprintf("bad topk %q", v))
			return
		}
	}
	p, err := h.coord.Query(obs.TraceRequest(w, r), seed, topk, r.URL.Query().Get("full") == "true")
	if err != nil {
		writeErr(w, err)
		return
	}
	wire.WriteQuery(w, r, wire.Vector{
		Seed:       p.Seed,
		Iterations: p.Iterations,
		Cached:     p.Cached,
		Generation: p.Generation,
		DurationMS: p.DurationMS,
		IndexHash:  p.IndexHash,
		Replica:    p.Replica,
		Scores:     p.Scores,
	}, p)
}

// BatchRequest is the /batch request body.
type BatchRequest struct {
	Seeds []int `json:"seeds"`
	TopK  int   `json:"topk"`
}

// batchEntry is one seed's row in the /batch response.
type batchEntry struct {
	Seed       int                  `json:"seed"`
	Top        []server.RankedEntry `json:"top,omitempty"`
	Replica    string               `json:"replica,omitempty"`
	Generation uint64               `json:"generation,omitempty"`
	IndexHash  string               `json:"index_hash,omitempty"`
	Cached     bool                 `json:"cached,omitempty"`
	Error      string               `json:"error,omitempty"`
}

// BatchResponse is the /batch payload.
type BatchResponse struct {
	Results      []batchEntry `json:"results"`
	Degraded     bool         `json:"degraded"`
	MixedTags    bool         `json:"mixed_tags,omitempty"`
	ShardsOK     []string     `json:"shards_ok"`
	ShardsFailed []string     `json:"shards_failed,omitempty"`
}

func (h *Handler) handleBatch(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		wire.WriteError(w, http.StatusMethodNotAllowed, 0, "use POST")
		return
	}
	var req BatchRequest
	if err := wire.ReadJSON(r.Body, &req); err != nil {
		wire.WriteError(w, http.StatusBadRequest, 0, "bad JSON: "+err.Error())
		return
	}
	if len(req.Seeds) == 0 {
		wire.WriteError(w, http.StatusBadRequest, 0, "seeds must be non-empty")
		return
	}
	res, err := h.coord.Batch(obs.TraceRequest(w, r), req.Seeds, req.TopK)
	if err != nil {
		writeErr(w, err)
		return
	}
	resp := BatchResponse{
		Results:      make([]batchEntry, len(res.Seeds)),
		Degraded:     res.Degraded,
		MixedTags:    res.MixedTags,
		ShardsOK:     res.ShardsOK,
		ShardsFailed: res.ShardsFailed,
	}
	for i, seed := range res.Seeds {
		e := batchEntry{Seed: seed}
		if p := res.Results[i]; p != nil {
			e.Top = p.Top
			e.Replica = p.Replica
			e.Generation = p.Generation
			e.IndexHash = p.IndexHash
			e.Cached = p.Cached
		} else if res.Errs[i] != nil {
			e.Error = res.Errs[i].Error()
		}
		resp.Results[i] = e
	}
	// A fully failed batch is an error; a partially failed one is a 200
	// with degraded=true — the caller decides whether partial coverage is
	// acceptable.
	status := http.StatusOK
	if len(resp.ShardsOK) == 0 && res.Degraded {
		status = http.StatusServiceUnavailable
		w.Header().Set("Retry-After", strconv.Itoa(server.RetryAfterSeconds(status)))
	}
	wire.WriteJSON(w, status, resp)
}

// PersonalizedResponse is the /personalized payload: Coordinator.Personalized's
// Merged, with the tag split into its generation and index hash.
type PersonalizedResponse struct {
	Top        []server.RankedEntry `json:"top"`
	Generation uint64               `json:"generation"`
	IndexHash  string               `json:"index_hash,omitempty"`
	Replicas   []string             `json:"replicas"`
	Refetched  int                  `json:"refetched,omitempty"`
	CacheHits  int                  `json:"cache_hits"`
}

func (h *Handler) handlePersonalized(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		wire.WriteError(w, http.StatusMethodNotAllowed, 0, "use POST")
		return
	}
	var req server.PersonalizedRequest
	if err := wire.ReadJSON(r.Body, &req); err != nil {
		wire.WriteError(w, http.StatusBadRequest, 0, "bad JSON: "+err.Error())
		return
	}
	weights, err := req.NodeWeights()
	if err != nil {
		wire.WriteError(w, http.StatusBadRequest, 0, err.Error())
		return
	}
	m, err := h.coord.Personalized(obs.TraceRequest(w, r), weights, req.TopK)
	if err != nil {
		writeErr(w, err)
		return
	}
	wire.WriteJSON(w, http.StatusOK, PersonalizedResponse{
		Top:        m.Top,
		Generation: m.Tag.Gen,
		IndexHash:  m.Tag.Hash,
		Replicas:   m.Replicas,
		Refetched:  m.Refetched,
		CacheHits:  m.CacheHits,
	})
}

// HealthResponse is the coordinator's /healthz payload.
type HealthResponse struct {
	Status          string `json:"status"`
	Replicas        int    `json:"replicas"`
	HealthyReplicas int    `json:"healthy_replicas"`
}

func (h *Handler) handleHealth(w http.ResponseWriter, r *http.Request) {
	ring := h.coord.Ring()
	resp := HealthResponse{
		Status:          "ok",
		Replicas:        len(h.coord.names),
		HealthyReplicas: ring.Len(),
	}
	status := http.StatusOK
	switch {
	case ring.Len() == 0:
		resp.Status = "unavailable"
		status = http.StatusServiceUnavailable
	case ring.Len() < len(h.coord.names):
		resp.Status = "degraded"
	}
	wire.WriteJSON(w, status, resp)
}

func (h *Handler) handleReplicas(w http.ResponseWriter, r *http.Request) {
	wire.WriteJSON(w, http.StatusOK, h.coord.Replicas())
}
