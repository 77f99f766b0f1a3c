package cluster

import (
	"errors"
	"net/http"

	"bepi/internal/obs"
	"bepi/internal/server"
)

// Handler is the coordinator's HTTP binding — what `bepi-serve -coordinator`
// listens with.
//
// Endpoints:
//
//	GET  /query?seed=N&topk=K             routed single-seed query
//	     (&full=true for the score vector; top-k comes from the shard's
//	     bound-pruned path, or with &exact=true from its full-tolerance
//	     solve)
//	POST /personalized {"weights":{...}}  multi-seed PPR, forwarded whole
//	                                      to the smallest seed's ring owner;
//	                                      the shard's answer, unchanged
//	GET  /healthz                         coordinator readiness
//	GET  /replicas                        per-replica health/routing state
//	GET  /metrics, /metrics.prom          routing + fleet-merged metrics
//	                                      (JSON/Prometheus)
//	GET  /debug/traces?trace=ID           assembled cross-process trace tree
//	GET  /debug/traces?n=K                coordinator's recent trace records
//	GET  /debug/events?n=K                coordinator flight recorder
//
// Adding `?trace=1` to /query or /personalized forces a distributed trace
// for that request; the X-Bepi-Trace response header carries its ID.
type Handler struct {
	coord *Coordinator
	mux   *http.ServeMux
}

// NewHandler binds HTTP routes over a coordinator.
func NewHandler(c *Coordinator) *Handler {
	h := &Handler{coord: c, mux: http.NewServeMux()}
	h.mux.HandleFunc("/query", h.handleQuery)
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
// status (and Retry-After hint), an empty ring is a retryable-soon
// condition (503 + Retry-After).
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
	case errors.Is(err, ErrNoReplicas):
		status = http.StatusServiceUnavailable
		retryAfter = server.RetryAfterSeconds(status)
	}
	server.WriteError(w, status, retryAfter, err.Error())
}

func (h *Handler) handleQuery(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		server.WriteError(w, http.StatusMethodNotAllowed, 0, "use GET")
		return
	}
	req, err := server.ParseQuery(r)
	if err != nil {
		server.WriteError(w, http.StatusBadRequest, 0, err.Error())
		return
	}
	p, err := h.coord.query(obs.TraceRequest(w, r), req.Seed, req.TopK, req.Full, req.Exact)
	if err != nil {
		writeErr(w, err)
		return
	}
	server.WriteQuery(w, r, &p)
}

func (h *Handler) handlePersonalized(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		server.WriteError(w, http.StatusMethodNotAllowed, 0, "use POST")
		return
	}
	var req server.PersonalizedRequest
	if status, err := server.ReadRequest(w, r, &req); err != nil {
		server.WriteError(w, status, 0, err.Error())
		return
	}
	resp, err := h.coord.Personalized(obs.TraceRequest(w, r), req.Weights, req.TopK)
	if err != nil {
		writeErr(w, err)
		return
	}
	server.WriteJSON(w, http.StatusOK, resp)
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
	server.WriteJSON(w, status, resp)
}

func (h *Handler) handleReplicas(w http.ResponseWriter, r *http.Request) {
	server.WriteJSON(w, http.StatusOK, h.coord.Replicas())
}
