package server

import (
	"net/http"
	"strconv"
	"strings"

	"bepi"
)

// Dynamic-update endpoints (available when the server was built with
// NewDynamic; a static server answers them with 409):
//
//	POST /edges        buffer edge insertions/deletions (and new nodes)
//	POST /flush        start a background rebuild; 202 + rebuild id
//	GET  /flush/{id}   poll a rebuild's status
//
// Updates are buffered and invisible to queries until a flush swaps the
// rebuilt engine in; queries keep completing against the old index for the
// whole rebuild.

// EdgeJSON is one edge endpoint pair in the /edges payload.
type EdgeJSON struct {
	Src int `json:"src"`
	Dst int `json:"dst"`
}

// EdgesRequest is the POST /edges payload. Add and Remove are buffered
// update lists; AddNodes grows the node-id space by that many fresh
// (initially dead-end) nodes before the edges are applied.
type EdgesRequest struct {
	Add      []EdgeJSON `json:"add,omitempty"`
	Remove   []EdgeJSON `json:"remove,omitempty"`
	AddNodes int        `json:"add_nodes,omitempty"`
}

// EdgesResponse acknowledges buffered updates.
type EdgesResponse struct {
	// Nodes is the node count the next rebuild will index.
	Nodes int `json:"nodes"`
	// Pending is the number of buffered updates with real work to do.
	Pending int `json:"pending"`
	// Generation is the currently serving index generation; it does not
	// change until a flush completes.
	Generation uint64 `json:"generation"`
}

// RebuildJSON is a bepi.RebuildStatus in JSON form (for POST /flush and
// GET /flush/{id}). Generation is always present: while the rebuild runs it
// is the generation still serving queries; once settled, the generation
// after the rebuild — "state" carries the lifecycle, not a zero sentinel.
// Mode reports which path the rebuild took (full, delta-spoke, delta-hub,
// noop) once it has settled, and Fallback why the incremental path refused
// when a full rebuild ran in its place. CalibrateMS is the part of
// DurationMS spent calibrating the new engine's top-k bound before the swap.
type RebuildJSON struct {
	ID          uint64  `json:"id"`
	State       string  `json:"state"` // running | done | failed
	NoOp        bool    `json:"noop,omitempty"`
	Applied     int     `json:"applied"`
	Generation  uint64  `json:"generation"`
	Mode        string  `json:"mode,omitempty"`
	Fallback    string  `json:"fallback,omitempty"`
	DurationMS  float64 `json:"duration_ms"`
	CalibrateMS float64 `json:"calibrate_ms"`
	Error       string  `json:"error,omitempty"`
}

func rebuildJSON(st bepi.RebuildStatus) RebuildJSON {
	j := RebuildJSON{
		ID:          st.ID,
		State:       string(st.State),
		NoOp:        st.NoOp,
		Applied:     st.Applied,
		Generation:  st.Generation,
		Mode:        string(st.Mode),
		Fallback:    st.Fallback,
		DurationMS:  float64(st.Duration.Microseconds()) / 1000,
		CalibrateMS: float64(st.Calibration.Microseconds()) / 1000,
	}
	if st.Err != nil {
		j.Error = st.Err.Error()
	}
	return j
}

// requireDynamic rejects dynamic-only endpoints on a static server.
func (s *Server) requireDynamic(w http.ResponseWriter) bool {
	if s.core.dyn == nil {
		s.fail(w, http.StatusConflict, "server is serving a static index; restart with -graph for online updates")
		return false
	}
	return true
}

func (s *Server) handleEdges(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		writeError(w, http.StatusMethodNotAllowed, "use POST")
		return
	}
	if !s.requireDynamic(w) {
		return
	}
	var req EdgesRequest
	if status, err := ReadRequest(w, r, &req); err != nil {
		s.fail(w, status, "%v", err)
		return
	}
	if req.AddNodes < 0 {
		s.fail(w, http.StatusBadRequest, "add_nodes must be >= 0, got %d", req.AddNodes)
		return
	}
	if len(req.Add) == 0 && len(req.Remove) == 0 && req.AddNodes == 0 {
		s.fail(w, http.StatusBadRequest, "empty update: provide add, remove, or add_nodes")
		return
	}
	for i := 0; i < req.AddNodes; i++ {
		s.core.dyn.AddNode()
	}
	for _, e := range req.Add {
		if err := s.core.dyn.AddEdge(e.Src, e.Dst); err != nil {
			s.fail(w, http.StatusBadRequest, "add %d->%d: %v", e.Src, e.Dst, err)
			return
		}
	}
	for _, e := range req.Remove {
		if err := s.core.dyn.RemoveEdge(e.Src, e.Dst); err != nil {
			s.fail(w, http.StatusBadRequest, "remove %d->%d: %v", e.Src, e.Dst, err)
			return
		}
	}
	WriteJSON(w, http.StatusOK, EdgesResponse{
		Nodes:      s.core.dyn.N(),
		Pending:    s.core.dyn.Pending(),
		Generation: s.core.dyn.Generation(),
	})
}

// handleFlush starts (or joins) a background rebuild and returns 202 with
// its id immediately; poll GET /flush/{id} for completion. The serving
// engine keeps answering queries until the rebuilt one swaps in.
func (s *Server) handleFlush(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		writeError(w, http.StatusMethodNotAllowed, "use POST")
		return
	}
	if !s.requireDynamic(w) {
		return
	}
	rb := s.core.dyn.StartFlush()
	st := rb.Status()
	// Flight-recorder bookend: rebuild_start here, rebuild_swap/rebuild_fail
	// from the OnRebuild hook when the background build resolves.
	s.core.exec.Observer().Events.Record("rebuild_start", "", map[string]string{
		"id":      strconv.FormatUint(st.ID, 10),
		"applied": strconv.Itoa(st.Applied),
	})
	WriteJSON(w, http.StatusAccepted, rebuildJSON(st))
}

func (s *Server) handleFlushStatus(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		writeError(w, http.StatusMethodNotAllowed, "use GET")
		return
	}
	if !s.requireDynamic(w) {
		return
	}
	idStr := strings.TrimPrefix(r.URL.Path, "/flush/")
	id, err := strconv.ParseUint(idStr, 10, 64)
	if err != nil {
		s.fail(w, http.StatusBadRequest, "bad rebuild id %q", idStr)
		return
	}
	st, ok := s.core.dyn.RebuildStatus(id)
	if !ok {
		s.fail(w, http.StatusNotFound, "unknown rebuild id %d (history is bounded)", id)
		return
	}
	WriteJSON(w, http.StatusOK, rebuildJSON(st))
}
