package solver

// Workspace recycles the n-length vectors a GMRES solve allocates, which
// the stored Krylov basis (one n-vector per Arnoldi step) dominates. A
// workspace is owned by one solve at a time (it is not safe for concurrent
// use) but is reused across solves, so a query-serving worker that runs one
// solve after another stops allocating on the hot path.
//
// Vectors handed out by take() may hold stale data from a previous solve;
// callers must fully overwrite them (or use takeZero). Solutions returned
// by a solver running on a workspace point into the workspace and are only
// valid until the next solve that uses it — copy them out if they must
// survive.
type Workspace struct {
	n    int
	buf  [][]float64
	next int
}

// reset prepares the workspace to hand out vectors of length n, recycling
// any buffers of a matching length from earlier solves.
func (w *Workspace) reset(n int) {
	if w.n != n {
		w.buf = w.buf[:0]
		w.n = n
	}
	w.next = 0
}

// arena adapts an optional workspace: with a nil workspace every take is a
// fresh allocation, preserving the historical allocate-per-solve behavior.
type arena struct {
	ws *Workspace
	n  int
}

func newArena(ws *Workspace, n int) arena {
	if ws != nil {
		ws.reset(n)
	}
	return arena{ws: ws, n: n}
}

// take returns an n-length vector with unspecified contents.
func (a arena) take() []float64 {
	if a.ws == nil {
		return make([]float64, a.n)
	}
	w := a.ws
	if w.next < len(w.buf) {
		v := w.buf[w.next]
		w.next++
		return v
	}
	v := make([]float64, w.n)
	w.buf = append(w.buf, v)
	w.next++
	return v
}

// takeZero returns an n-length vector of zeros.
func (a arena) takeZero() []float64 {
	v := a.take()
	for i := range v {
		v[i] = 0
	}
	return v
}
