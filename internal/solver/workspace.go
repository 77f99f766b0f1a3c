package solver

import "bepi/internal/vec"

// Workspace is everything a GMRES solve keeps between iterations: the
// n-length vectors, which the stored Krylov basis (one per Arnoldi step)
// dominates, and the Krylov bookkeeping — the basis pointers, the rotated
// Hessenberg columns, the Givens rotations, the rotated right-hand side and
// the coefficients the iterate is assembled from. All of it grows by
// append to the iterations a solve actually runs and is reused by the next
// solve, so a query-serving worker that runs one solve after another stops
// allocating in the solver. A workspace is owned by one solve at a time (it
// is not safe for concurrent use), and must not be copied once used: its
// probe thunk is bound to it.
//
// Vectors handed out by take may hold stale data from a previous solve;
// callers must fully overwrite them (or use takeZero). The solution a solve
// returns points into its workspace and is only valid until the next solve
// that uses it — copy it out if it must survive.
type Workspace struct {
	n    int
	vecs [][]float64 // n-length vectors, handed out in order by take
	next int

	v      [][]float64 // the Arnoldi basis, v[j] one of vecs
	h      [][]float64 // h[j] (length j+2) is Hessenberg column j, rotated
	cs, sn []float64   // Givens cosines and sines
	g      []float64   // the rotated right-hand side
	y      []float64   // Coefficients' triangular-solve result

	// iterate is probeIterate as the thunk a Probe is handed, bound once;
	// probed is the vector it assembles into, taken on its first call in a
	// solve.
	iterate func() []float64
	probed  []float64
}

// reset prepares the workspace for a solve of length n, recycling the
// vectors of a matching length and the bookkeeping of earlier solves.
func (w *Workspace) reset(n int) {
	if w.n != n {
		w.vecs = w.vecs[:0]
		w.n = n
	}
	w.next = 0
	w.v, w.cs, w.sn, w.g = w.v[:0], w.cs[:0], w.sn[:0], w.g[:0]
	w.probed = nil
}

// take returns an n-length vector with unspecified contents.
func (w *Workspace) take() []float64 {
	if w.next == len(w.vecs) {
		w.vecs = append(w.vecs, make([]float64, w.n))
	}
	w.next++
	return w.vecs[w.next-1]
}

// takeZero returns an n-length vector of zeros.
func (w *Workspace) takeZero() []float64 {
	v := w.take()
	clear(v)
	return v
}

// probeIterate assembles the iterate of the iterations run so far.
func (w *Workspace) probeIterate() []float64 {
	if w.probed == nil {
		w.probed = w.take()
	}
	return w.assemble(w.probed)
}

// Coefficients returns y, the current iterate's coefficients in the
// Arnoldi basis: the solution of R·y = g, the triangular least-squares
// system the Givens rotations have accumulated over the iterations run so
// far, so that the iterate is V·y (GMRES starts from x = 0). One entry per
// iteration run. A Probe may call it to assemble the iterate from vectors
// of its own — the images Û⁻¹·v_j of a right-preconditioned solve — rather
// than from the basis; the slice is valid until the next step and must not
// be mutated.
func (w *Workspace) Coefficients() []float64 {
	steps := len(w.cs)
	if len(w.y) < steps {
		w.y = append(w.y, make([]float64, steps-len(w.y))...)
	}
	y, h := w.y[:steps], w.h
	for i := steps - 1; i >= 0; i-- {
		s := w.g[i]
		for k := i + 1; k < steps; k++ {
			s -= float64(h[k][i] * y[k])
		}
		// h[i][i] is the rotated diagonal.
		if h[i][i] == 0 {
			y[i] = 0
			continue
		}
		y[i] = s / h[i][i]
	}
	return y
}

// assemble writes V·y into out and returns it, with y the Coefficients of
// the iterations run so far: the iterate.
func (w *Workspace) assemble(out []float64) []float64 {
	return w.Combine(w.Coefficients(), out)
}

// Combine writes V·y into out and returns it: the iterate whose
// coefficients are y, over the first len(y) vectors of the basis of the
// workspace's current or last solve, which stays valid until its next
// solve starts. A caller that kept the Coefficients of an earlier
// iteration assembles that iterate with them after the solve.
func (w *Workspace) Combine(y, out []float64) []float64 {
	clear(out)
	for k, yk := range y {
		vec.AXPY(yk, w.v[k], out)
	}
	return out
}
