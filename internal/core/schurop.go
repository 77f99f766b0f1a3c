package core

import (
	"time"

	"bepi/internal/lu"
	"bepi/internal/solver"
	"bepi/internal/vec"
)

// splitOperator returns the workspace's one-pass operator over the engine's
// DILU factors, or nil when the variant solves unpreconditioned.
func (e *Engine) splitOperator(ws *Workspace) *lu.Eisenstat {
	if !e.Preconditioned() {
		return nil
	}
	if ws.split == nil || ws.split.ILU() != e.ilu {
		ws.split = e.ilu.Eisenstat()
		ws.bhat = make([]float64, e.ord.n2)
	}
	return ws.split
}

// imagesFirst is the images slab's first size, in images: on the benchmark
// graphs a full-tolerance solve takes 9–10 iterations and a bounded read
// stops after 4–5, so the slab a calibration allocates on a workspace (the
// first probed solve of every engine that calibrates) is allocated once and
// holds every later solve's images.
const imagesFirst = 16

// krylovImages is the operator of a split solve whose probe reads
// iterates. Each application keeps z_j = Û⁻¹·v_j, the image of the basis
// vector v_j it is applied to, which the operator's backward half writes
// (lu.Eisenstat.MulVecKeep), so that the iterate Û⁻¹·V·y is Σ y_j·z_j: one
// AXPY per iteration run and no triangular sweep (the stored
// preconditioned vectors of flexible GMRES, Saad 1993). The images live in
// one slab, n2 per image, grown by doubling and reused by the workspace's
// later solves.
type krylovImages struct {
	split *lu.Eisenstat // the current solve's operator; nil when it keeps no images
	n     int
	slab  []float64
	m     int // images kept by the current solve
	// sum is the iterate last assembled, of the first sumAt images; sumAt
	// is 0 until a solve assembles one.
	sum   []float64
	sumAt int
}

// reset starts a solve of length n on split.
func (k *krylovImages) reset(split *lu.Eisenstat, n int) {
	if k.n != n {
		k.n, k.slab, k.sum = n, nil, make([]float64, n)
	}
	k.split, k.m, k.sumAt = split, 0, 0
}

func (k *krylovImages) MulVec(dst, v []float64) {
	lo, hi := k.m*k.n, (k.m+1)*k.n
	if hi > len(k.slab) {
		grown := make([]float64, max(2*len(k.slab), imagesFirst*k.n))
		copy(grown, k.slab[:lo])
		k.slab = grown
	}
	k.m++
	k.split.MulVecKeep(dst, k.slab[lo:hi], v)
}

// combine writes Σ y_j·z_j, over the first len(y) images, into sum and
// returns it.
func (k *krylovImages) combine(y []float64) []float64 {
	clear(k.sum)
	for j, yj := range y {
		vec.AXPY(yj, k.slab[j*k.n:(j+1)*k.n], k.sum)
	}
	k.sumAt = len(y)
	return k.sum
}

// iterate is the current solve's iterate for coefficients y: sum when it
// already holds it (the probe assembled it this step), else combine(y).
func (k *krylovImages) iterate(y []float64) []float64 {
	if k.sumAt == len(y) {
		return k.sum
	}
	return k.combine(y)
}

// timedOperator is a workspace's wrapper around the operator a solve runs
// on: it counts and times every application into stats, adding bytes, the
// traffic of one application, each time. precond does the same for a
// half-pass outside the operator. A solve resets it before it starts.
type timedOperator struct {
	op    solver.Operator
	bytes int64
	stats KernelStats
}

func (t *timedOperator) MulVec(dst, x []float64) {
	start := time.Now()
	t.op.MulVec(dst, x)
	t.stats.SchurTime += time.Since(start)
	t.stats.SchurApplies++
	t.stats.Bytes += t.bytes
}

// precond applies one half-pass of a split solve, counted and timed.
func (t *timedOperator) precond(apply func(dst, src []float64), dst, src []float64, bytes int64) {
	start := time.Now()
	apply(dst, src)
	t.stats.PrecondTime += time.Since(start)
	t.stats.PrecondApplies++
	t.stats.Bytes += bytes
}
