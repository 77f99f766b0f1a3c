package bepi

import (
	"cmp"
	"fmt"
	"slices"
	"sync"
	"time"

	"bepi/internal/core"
	"bepi/internal/graph"
)

// Dynamic maintains an RWR index over a graph that receives edge updates.
// It implements the batch-update strategy the paper describes for dynamic
// graphs (§5): updates accumulate in a buffer while queries are served from
// the current index; Flush folds the buffered updates into the graph and
// rebuilds the index. BePI's preprocessing speed is what makes this
// strategy practical — rebuilding is the operation Figure 1(a) shows it
// winning by orders of magnitude.
//
// A flush first tries an incremental rebuild (core.Engine.ApplyDelta): it
// reuses the SlashBurn ordering and hub set, patches only the affected
// entries of the stored blocks, re-factors only the touched H11 diagonal
// blocks, recomputes only the affected Schur columns and re-factors the
// preconditioner from the patched S — bit-identical to a full preprocess
// under the reused ordering at a fraction of the cost, whether the delta's
// sources are spokes, hubs or both. A delta the ordering cannot absorb (a
// spoke edge crossing H11 blocks, a deadend gaining an out-edge, a new node
// with out-edges) falls back to the full preprocessing pipeline.
// RebuildStatus.Mode reports which path served each rebuild, and
// RebuildStatus.Fallback why a fallback fired.
//
// Rebuilds run in the background: Flush (or StartFlush) snapshots the edge
// set under a short lock, runs graph construction, the rebuild and the new
// engine's top-k calibration (Engine.CalibrateBound) with no lock held,
// then atomically swaps the new engine in and bumps the index generation.
// Queries therefore keep completing throughout a rebuild — the only
// serialization they ever see is the pointer swap — and updates arriving
// mid-rebuild stay buffered for the next one. At most one rebuild is in
// flight at a time; a Flush during a rebuild joins it.
//
// Dynamic is safe for concurrent use.
type Dynamic struct {
	mu   sync.RWMutex
	opts []Option
	n    int
	// graph is the edge set of the serving index, kept as the immutable
	// graph itself: rebuilds patch it with WithEdgeDeltas (O(M + changes))
	// instead of re-sorting the whole edge list, and the no-op check in
	// buffer is a binary search instead of a map probe.
	graph     *Graph
	pending   map[[2]int]bool // true = insert, false = delete
	engine    *Engine
	gen       uint64 // index generation; starts at 1, bumped per swap
	onRebuild func(RebuildStatus, *Engine)

	rebuild *Rebuild            // in-flight rebuild, nil when idle
	history map[uint64]*Rebuild // recent rebuilds by id, for status polling
	order   []uint64            // history ids oldest-first, for bounding
	nextID  uint64

	// testRebuildGate, when non-nil, is received from by the rebuild
	// goroutine after preprocessing and before the settle lock — a test
	// hook to hold a rebuild in the running state deterministically.
	testRebuildGate chan struct{}
}

// historyCap bounds how many finished rebuilds RebuildStatus can still see.
const historyCap = 64

// NewDynamic builds the initial index for g. The options apply to every
// rebuild.
func NewDynamic(g *Graph, opts ...Option) (*Dynamic, error) {
	eng, err := New(g, opts...)
	if err != nil {
		return nil, err
	}
	d := &Dynamic{
		opts:    opts,
		n:       g.N(),
		graph:   g,
		pending: make(map[[2]int]bool),
		engine:  eng,
		gen:     1,
		history: make(map[uint64]*Rebuild),
		nextID:  1,
	}
	return d, nil
}

// N returns the current number of nodes (including nodes added since the
// last flush; those are visible to queries only after Flush).
func (d *Dynamic) N() int {
	d.mu.RLock()
	defer d.mu.RUnlock()
	return d.n
}

// Generation returns the serving index's generation: 1 for the initial
// build, bumped by every successful rebuild swap. A failed or no-op Flush
// leaves it unchanged.
func (d *Dynamic) Generation() uint64 {
	d.mu.RLock()
	defer d.mu.RUnlock()
	return d.gen
}

// Engine returns the engine currently serving queries. The engine is
// immutable; after a Flush a new one replaces it, so callers that must
// follow swaps should use OnRebuild (or query through Dynamic).
func (d *Dynamic) Engine() *Engine {
	d.mu.RLock()
	defer d.mu.RUnlock()
	return d.engine
}

// OnRebuild registers f to be called when a background rebuild settles,
// successfully or not, with the rebuild's final status — its id, the
// generation now serving (bumped on success, unchanged on failure), its
// wall time, the path it took and its error — and, on a successful swap
// only, the new engine (nil on failure). It is how a serving layer keeps
// its executor and caches in step with the index (e.g.
// qexec.Executor.SwapEngine) and records rebuilds that never swapped. f
// runs with Dynamic's lock held, so swaps reach it in order: keep it short
// and do not call back into Dynamic from it.
func (d *Dynamic) OnRebuild(f func(st RebuildStatus, swapped *Engine)) {
	d.mu.Lock()
	defer d.mu.Unlock()
	d.onRebuild = f
}

// AddNode grows the node set by one and returns the new node's id.
// The node becomes queryable after the next Flush.
func (d *Dynamic) AddNode() int {
	d.mu.Lock()
	defer d.mu.Unlock()
	id := d.n
	d.n++
	return id
}

// AddEdge buffers the insertion of edge (src, dst).
func (d *Dynamic) AddEdge(src, dst int) error {
	return d.buffer(src, dst, true)
}

// RemoveEdge buffers the deletion of edge (src, dst).
func (d *Dynamic) RemoveEdge(src, dst int) error {
	return d.buffer(src, dst, false)
}

// buffer records one edge update. No-ops are canceled at buffer time:
// inserting an edge the index already has (or deleting an absent one)
// leaves the buffer untouched — and cancels any opposite pending op — so
// Pending and the flush trigger reflect real work only. While a rebuild is
// in flight the no-op check is skipped (the effective base set is the
// rebuild's snapshot, not d.edges); the buffer is re-normalized when the
// rebuild settles.
func (d *Dynamic) buffer(src, dst int, insert bool) error {
	d.mu.Lock()
	defer d.mu.Unlock()
	if src < 0 || src >= d.n || dst < 0 || dst >= d.n {
		return fmt.Errorf("bepi: edge (%d,%d) out of range n=%d", src, dst, d.n)
	}
	key := [2]int{src, dst}
	if d.rebuild == nil && d.hasEdgeLocked(src, dst) == insert {
		delete(d.pending, key)
		return nil
	}
	d.pending[key] = insert
	return nil
}

// hasEdgeLocked reports whether the serving edge set has (src, dst),
// treating nodes the serving graph does not know yet (added but not
// flushed) as edge-free. Callers hold d.mu.
func (d *Dynamic) hasEdgeLocked(src, dst int) bool {
	return src < d.graph.N() && dst < d.graph.N() && d.graph.HasEdge(src, dst)
}

// Pending returns the number of buffered updates not yet reflected in the
// index: edge updates plus nodes added since the serving engine was built.
// No-op edge updates (inserting an existing edge, deleting an absent one)
// are canceled as they arrive, so a non-zero Pending means a Flush has real
// work to do — including the AddNode-only case, where the next flush must
// rebuild even though no edge is buffered.
func (d *Dynamic) Pending() int {
	d.mu.RLock()
	defer d.mu.RUnlock()
	p := len(d.pending)
	if growth := d.n - d.engine.N(); growth > 0 {
		p += growth
	}
	return p
}

// RebuildMode is the path a rebuild took to produce its engine.
type RebuildMode string

// Rebuild modes, as surfaced by RebuildStatus.Mode and the
// bepi_rebuild_mode metric.
const (
	// RebuildModeFull ran the complete preprocessing pipeline (SlashBurn,
	// factorization, Schur complement) from scratch.
	RebuildModeFull RebuildMode = "full"
	// RebuildModeDeltaSpoke absorbed a spoke-only delta incrementally —
	// ordering and hub set reused, touched blocks re-factored, affected
	// Schur columns recomputed; bit-identical to a full preprocess under
	// the reused ordering.
	RebuildModeDeltaSpoke RebuildMode = "delta-spoke"
	// RebuildModeDeltaHub absorbed a delta with at least one hub source the
	// same way, one Schur column per hub source; equally bit-identical. The
	// two modes differ in what they report, not in how they compute.
	RebuildModeDeltaHub RebuildMode = "delta-hub"
	// RebuildModeNoop had nothing to do.
	RebuildModeNoop RebuildMode = "noop"
)

// Rebuild is a handle on one background rebuild started by StartFlush.
// Its result fields are published before Done's channel closes and must
// only be read after it.
type Rebuild struct {
	id       uint64
	start    time.Time
	genStart uint64 // generation serving when the rebuild began (immutable)
	applied  int    // buffered updates it folds in, set before it is published (immutable)
	done     chan struct{}

	// Written once by the rebuild goroutine before close(done).
	err      error
	gen      uint64
	noop     bool
	mode     RebuildMode
	fallback string
	dur      time.Duration
	calib    time.Duration
}

// ID identifies the rebuild for status polling (Dynamic.RebuildStatus).
func (r *Rebuild) ID() uint64 { return r.id }

// Done is closed when the rebuild has settled (swapped, failed, or no-op).
func (r *Rebuild) Done() <-chan struct{} { return r.done }

// Wait blocks until the rebuild settles and returns its error.
func (r *Rebuild) Wait() error {
	<-r.done
	return r.err
}

// RebuildState is the lifecycle phase of a rebuild.
type RebuildState string

// Rebuild states.
const (
	RebuildRunning RebuildState = "running"
	RebuildDone    RebuildState = "done"
	RebuildFailed  RebuildState = "failed"
)

// RebuildStatus is a point-in-time snapshot of one rebuild.
type RebuildStatus struct {
	ID    uint64
	State RebuildState
	// NoOp means the flush had no buffered work and completed without
	// rebuilding (the engine and generation are unchanged).
	NoOp bool
	// Applied is the number of buffered updates folded into the rebuild.
	Applied int
	// Generation is the index generation serving queries: while the
	// rebuild runs, the generation it started from (queries are still
	// answered by it); once settled, the generation after the rebuild
	// (bumped on success, unchanged on failure or no-op). State — not a
	// sentinel Generation value — distinguishes the two.
	Generation uint64
	// Mode is the path the rebuild took (full, delta-spoke, delta-hub,
	// noop); empty while the rebuild is still running.
	Mode RebuildMode
	// Fallback is why the incremental path refused this rebuild's delta and
	// the full pipeline ran instead ("edge 12→907 crosses H11 blocks: …");
	// empty when the delta was absorbed or none was tried.
	Fallback string
	// Drift is always zero: every absorbed delta is exact. The field stays
	// because the frozen benchmark reads it (benchmark/w_update.go).
	Drift float64
	// Duration is the rebuild wall time so far (final once settled).
	Duration time.Duration
	// Calibration is the part of Duration the rebuild spent calibrating the
	// new engine's top-k bound before swapping it in; zero while running,
	// and for a rebuild that failed or had nothing to do.
	Calibration time.Duration
	// Err is the failure, nil while running or on success.
	Err error
}

// Status snapshots the rebuild without blocking.
func (r *Rebuild) Status() RebuildStatus {
	select {
	case <-r.done:
		return r.settled()
	default:
		return RebuildStatus{
			ID:         r.id,
			State:      RebuildRunning,
			Applied:    r.applied,
			Generation: r.genStart,
			Duration:   time.Since(r.start),
		}
	}
}

// settled is the status of a rebuild whose result fields are written.
func (r *Rebuild) settled() RebuildStatus {
	st := RebuildStatus{
		ID:          r.id,
		State:       RebuildDone,
		NoOp:        r.noop,
		Applied:     r.applied,
		Generation:  r.gen,
		Mode:        r.mode,
		Fallback:    r.fallback,
		Duration:    r.dur,
		Calibration: r.calib,
		Err:         r.err,
	}
	if r.err != nil {
		st.State = RebuildFailed
	}
	return st
}

// RebuildStatus looks up a rebuild by id: the in-flight one or any of the
// recent finished ones (a bounded history is retained).
func (d *Dynamic) RebuildStatus(id uint64) (RebuildStatus, bool) {
	d.mu.RLock()
	r, ok := d.history[id]
	d.mu.RUnlock()
	if !ok {
		return RebuildStatus{}, false
	}
	return r.Status(), true
}

// LastRebuild returns the most recently started rebuild (which may still
// be running), or nil if none was ever started.
func (d *Dynamic) LastRebuild() *Rebuild {
	d.mu.RLock()
	defer d.mu.RUnlock()
	if len(d.order) == 0 {
		return nil
	}
	return d.history[d.order[len(d.order)-1]]
}

// Flush applies all buffered updates and rebuilds the index, blocking
// until the new engine serves (it is StartFlush + Wait). Queries keep
// completing against the old index for the whole rebuild. On error the
// previous index keeps serving and the buffer is preserved. If a rebuild
// is already in flight, Flush waits for that one instead of starting
// another; updates buffered after its snapshot need a second Flush.
func (d *Dynamic) Flush() error {
	return d.StartFlush().Wait()
}

// StartFlush begins a background rebuild and returns its handle without
// waiting. If a rebuild is already in flight its handle is returned
// (rebuilds never stack; mid-rebuild updates stay buffered for the next
// one). If there is nothing to do — no real buffered updates and no new
// nodes — the returned handle is already settled as a no-op and the
// engine generation is unchanged.
func (d *Dynamic) StartFlush() *Rebuild {
	d.mu.Lock()
	defer d.mu.Unlock()
	if d.rebuild != nil {
		return d.rebuild
	}
	r := &Rebuild{id: d.nextID, start: time.Now(), genStart: d.gen, done: make(chan struct{})}
	d.nextID++
	d.record(r)
	if len(d.pending) == 0 && d.engine.N() == d.n {
		r.noop = true
		r.gen = d.gen
		r.mode = RebuildModeNoop
		close(r.done)
		return r
	}
	// Snapshot under the lock: the serving graph (immutable — the rebuild
	// patches a copy) and the buffer it consumes (restored on failure).
	snap := d.pending
	d.pending = make(map[[2]int]bool)
	r.applied = len(snap)
	d.rebuild = r
	go d.runRebuild(r, d.n, d.graph, snap, d.engine)
	return r
}

// record adds a rebuild to the bounded status history.
func (d *Dynamic) record(r *Rebuild) {
	d.history[r.id] = r
	d.order = append(d.order, r.id)
	for len(d.order) > historyCap {
		delete(d.history, d.order[0])
		d.order = d.order[1:]
	}
}

// runRebuild is the background rebuild: all the expensive work — graph
// construction, the rebuild itself and the new engine's top-k calibration —
// happens here with no lock held, so queries and updates proceed freely.
// Only the final swap (or the failure bookkeeping) re-acquires the lock,
// briefly.
//
// The incremental path is tried first: the buffered delta is replayed
// against the serving engine with ApplyDelta, which classifies it and
// either absorbs it (reusing the ordering, untouched factors, and
// unaffected Schur columns) or refuses. Any refusal — structural
// (ErrDeltaFull) or a numerical failure while patching — falls back to the
// full preprocessing pipeline and is recorded as the rebuild's Fallback
// reason, so the delta path can only ever improve rebuild latency, never
// availability. The swap and generation bump are identical on both paths;
// downstream consumers (qexec executors, serving layers) see the same
// OnRebuild contract regardless of mode.
func (d *Dynamic) runRebuild(r *Rebuild, n int, gBase *Graph, snap map[[2]int]bool, base *Engine) {
	// Patch the snapshot graph with the buffered delta: O(M + changes), no
	// edge-list re-sort. The buffer is normalized against the serving edge
	// set at every StartFlush, so the patch cannot refuse it; if it ever
	// did, its error is the rebuild's — the old index keeps serving and the
	// buffer is restored. The ops are put in (Src, Dst) order, not the
	// map's: ApplyDelta refuses with the first op it cannot absorb, so one
	// delta names one Fallback, and the patch walks its change lists in
	// that order without sorting them.
	ops := make([]core.EdgeDelta, 0, len(snap))
	for e, insert := range snap {
		ops = append(ops, core.EdgeDelta{Src: e[0], Dst: e[1], Insert: insert})
	}
	slices.SortFunc(ops, func(a, b core.EdgeDelta) int {
		return cmp.Or(cmp.Compare(a.Src, b.Src), cmp.Compare(a.Dst, b.Dst))
	})
	var add, del []graph.Edge
	for _, op := range ops {
		if op.Insert {
			add = append(add, graph.Edge{Src: op.Src, Dst: op.Dst})
		} else {
			del = append(del, graph.Edge{Src: op.Src, Dst: op.Dst})
		}
	}
	gi, err := gBase.inner.WithEdgeDeltas(n, add, del)
	g := &Graph{inner: gi}
	var eng *Engine
	mode := RebuildModeFull
	if err == nil {
		if ce, st, derr := base.inner.ApplyDelta(g.inner, ops); derr == nil {
			eng = &Engine{inner: ce}
			mode = RebuildMode(st.Class.String())
		} else {
			r.fallback = derr.Error()
			eng, err = New(g, d.opts...)
		}
	}
	if err != nil {
		err = fmt.Errorf("bepi: rebuilding dynamic index: %w", err)
	} else {
		// The writer pays the calibration, so that no reader of the new
		// engine waits for it. It cannot fail the flush: an engine whose
		// calibration failed answers bounded queries with full solves.
		tCal := time.Now()
		_ = eng.inner.CalibrateBound()
		r.calib = time.Since(tCal)
	}
	if d.testRebuildGate != nil {
		<-d.testRebuildGate
	}

	d.mu.Lock()
	d.rebuild = nil
	r.dur = time.Since(r.start)
	r.mode = mode
	if err != nil {
		// The old index keeps serving. Restore the consumed buffer without
		// clobbering ops that arrived mid-rebuild (newer ops win per edge).
		for e, insert := range snap {
			if _, ok := d.pending[e]; !ok {
				d.pending[e] = insert
			}
		}
		r.err = err
		r.gen = d.gen
	} else {
		d.graph = g
		d.engine = eng
		d.gen++
		r.gen = d.gen
	}
	// Re-normalize ops buffered while the rebuild ran: anything that is a
	// no-op against the (possibly new) base set is canceled, restoring the
	// invariant that pending holds real work only.
	for e, insert := range d.pending {
		if d.hasEdgeLocked(e[0], e[1]) == insert {
			delete(d.pending, e)
		}
	}
	if d.onRebuild != nil {
		var swapped *Engine
		if err == nil {
			swapped = eng
		}
		d.onRebuild(r.settled(), swapped)
	}
	d.mu.Unlock()
	close(r.done)
}

// Query answers from the most recently flushed index; buffered updates are
// not yet visible (the paper's batch-update semantics). During a rebuild
// the previous index keeps answering — queries never wait for
// preprocessing, only for the atomic engine swap.
func (d *Dynamic) Query(seed int) ([]float64, error) {
	d.mu.RLock()
	eng := d.engine
	d.mu.RUnlock()
	return eng.Query(seed)
}

// TopK answers from the most recently flushed index with the k nodes most
// related to seed (descending score, seed excluded). The set is always the
// one Engine.TopK returns. Every engine a flush swaps in was calibrated by
// the rebuild, on the writer's goroutine, so TopK answers it with the
// certified bounded search (Engine.TopKBounded): when that stops early, the
// order and scores are within its certified radius of Engine.TopK's. Until
// the first flush — the engine NewDynamic built, which nothing calibrated
// unless a caller did — it answers exactly, with Engine.TopK.
func (d *Dynamic) TopK(seed, k int) ([]Ranked, error) {
	d.mu.RLock()
	eng := d.engine
	d.mu.RUnlock()
	if eng.inner.BoundCalibrated() {
		top, _, err := eng.TopKBounded(seed, k)
		return top, err
	}
	return eng.TopK(seed, k)
}
