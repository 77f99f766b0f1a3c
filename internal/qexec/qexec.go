// Package qexec is the query-execution subsystem between the HTTP layer
// and the BePI engine — the layer that turns "preprocess once, answer many
// queries fast" into served throughput. It combines:
//
//   - solves on the caller's goroutine, at most Config.Workers at once
//     (GOMAXPROCS by default), each on a workspace from the engine's free
//     list (core.Engine.QueryVectorWS), so
//     steady-state queries allocate little but their result vectors;
//   - one generation-tagged segmented LRU cache keyed by (seed, k): k = 0
//     is the seed's full-tolerance score vector, k > 0 its top-k ranking.
//     Full requests store vectors and bounded requests store rankings. A
//     miss solves; requests that miss on the same key at once each solve
//     it, like any other misses, and every later request for it is a hit
//     until the engine is swapped. A full vector serves every request for
//     its seed; a ranking is served to its own (seed, k) alone, because one
//     from an early-stopped solve is exact only as a SET for that k and its
//     approximate scores never leave that key. Answers no request has read yet hold at most
//     an eighth of the cache's bytes, so one-time misses cannot crowd out
//     the answers that are asked for again;
//   - a bounded top-k path: TopK halts each Schur solve on a certified
//     score-error bound as soon as the top-k SET is provably settled
//     (core.Engine.TopKBoundedWS);
//   - admission control: a semaphore of Workers slots, callers waiting for
//     one in arrival order; a caller finding QueueDepth others already
//     waiting is shed with ErrOverloaded. Per-query deadlines reach both the
//     wait and the iterative Schur solver via context.Context.
//
// Counters for all of the above are exposed through Metrics for the
// server's /metrics endpoint, and every query is observed by an
// internal/obs Observer: latency/queue-wait/iteration/residual histograms,
// sampled per-query stage traces (admission → solve → rank), and a
// slow-query log.
package qexec

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"errors"
	"fmt"
	"runtime"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"bepi/internal/core"
	"bepi/internal/obs"
)

// Errors reported by admission control.
var (
	// ErrOverloaded means QueueDepth callers were already waiting for a
	// solve slot; the caller should shed the request (HTTP 429).
	ErrOverloaded = errors.New("qexec: queue full, request shed")
	// ErrClosed means the executor has been shut down.
	ErrClosed = errors.New("qexec: executor closed")
	// ErrSolvePanicked means the engine solve panicked under a query; the
	// panic was recovered on the caller's goroutine, so the process keeps
	// running, and the query fails with this error.
	ErrSolvePanicked = errors.New("qexec: solve panicked")
)

// Config sizes the executor. Zero values select defaults; CacheEntries < 0
// disables the cache.
type Config struct {
	// Workers is the number of queries solved at once, each on its
	// caller's goroutine; default runtime.GOMAXPROCS(0).
	Workers int
	// QueueDepth bounds the callers waiting for a solve slot; callers
	// beyond it are shed with ErrOverloaded. Default 32×Workers.
	QueueDepth int
	// CacheEntries bounds the LRU cache, counting score vectors and top-k
	// rankings alike; default 1024, negative disables caching. The cache is
	// also bounded in bytes, by the served engine's MemoryBytes (~5·10⁴
	// top-10 rankings), so it never outweighs the index it fronts. Answers
	// no request has read since they were stored hold at most an eighth of
	// those bytes: on the scale-15 benchmark index that is 4 full vectors,
	// and 28 more once they are asked for again.
	CacheEntries int
	// Timeout, if positive, is the per-query deadline applied once a query
	// goes past the cache, enforced while it waits for a solve slot and
	// inside the iterative solver.
	Timeout time.Duration
	// Obs receives the executor's telemetry: latency/queue/iteration
	// histograms, per-query stage traces, and the slow-query log. Nil
	// selects obs.New with a 256-entry trace ring sampling one query in
	// DefaultTraceSample — histograms are always-on (sub-1% of the hot
	// path; see BenchmarkQexecThroughput qexec vs noobs), tracing is
	// sampled because its allocations are not. Pass obs.Disabled to turn
	// the layer off, or a custom observer with TraceSample 1 to trace
	// every query while debugging.
	Obs *obs.Observer
}

// DefaultTraceSample is the default observer's trace sampling rate: one
// query in this many gets stage spans recorded into /debug/traces.
const DefaultTraceSample = 64

func (c Config) withDefaults() Config {
	if c.Workers <= 0 {
		c.Workers = runtime.GOMAXPROCS(0)
	}
	if c.QueueDepth <= 0 {
		c.QueueDepth = 32 * c.Workers
	}
	if c.CacheEntries == 0 {
		c.CacheEntries = 1024
	}
	if c.Obs == nil {
		c.Obs = obs.New(obs.Options{TraceSample: DefaultTraceSample})
	}
	return c
}

// Result is a completed query: the score vector (shared and read-only when
// it came from the cache), engine stats, and how the subsystem served it.
type Result struct {
	// Scores is indexed by original node id. When Cached is true, or when
	// this request solved a full vector and stored it, it is shared with
	// the cache and every request it serves, and MUST NOT be mutated:
	// writing through it silently corrupts every future hit for the same
	// seed. Callers that need a private, mutable vector copy it themselves.
	// Nil when a TopK was served from a cached ranking: the cache keeps the
	// ranked list, not the vector.
	Scores []float64
	// Stats describes the solve this request ran; zero on a cache hit,
	// which ran none.
	Stats core.QueryStats
	// Cached means the result came from the LRU cache without any solve.
	Cached bool
	// Generation is the engine generation the scores belong to (see
	// Executor.Generation), and IndexHash that engine's fingerprint (see
	// Executor.Identity). Cache hits and fresh solves both carry the tags of
	// the engine they were computed against, read from the one snapshot the
	// query captured, so callers that must not mix scores across an engine
	// swap can compare tags instead of guessing from timing.
	Generation uint64
	IndexHash  string
	// EarlyStopped (TopK results only) means the scores come from a
	// bound-certified early-stopped solve: the top-k SET is exact, but the
	// scores are only within the certified radius of the true values. Like
	// every TopK ranking, it is cached under its exact (seed, k) and
	// replayed to that key alone, flag included; it is never served to
	// Query, TopKFull or another k, and the vector behind a TopK is never
	// cached.
	EarlyStopped bool
	// SavedIters (early-stopped TopK results only) estimates the solver
	// iterations the early stop skipped.
	SavedIters int
}

// engineState is the executor's current engine together with the
// generation it belongs to and its fingerprint, published as one unit so
// readers can never see a new engine with an old generation or hash (or
// vice versa).
type engineState struct {
	eng  *core.Engine
	gen  uint64
	hash string
}

// fingerprint names an engine by its index: the first 8 bytes of the
// SHA-256 of the stream Engine.WriteTo writes, in hex. Two engines with
// the same index bytes — replicas that preprocessed the same graph with
// the same options, or one that loaded the other's file — fingerprint
// identically, and any change to the index changes it. It reads the whole
// index once (about 7 ms for the 6.7 MB scale-15 benchmark index on a
// 2-vCPU Xeon), so it is computed once per published engine, never on a
// request.
func fingerprint(eng *core.Engine) string {
	h := sha256.New()
	if _, err := eng.WriteTo(h); err != nil {
		return "" // an engine that cannot be written has no index to name
	}
	return hex.EncodeToString(h.Sum(nil)[:8])
}

// Executor is the query-execution subsystem over one preprocessed engine.
// It is safe for concurrent use. The engine can be replaced at runtime with
// SwapEngine (the dynamic-graph rebuild path); every cached or solved
// result is generation-tagged so nothing solved against one engine is ever
// served as an answer from another.
type Executor struct {
	eng atomic.Pointer[engineState]
	cfg Config
	obs *obs.Observer

	// slots holds one token per running solve, Config.Workers at most;
	// queued counts the callers waiting to add theirs.
	slots  chan struct{}
	queued atomic.Int64
	mu     sync.RWMutex // orders Close against admissions
	done   bool
	wg     sync.WaitGroup // admitted queries, waiting or solving

	cache *lruCache // nil when disabled

	m counters
}

// New returns an executor over a preprocessed engine. It starts no
// goroutine: every solve runs on the goroutine of the query that needs it.
// Close stops it admitting solves.
func New(eng *core.Engine, cfg Config) *Executor {
	cfg = cfg.withDefaults()
	e := &Executor{
		cfg:   cfg,
		obs:   cfg.Obs,
		slots: make(chan struct{}, cfg.Workers),
	}
	e.attach(eng)
	e.eng.Store(&engineState{eng: eng, gen: 1, hash: fingerprint(eng)})
	if cfg.CacheEntries > 0 {
		e.cache = newLRUCache(cfg.CacheEntries, eng.MemoryBytes())
	}
	return e
}

// attach points an engine's telemetry hooks at this executor; called for
// the initial engine and for every SwapEngine.
func (e *Executor) attach(eng *core.Engine) {
	// Live convergence telemetry: one atomic add per solver iteration.
	// (The hook is engine-wide; a second executor over the same engine
	// would re-point it.)
	eng.SetIterHook(func(int, float64) { e.obs.SolverIters.Add(1) })
	// Per-kernel telemetry: timing and bytes-streamed for each Schur
	// operator and preconditioner application. Same engine-wide caveat.
	eng.SetKernelHook(func(kernel string, seconds float64, bytes int64) {
		switch kernel {
		case core.KernelSchur:
			e.obs.SchurApply.Observe(seconds)
		case core.KernelPrecond:
			e.obs.PrecondApply.Observe(seconds)
		}
		e.obs.KernelBytes.Add(bytes)
		e.obs.KernelNanos.Add(int64(seconds * 1e9))
	})
}

// Engine returns the engine currently being served.
func (e *Executor) Engine() *core.Engine { return e.eng.Load().eng }

// Generation returns the current engine generation. It starts at 1 and is
// bumped by every SwapEngine.
func (e *Executor) Generation() uint64 { return e.eng.Load().gen }

// Identity returns the generation and the index fingerprint of the engine
// currently being served, read from one snapshot.
func (e *Executor) Identity() (gen uint64, indexHash string) {
	st := e.eng.Load()
	return st.gen, st.hash
}

// SwapEngine atomically replaces the engine the executor serves from — the
// dynamic-graph rebuild path. The swap is the only coordination queries
// ever see: queries already past the cache keep solving against the engine
// they captured, but their results are tagged with the old generation, so
// the cache cannot serve them to queries that arrive after the swap. The
// cache is emptied eagerly (stale vectors and rankings free immediately;
// its byte budget becomes the new engine's size) and the generation tag
// covers the remaining race of a pre-swap solve completing post-swap.
//
// SwapEngine is safe to call concurrently with queries. The new engine
// inherits the executor's telemetry hooks and keeps its own compute pool.
// It fingerprints the new engine before publishing it, on the caller's
// goroutine.
func (e *Executor) SwapEngine(eng *core.Engine) {
	cur := e.eng.Load()
	if cur.eng == eng {
		return
	}
	hash := fingerprint(eng)
	e.attach(eng)
	for {
		if e.eng.CompareAndSwap(cur, &engineState{eng: eng, gen: cur.gen + 1, hash: hash}) {
			break
		}
		cur = e.eng.Load()
		if cur.eng == eng {
			return
		}
	}
	e.m.swaps.Add(1)
	e.obs.Events.Record("engine_swap", "", map[string]string{
		"generation": strconv.FormatUint(e.eng.Load().gen, 10),
	})
	if e.cache != nil {
		e.cache.reset(e.Engine().MemoryBytes())
	}
}

// Config returns the executor's effective (defaulted) configuration.
func (e *Executor) Config() Config { return e.cfg }

// Observer exposes the executor's telemetry sinks (for the server's
// /metrics and /debug/traces endpoints).
func (e *Executor) Observer() *obs.Observer { return e.obs }

// Close stops admitting solves, waits for the admitted ones — waiting for
// a slot or solving — to finish, and refuses every later solve with
// ErrClosed. It is idempotent.
func (e *Executor) Close() {
	e.mu.Lock()
	if e.done {
		e.mu.Unlock()
		return
	}
	e.done = true
	e.mu.Unlock()
	e.wg.Wait()
}

// admit takes a solve slot for the caller. Callers that find every slot
// taken wait for one in arrival order (a channel serves its blocked senders
// first in, first out); a caller that finds QueueDepth others already
// waiting is shed with ErrOverloaded, and one whose ctx ends while it waits
// leaves with ctx.Err(). After Close it refuses with ErrClosed. On a nil
// error the caller holds a slot and must release it.
func (e *Executor) admit(ctx context.Context, at *obs.ActiveTrace) error {
	e.mu.RLock()
	if e.done {
		e.mu.RUnlock()
		return ErrClosed
	}
	e.wg.Add(1)
	e.mu.RUnlock()
	select {
	case e.slots <- struct{}{}:
		return nil
	default:
	}
	if e.queued.Add(1) > int64(e.cfg.QueueDepth) {
		e.queued.Add(-1)
		e.wg.Done()
		e.m.shed.Add(1)
		e.obs.Events.Record("admission_reject", at.TraceID(), nil)
		return ErrOverloaded
	}
	defer e.queued.Add(-1)
	select {
	case e.slots <- struct{}{}:
		return nil
	case <-ctx.Done():
		e.wg.Done()
		return ctx.Err()
	}
}

// release hands back the slot admit took.
func (e *Executor) release() {
	<-e.slots
	e.wg.Done()
}

// addStageSpans translates the engine's per-phase durations (permute,
// forward substitution, iterative Schur solve, back reconstruction) into
// child spans laid end to end from the solve start — the engine runs the
// phases sequentially, so cumulative offsets reconstruct the layout the
// coordinator's trace tree renders under the "solve" span.
func addStageSpans(at *obs.ActiveTrace, tSolve time.Time, st core.StageTimings) {
	t := tSolve
	for _, ph := range [...]struct {
		name string
		d    time.Duration
	}{{"permute", st.Permute}, {"forward", st.Forward}, {"schur", st.Solve}, {"back", st.Back}} {
		if ph.d <= 0 {
			continue
		}
		at.AddSpan(ph.name, t, t.Add(ph.d))
		t = t.Add(ph.d)
	}
}

// solve runs one query vector through admission control and then the
// engine, on the caller's goroutine: the full-vector solve, or for k > 0 the
// bounded top-k solve, whose Schur solve halts on its gap certificate, with
// exclude left out of the ranking. eng is the engine snapshot the query
// vector was built against, so it never meets an engine of another length.
// ctx, which carries the per-query deadline (see deadline), is honoured
// while waiting for a slot and inside the solver. The solve runs behind a
// panic barrier: a panic inside the engine (or a hook it calls) is recovered
// and returned wrapped in ErrSolvePanicked, so the query fails loudly
// instead of killing the process; the engine drops the workspace the
// panic left in an unknown state.
func (e *Executor) solve(ctx context.Context, q []float64, eng *core.Engine, k, exclude int, at *obs.ActiveTrace) (ans answer, stats core.QueryStats, saved int, err error) {
	enq := e.obs.Now()
	if err = e.admit(ctx, at); err != nil {
		return answer{}, stats, 0, err
	}
	defer e.release()
	deq := e.obs.Now()
	e.m.executed.Add(1)
	e.obs.QueueWait.Observe(deq.Sub(enq).Seconds())
	if at != nil {
		at.AddSpan("admission", enq, deq)
	}
	defer func() {
		if p := recover(); p != nil {
			e.m.panics.Add(1)
			ans, err = answer{}, fmt.Errorf("%w: %v", ErrSolvePanicked, p)
			e.obs.Events.Record("solve_panic", at.TraceID(), map[string]string{
				"error": err.Error(),
			})
		}
	}()
	if k == 0 {
		ans.scores, stats, err = eng.QueryVectorWS(ctx, q)
	} else {
		var ts core.TopKStats
		ans.top, ans.scores, ts, err = eng.TopKBoundedWS(ctx, q, exclude, k)
		stats, ans.early, saved = ts.QueryStats, ts.EarlyStopped, ts.SavedIters
		if err == nil {
			e.m.topk.Add(1)
			if ans.early {
				e.m.early.Add(1)
				e.obs.TopKSaved.Observe(float64(saved))
			}
		}
	}
	tEnd := e.obs.Now()
	e.obs.SolveLatency.Observe(tEnd.Sub(deq).Seconds())
	if at != nil {
		at.AddSpan("solve", deq, tEnd)
		at.SetSolve(stats.Iterations, stats.Residual)
		addStageSpans(at, deq, stats.Stages)
	}
	if err == nil {
		e.obs.Iterations.Observe(float64(stats.Iterations))
		e.obs.Residual.Observe(stats.Residual)
	}
	return ans, stats, saved, err
}

// queryObs is the observability state of one query moving through the
// executor: its start time and its sampled trace (nil when untraced).
type queryObs struct {
	start time.Time
	at    *obs.ActiveTrace
}

// startQuery opens the query's observation window. ctx may carry a
// propagated trace context (obs.WithTrace, set by the HTTP binding from an
// X-Bepi-Trace header or by the cluster coordinator's root span): such
// queries are traced unconditionally and their records attach under the
// remote parent, so a coordinator-rooted trace always contains the owning
// shard's qexec and solve-stage spans.
func (e *Executor) startQuery(ctx context.Context, kind string, seed int) queryObs {
	start := e.obs.Now()
	return queryObs{start: start, at: e.obs.Tracer.BeginCtx(ctx, kind, seed)}
}

// span closes a stage span on the sampled trace, reading the clock only
// when the query is actually traced.
func (e *Executor) span(at *obs.ActiveTrace, name string, from time.Time) {
	if at != nil {
		at.AddSpan(name, from, e.obs.Now())
	}
}

// finish records the query's completion: the latency histogram, the trace
// ring, and the slow-query log.
func (e *Executor) finish(qo *queryObs, kind string, seed int, res *Result, err error) {
	end := e.obs.Now()
	total := end.Sub(qo.start)
	e.obs.QueryLatency.Observe(total.Seconds())
	at := qo.at
	if at != nil {
		if res.Generation > 0 {
			at.SetTag("generation", strconv.FormatUint(res.Generation, 10))
		}
		if res.EarlyStopped {
			// Said on hits too: a replayed certified ranking still carries
			// early-stopped scores.
			at.SetTag("early_stopped", "true")
		}
		at.SetErr(err)
		at.Finish(end)
	}
	if sl := e.obs.SlowLog; sl.Slow(total) {
		sl.Log(kind, seed, at.TraceID(), total, res.Cached,
			res.Stats.Iterations, res.Stats.Residual, err, at.Spans())
		e.obs.Events.Record("slow_query", at.TraceID(), map[string]string{
			"kind":  kind,
			"seed":  strconv.Itoa(seed),
			"total": total.String(),
		})
	}
}

// deadline applies Config.Timeout, the per-query deadline, to a request's
// context, once per query that goes past the cache.
func (e *Executor) deadline(ctx context.Context) (context.Context, context.CancelFunc) {
	if e.cfg.Timeout <= 0 {
		return ctx, func() {}
	}
	return context.WithTimeout(ctx, e.cfg.Timeout)
}

// run is the one execution core of every single-seed query — k = 0 for
// the full-tolerance score vector, k > 0 for the bounded top-k ranking:
// serve a cache hit, or solve and remember the answer. st is the engine
// snapshot the query runs against; cache lookups and cache fills both
// carry its generation so nothing crosses an engine swap, and the result
// carries its generation and hash.
//
// Reuse follows one rule: the seed's full vector, key (seed, 0), answers
// any k and is consulted first; a bounded answer is consulted and stored
// only under its exact (seed, k), because an early-stopped solve certifies
// that k's SET and nothing else. So a full request stores its vector and a
// bounded one its ranking, the latter about 16·k bytes against the
// vector's 8·n whether or not its solve stopped early. rank > 0 asks for a
// ranking of that length (rank = k when k > 0).
func (e *Executor) run(ctx context.Context, seed, k, rank int, st *engineState, qo *queryObs) ([]core.Ranked, Result, error) {
	full, own := key{seed, 0}, key{seed, k}
	ans, hit := e.lookup(full, own, st.gen)
	e.span(qo.at, "cache", qo.start)
	if hit {
		return e.deliver(qo, ans, seed, rank, Result{Cached: true, Generation: st.gen, IndexHash: st.hash})
	}
	e.m.misses.Add(1)
	ctx, cancel := e.deadline(ctx)
	defer cancel()
	q := make([]float64, st.eng.N())
	q[seed] = 1
	ans, stats, saved, err := e.solve(ctx, q, st.eng, k, seed, qo.at)
	if err != nil {
		return nil, Result{}, err
	}
	if e.cache != nil {
		stored := ans
		if k > 0 {
			stored.scores = nil // the ranking, not the vector behind it
		}
		e.cache.put(own, stored, st.gen)
	}
	return e.deliver(qo, ans, seed, rank, Result{Stats: stats, SavedIters: saved, Generation: st.gen, IndexHash: st.hash})
}

// lookup consults the cache for a request keyed own: the seed's full
// vector first, then the request's own key. It counts the hit.
func (e *Executor) lookup(full, own key, gen uint64) (answer, bool) {
	if e.cache == nil {
		return answer{}, false
	}
	ans, ok := e.cache.get(full, gen)
	if !ok && own != full {
		if ans, ok = e.cache.get(own, gen); ok {
			e.m.topkHits.Add(1)
		}
	}
	if ok {
		e.m.hits.Add(1)
	}
	return ans, ok
}

// deliver shapes an answer — out of the cache or the request's own solve —
// into what the request returns. An answer without a ranking is the seed's
// full vector (see answer): it is ranked here when a ranking was asked for,
// inside the query's observation window, so traces carry the "rank" span. A
// bounded answer already is the ranking asked for.
func (e *Executor) deliver(qo *queryObs, ans answer, seed, rank int, res Result) ([]core.Ranked, Result, error) {
	if res.Cached {
		qo.at.SetCached()
	}
	res.Scores, res.EarlyStopped = ans.scores, ans.early
	if rank > 0 && ans.top == nil {
		tr := e.obs.Now()
		ans.top = core.RankTopK(ans.scores, rank, seed)
		e.span(qo.at, "rank", tr)
	}
	return ans.top, res, nil
}

// single is the shared body of Query, TopK and TopKFull: validate the
// seed, pick the solve class, and run the execution core under one
// observation window. k > 0 asks for the bounded top-k solve — demoted to
// the full-vector class (k = 0) by a k covering the whole graph — and
// rank > 0 for a ranking of that length.
func (e *Executor) single(ctx context.Context, seed, k, rank int) ([]core.Ranked, Result, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	st := e.eng.Load()
	if n := st.eng.N(); seed < 0 || seed >= n {
		return nil, Result{}, fmt.Errorf("qexec: seed %d out of range [0,%d)", seed, n)
	}
	kind := "topk"
	if k <= 0 || k >= st.eng.N() {
		kind, k = "query", 0
	}
	qo := e.startQuery(ctx, kind, seed)
	top, res, err := e.run(ctx, seed, k, rank, st, &qo)
	e.finish(&qo, kind, seed, &res, err)
	return top, res, err
}

// Query answers a single-seed RWR query with the full-tolerance score
// vector: a cache hit, or a solve.
func (e *Executor) Query(ctx context.Context, seed int) (Result, error) {
	_, res, err := e.single(ctx, seed, 0, 0)
	return res, err
}

// TopK returns the k highest-scoring nodes for a seed (seed excluded).
// By default it runs the bound-pruned search: the Schur solve halts as
// soon as the engine's accuracy certificate proves the top-k SET is
// settled (see core.Engine.TopKBounded), which is provably the same set a
// full solve would rank — only the returned scores may be early-stopped
// approximations (Result.EarlyStopped). The certified ranking is cached
// under (seed, k), so repeating the request costs a map lookup. A cached
// full vector for the seed short-circuits the solve entirely:
// any k ranks out of a full vector for free. k <= 0 and k covering the
// whole graph fall back to TopKFull.
func (e *Executor) TopK(ctx context.Context, seed, k int) ([]core.Ranked, Result, error) {
	return e.single(ctx, seed, k, k)
}

// TopKFull ranks the seed's full-tolerance score vector — the pre-bounded
// TopK behavior, served through the cache and solves like Query and never
// from a certified (seed, k) ranking. It is the path for callers that need
// exact scores alongside the exact set (a shard's /query?exact=true,
// debugging, A-B baselines).
func (e *Executor) TopKFull(ctx context.Context, seed, k int) ([]core.Ranked, Result, error) {
	return e.single(ctx, seed, 0, k)
}

// Personalized answers an arbitrary-distribution PPR query through
// admission control and a solve. q must have length N; it is not cached
// (the key space is unbounded) but still solves on the engine's pooled
// workspaces.
func (e *Executor) Personalized(ctx context.Context, q []float64) (Result, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	st := e.eng.Load()
	if len(q) != st.eng.N() {
		return Result{}, fmt.Errorf("qexec: query vector length %d want %d", len(q), st.eng.N())
	}
	qo := e.startQuery(ctx, "personalized", -1)
	e.m.misses.Add(1)
	ctx, cancel := e.deadline(ctx)
	defer cancel()
	var res Result
	ans, stats, _, err := e.solve(ctx, q, st.eng, 0, -1, qo.at)
	if err == nil {
		res = Result{Scores: ans.scores, Stats: stats, Generation: st.gen, IndexHash: st.hash}
	}
	e.finish(&qo, "personalized", -1, &res, err)
	return res, err
}
