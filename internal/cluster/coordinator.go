package cluster

import (
	"context"
	"errors"
	"fmt"
	"net/http"
	"sort"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"bepi/internal/core"
	"bepi/internal/obs"
	"bepi/internal/qexec"
	"bepi/internal/server"
)

// Errors reported by the coordinator.
var (
	// ErrNoReplicas means every replica is ejected (or none were
	// configured); the cluster cannot answer.
	ErrNoReplicas = errors.New("cluster: no healthy replicas")
	// ErrGenerationMix means a scatter-gather merge could not assemble
	// partials from a single engine generation — a rebuild was swapping
	// engines mid-gather and the retry pass still straddled it. The query
	// is safe to retry.
	ErrGenerationMix = errors.New("cluster: partial results span index generations, refusing to merge")
)

// Config tunes the coordinator. Zero values select defaults.
type Config struct {
	// Vnodes is the virtual-node count per replica (default DefaultVnodes).
	Vnodes int
	// HealthInterval is the probe period of the background health checker
	// (default 2s; negative disables the background loop — probes then run
	// only via CheckNow, which tests use for determinism).
	HealthInterval time.Duration
	// FailThreshold is how many consecutive probe failures eject a replica
	// from the ring (default 3).
	FailThreshold int
	// ReadmitThreshold is how many consecutive probe successes readmit an
	// ejected replica (default 2).
	ReadmitThreshold int
	// Retries bounds how many ring successors a failed query is retried on
	// (default 2; 0 disables retry).
	Retries int
	// RetryBackoff is the base wait before each retry, doubling per
	// attempt; a replica's Retry-After hint overrides it when longer
	// (default 5ms). The wait honors the caller's context.
	RetryBackoff time.Duration
	// AttemptTimeout bounds each replica attempt (default 10s). A timed-out
	// attempt counts as a retryable replica failure (504), not a caller
	// cancellation.
	AttemptTimeout time.Duration
	// Obs is the coordinator's observability bundle: its tracer opens the
	// root span of every distributed trace (replicas attach under it via
	// the propagated X-Bepi-Trace context), and its flight recorder logs
	// routing events (retries, ejections, generation mixes). Nil selects a
	// default enabled observer sampling 1 query in DefaultTraceSample;
	// pass obs.Disabled to turn the layer off.
	Obs *obs.Observer
}

func (c Config) withDefaults() Config {
	if c.Vnodes <= 0 {
		c.Vnodes = DefaultVnodes
	}
	if c.HealthInterval == 0 {
		c.HealthInterval = 2 * time.Second
	}
	if c.FailThreshold <= 0 {
		c.FailThreshold = 3
	}
	if c.ReadmitThreshold <= 0 {
		c.ReadmitThreshold = 2
	}
	if c.Retries < 0 {
		c.Retries = 0
	} else if c.Retries == 0 {
		c.Retries = 2
	}
	if c.RetryBackoff <= 0 {
		c.RetryBackoff = 5 * time.Millisecond
	}
	if c.AttemptTimeout <= 0 {
		c.AttemptTimeout = 10 * time.Second
	}
	if c.Obs == nil {
		c.Obs = obs.New(obs.Options{TraceSample: qexec.DefaultTraceSample})
	}
	return c
}

// replica is the coordinator's per-backend state: health-checker counters
// (touched only by the checker goroutine), the last health report, and
// routing metrics.
type replica struct {
	name    string
	backend Backend

	healthy    atomic.Bool
	consecFail int // health-checker goroutine only
	consecOK   int // health-checker goroutine only
	lastHealth atomic.Pointer[Health]

	routed       atomic.Int64
	errs         atomic.Int64
	retries      atomic.Int64
	ejections    atomic.Int64
	readmissions atomic.Int64
	latency      *obs.Histogram
}

// Coordinator fronts a fixed set of replica backends with consistent-hash
// routing, health-driven ring membership, and generation-aware
// scatter-gather. It is safe for concurrent use.
type Coordinator struct {
	cfg      Config
	replicas map[string]*replica // immutable after New
	names    []string            // sorted

	ring atomic.Pointer[Ring]
	mu   sync.Mutex // serializes ring membership transitions

	// obs carries the coordinator's tracer (root spans of distributed
	// traces) and flight recorder. Never nil after New.
	obs *obs.Observer

	// Scatter-gather counters.
	batches    atomic.Int64
	merges     atomic.Int64
	mixRefused atomic.Int64
	degraded   atomic.Int64
	// refetches counts partials re-queried to converge a gather on one
	// engine generation (the minority side of a mid-gather swap).
	refetches atomic.Int64

	stop     chan struct{}
	stopOnce sync.Once
	wg       sync.WaitGroup
}

// New builds a coordinator over the given backends and starts its health
// checker (unless disabled). All replicas start healthy and on the ring;
// the first probe round corrects that within one HealthInterval. Call
// Close to stop the checker.
func New(backends []Backend, cfg Config) (*Coordinator, error) {
	cfg = cfg.withDefaults()
	if len(backends) == 0 {
		return nil, fmt.Errorf("cluster: at least one replica backend is required")
	}
	c := &Coordinator{
		cfg:      cfg,
		obs:      cfg.Obs,
		replicas: make(map[string]*replica, len(backends)),
		stop:     make(chan struct{}),
	}
	families := make(map[string]string, len(backends))
	for _, b := range backends {
		if _, dup := c.replicas[b.Name()]; dup {
			return nil, fmt.Errorf("cluster: duplicate replica name %q", b.Name())
		}
		// Each replica's latency histogram is a family of its own, named
		// after the replica: two names that map to one family would cut the
		// exposition short.
		family := replicaLatencyFamily + promSafe(b.Name())
		if other, dup := families[family]; dup {
			return nil, fmt.Errorf("cluster: replica names %q and %q share the metric name %s", other, b.Name(), family)
		}
		families[family] = b.Name()
		r := &replica{
			name:    b.Name(),
			backend: b,
			latency: obs.NewHistogram(family, obs.LatencyBuckets()),
		}
		r.healthy.Store(true)
		c.replicas[b.Name()] = r
		c.names = append(c.names, b.Name())
	}
	sort.Strings(c.names)
	c.ring.Store(NewRing(c.names, cfg.Vnodes))
	if cfg.HealthInterval > 0 {
		c.wg.Add(1)
		go c.healthLoop()
	}
	return c, nil
}

// Close stops the health checker. It does not close the backends.
func (c *Coordinator) Close() {
	c.stopOnce.Do(func() { close(c.stop) })
	c.wg.Wait()
}

// Ring returns the current routing ring (healthy members only).
func (c *Coordinator) Ring() *Ring { return c.ring.Load() }

// Observer exposes the coordinator's observability bundle (tracer + flight
// recorder) for the HTTP handler and tests.
func (c *Coordinator) Observer() *obs.Observer { return c.obs }

// beginTrace opens the coordinator-side trace record for one cluster
// operation and returns a context carrying its trace context, so replica
// attempts — and the shard processes behind them, via the propagated
// X-Bepi-Trace header — record under the same trace ID with this record as
// their parent span. Inside an already-traced context (a batch fan-out leg,
// or a request that arrived with X-Bepi-Trace) the record is forced
// regardless of sampling: the root decided this query is traced.
func (c *Coordinator) beginTrace(ctx context.Context, kind string, seed int) (*obs.ActiveTrace, context.Context) {
	at := c.obs.Tracer.BeginCtx(ctx, kind, seed)
	if at == nil {
		return nil, ctx
	}
	return at, obs.WithTrace(ctx, at.Context())
}

// Query answers a single-seed query, routing to the seed's ring owner for
// cache affinity and retrying ring successors (with back-off honoring the
// replica's Retry-After hint) on retryable failures.
func (c *Coordinator) Query(ctx context.Context, seed, topk int, full bool) (Partial, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	at, ctx := c.beginTrace(ctx, "cluster.query", seed)
	p, err := c.route(ctx, at, seed, topk, full)
	if at != nil {
		if err != nil {
			at.SetErr(err)
		} else {
			at.SetTag("shard", p.Replica)
			at.SetTag("generation", strconv.FormatUint(p.Generation, 10))
			if p.Cached {
				at.SetCached()
			}
		}
		at.Finish(c.obs.Now())
	}
	return p, err
}

// route walks the seed's ring successors: the owner first, then up to
// Retries fallbacks, each behind a back-off. Every attempt (and every
// back-off wait) becomes a span on the coordinator's trace record, tagged
// with the shard and attempt number; retries and exhausted routes go to the
// flight recorder.
func (c *Coordinator) route(ctx context.Context, at *obs.ActiveTrace, seed, topk int, full bool) (Partial, error) {
	ring := c.ring.Load()
	if ring.Len() == 0 {
		return Partial{}, ErrNoReplicas
	}
	order := ring.Successors(seed, c.cfg.Retries+1)
	var lastErr error
	for i, name := range order {
		if i > 0 {
			c.replicas[name].retries.Add(1)
			c.obs.Events.Record("retry", at.TraceID(), map[string]string{
				"seed":    strconv.Itoa(seed),
				"shard":   name,
				"attempt": strconv.Itoa(i + 1),
				"cause":   lastErr.Error(),
			})
			bStart := c.obs.Now()
			if err := c.backoff(ctx, i, lastErr); err != nil {
				return Partial{}, err
			}
			at.AddSpan("backoff", bStart, c.obs.Now())
		}
		aStart := c.obs.Now()
		p, err := c.queryReplica(ctx, c.replicas[name], seed, topk, full)
		at.AddSpanTags("attempt", aStart, c.obs.Now(), map[string]string{
			"shard":   name,
			"attempt": strconv.Itoa(i + 1),
		})
		if err == nil {
			return p, nil
		}
		lastErr = err
		if !Retryable(err) {
			break
		}
	}
	return Partial{}, lastErr
}

// backoff waits before retry attempt i (1-based): the replica's
// Retry-After hint when it gave one, otherwise exponential from
// RetryBackoff, aborting early if the caller's context dies.
func (c *Coordinator) backoff(ctx context.Context, attempt int, lastErr error) error {
	wait := c.cfg.RetryBackoff << (attempt - 1)
	if ra := RetryAfterOf(lastErr); ra > wait {
		wait = ra
	}
	t := time.NewTimer(wait)
	defer t.Stop()
	select {
	case <-t.C:
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}

// queryReplica runs one attempt against one replica under the per-attempt
// timeout, recording routing metrics. An attempt-timeout is reported as a
// retryable 504 BackendError rather than a caller cancellation. Replicas
// answer top-k fetches from their bound-pruned path (exact is never set).
func (c *Coordinator) queryReplica(ctx context.Context, rep *replica, seed, topk int, full bool) (Partial, error) {
	rep.routed.Add(1)
	actx, cancel := context.WithTimeout(ctx, c.cfg.AttemptTimeout)
	defer cancel()
	start := time.Now()
	p, err := rep.backend.Query(actx, seed, topk, full, false)
	rep.latency.Observe(time.Since(start).Seconds())
	if err != nil {
		rep.errs.Add(1)
		if actx.Err() == context.DeadlineExceeded && ctx.Err() == nil {
			return Partial{}, &BackendError{
				Replica: rep.name,
				Status:  http.StatusGatewayTimeout,
				Msg:     fmt.Sprintf("attempt timed out after %v", c.cfg.AttemptTimeout),
			}
		}
		return Partial{}, err
	}
	return p, nil
}

// BatchResult is the gathered answer to a multi-seed batch query.
// Results[i] answers Seeds[i] (nil when that seed failed on the owner and
// every retried successor). Degraded is true when any seed failed; the
// ShardsOK/ShardsFailed sets say which replicas answered and which were
// involved in failures. MixedTags is true when the per-seed rankings came
// from more than one (index hash, generation) — batch entries are
// independent rankings, never merged, so a mix is reported rather than
// refused.
type BatchResult struct {
	Seeds        []int
	Results      []*Partial
	Errs         []error
	ShardsOK     []string
	ShardsFailed []string
	Degraded     bool
	MixedTags    bool
}

// Batch scatter-gathers independent single-seed queries: each seed routes
// to its own ring owner (preserving cache affinity) concurrently, and
// per-replica failures degrade the response instead of failing it.
func (c *Coordinator) Batch(ctx context.Context, seeds []int, topk int) (BatchResult, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	if c.ring.Load().Len() == 0 {
		return BatchResult{}, ErrNoReplicas
	}
	c.batches.Add(1)
	at, ctx := c.beginTrace(ctx, "cluster.batch", len(seeds))
	res := BatchResult{
		Seeds:   seeds,
		Results: make([]*Partial, len(seeds)),
		Errs:    make([]error, len(seeds)),
	}
	var wg sync.WaitGroup
	for i, seed := range seeds {
		wg.Add(1)
		go func(i, seed int) {
			defer wg.Done()
			p, err := c.Query(ctx, seed, topk, false)
			if err != nil {
				res.Errs[i] = err
				return
			}
			res.Results[i] = &p
		}(i, seed)
	}
	wg.Wait()

	okShards := map[string]bool{}
	failShards := map[string]bool{}
	tags := map[Tag]bool{}
	for i, p := range res.Results {
		if p == nil {
			res.Degraded = true
			var be *BackendError
			if errors.As(res.Errs[i], &be) {
				failShards[be.Replica] = true
			}
			continue
		}
		okShards[p.Replica] = true
		tags[p.Tag()] = true
	}
	if res.Degraded {
		c.degraded.Add(1)
		c.obs.Events.Record("degraded_batch", at.TraceID(), map[string]string{
			"seeds":  strconv.Itoa(len(seeds)),
			"failed": strconv.Itoa(len(failShards)),
		})
	}
	res.MixedTags = len(tags) > 1
	if res.MixedTags {
		c.obs.Events.Record("generation_mix", at.TraceID(), map[string]string{
			"kind": "batch", "tags": strconv.Itoa(len(tags)),
		})
	}
	res.ShardsOK = sortedKeys(okShards)
	res.ShardsFailed = sortedKeys(failShards)
	if at != nil {
		at.SetBatch(len(seeds))
		at.SetTag("shards_ok", strconv.Itoa(len(res.ShardsOK)))
		if res.Degraded {
			at.SetTag("degraded", "true")
		}
		at.Finish(c.obs.Now())
	}
	return res, nil
}

func sortedKeys(m map[string]bool) []string {
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}

// Merged is a personalized query: the top-k of the weighted sum of the
// per-seed score vectors, assembled from one full-vector partial per seed.
type Merged struct {
	Top []server.RankedEntry
	// Tag is the single (index hash, generation) every merged partial
	// carried.
	Tag Tag
	// Replicas are the shards that contributed partials.
	Replicas []string
	// Refetched counts partials re-queried to converge on one tag.
	Refetched int
	// CacheHits counts partials served from replica caches.
	CacheHits int
}

// Personalized answers a multi-seed PPR query by linear decomposition:
// RWR is linear in the restart vector, so ppr(Σᵢ wᵢ·eᵢ) = Σᵢ wᵢ·ppr(eᵢ),
// and each single-seed solve routes to the replica that owns that seed —
// exactly the per-seed cache the affinity routing has been warming.
//
// Each replica returns the seed's full-tolerance score vector (the one its
// cache holds under (seed, 0)); the coordinator sums them with weights
// wᵢ/Σw in ascending seed order and ranks the sum with core.RankTopKFunc,
// leaving out the seeds and non-positive scores. The ranking is therefore a
// pure function of the per-seed vectors: the same nodes and the same
// float64 bits however the partials travelled.
//
// Merging is generation-guarded: every partial must carry
// the same (index hash, generation) tag. If a rebuild swaps engines
// mid-gather, the minority partials are re-fetched once (a swapped
// replica answers the re-fetch from its new engine); if the gather still
// straddles generations — e.g. a rolling rebuild where some replicas
// haven't swapped yet — the merge is refused with ErrGenerationMix rather
// than ever summing scores from two different indexes.
func (c *Coordinator) Personalized(ctx context.Context, weights map[int]float64, topk int) (Merged, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	if c.ring.Load().Len() == 0 {
		return Merged{}, ErrNoReplicas
	}
	if len(weights) == 0 {
		return Merged{}, &BackendError{Status: http.StatusBadRequest, Msg: "weights must be non-empty"}
	}
	var sum float64
	for node, w := range weights {
		if w < 0 {
			return Merged{}, &BackendError{Status: http.StatusBadRequest, Msg: fmt.Sprintf("negative weight for node %d", node)}
		}
		sum += w
	}
	if sum <= 0 {
		return Merged{}, &BackendError{Status: http.StatusBadRequest, Msg: "weights must sum to a positive value"}
	}

	seeds := make([]int, 0, len(weights))
	for node := range weights {
		seeds = append(seeds, node)
	}
	sort.Ints(seeds)
	if topk <= 0 {
		topk = 10
	}

	at, ctx := c.beginTrace(ctx, "cluster.personalized", len(seeds))
	m, err := c.fullMerge(ctx, weights, sum, seeds, topk)
	if at != nil {
		if err != nil {
			at.SetErr(err)
		} else {
			at.SetBatch(len(seeds))
			at.SetTag("generation", strconv.FormatUint(m.Tag.Gen, 10))
			if m.Refetched > 0 {
				at.SetTag("refetched", strconv.Itoa(m.Refetched))
			}
		}
		at.Finish(c.obs.Now())
	}
	return m, err
}

// gather fetches every seed's full score vector concurrently and enforces
// the generation guard: every partial must end up under one (index hash,
// generation) tag, with one re-fetch pass for the minority side of a
// mid-gather engine swap. A failed partial fails the gather — a weighted
// sum missing one component is silently wrong (unlike Batch, whose
// entries are independent).
func (c *Coordinator) gather(ctx context.Context, seeds []int) ([]Partial, int, error) {
	partials := make([]Partial, len(seeds))
	errs := make([]error, len(seeds))
	fetch := func(idxs []int) {
		var wg sync.WaitGroup
		for _, i := range idxs {
			wg.Add(1)
			go func(i int) {
				defer wg.Done()
				partials[i], errs[i] = c.Query(ctx, seeds[i], 0, true)
			}(i)
		}
		wg.Wait()
	}
	all := make([]int, len(seeds))
	for i := range all {
		all[i] = i
	}
	fetch(all)
	for i, err := range errs {
		if err != nil {
			return nil, 0, fmt.Errorf("cluster: partial for seed %d: %w", seeds[i], err)
		}
	}
	refetched := 0
	stale := mismatched(partials)
	if len(stale) > 0 {
		refetched = len(stale)
		c.refetches.Add(int64(refetched))
		traceID := ""
		if tc, ok := obs.TraceFrom(ctx); ok {
			traceID = tc.TraceID
		}
		c.obs.Events.Record("generation_refetch", traceID, map[string]string{
			"partials": strconv.Itoa(len(partials)),
			"stale":    strconv.Itoa(refetched),
		})
		fetch(stale)
		for _, i := range stale {
			if errs[i] != nil {
				return nil, 0, fmt.Errorf("cluster: re-fetch for seed %d: %w", seeds[i], errs[i])
			}
		}
		if len(mismatched(partials)) > 0 {
			c.mixRefused.Add(1)
			c.obs.Events.Record("generation_mix", traceID, map[string]string{
				"kind": "merge", "partials": strconv.Itoa(len(partials)),
			})
			return nil, 0, ErrGenerationMix
		}
	}
	return partials, refetched, nil
}

// fullMerge is the personalized merge: gather every seed's whole score
// vector, weighted-sum them, rank.
func (c *Coordinator) fullMerge(ctx context.Context, weights map[int]float64, sum float64, seeds []int, topk int) (Merged, error) {
	partials, refetched, err := c.gather(ctx, seeds)
	if err != nil {
		return Merged{}, err
	}
	c.merges.Add(1)
	merged := make([]float64, len(partials[0].Scores))
	shards := map[string]bool{}
	hits := 0
	for i, p := range partials {
		w := weights[seeds[i]] / sum
		if len(p.Scores) != len(merged) {
			// Same tag implies same node count; a length mismatch means a
			// replica is serving a different graph under the same tag.
			return Merged{}, fmt.Errorf("cluster: replica %s returned %d scores, want %d",
				p.Replica, len(p.Scores), len(merged))
		}
		for n, s := range p.Scores {
			merged[n] += w * s
		}
		shards[p.Replica] = true
		if p.Cached {
			hits++
		}
	}
	isSeed := make(map[int]bool, len(seeds))
	for _, s := range seeds {
		isSeed[s] = true
	}
	ranked := core.RankTopKFunc(merged, topk, func(node int) bool {
		return isSeed[node] || merged[node] <= 0
	})
	top := make([]server.RankedEntry, len(ranked))
	for i, t := range ranked {
		top[i] = server.RankedEntry{Node: t.Node, Score: t.Score}
	}
	return Merged{
		Top:       top,
		Tag:       partials[0].Tag(),
		Replicas:  sortedKeys(shards),
		Refetched: refetched,
		CacheHits: hits,
	}, nil
}

// mismatched returns the indexes of partials whose tag disagrees with the
// most common tag (ties break toward the higher generation, i.e. the
// post-swap side of a rebuild).
func mismatched(partials []Partial) []int {
	counts := map[Tag]int{}
	for _, p := range partials {
		counts[p.Tag()]++
	}
	if len(counts) <= 1 {
		return nil
	}
	var want Tag
	best := -1
	for tag, n := range counts {
		if n > best || (n == best && tag.Gen > want.Gen) {
			want, best = tag, n
		}
	}
	var out []int
	for i, p := range partials {
		if p.Tag() != want {
			out = append(out, i)
		}
	}
	return out
}
