package cluster

import (
	"context"
	"errors"
	"fmt"
	"math"
	"net/http"
	"sort"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"bepi/internal/obs"
	"bepi/internal/qexec"
	"bepi/internal/server"
)

// ErrNoReplicas means every replica is ejected (or none were configured);
// the cluster cannot answer.
var ErrNoReplicas = errors.New("cluster: no healthy replicas")

// The coordinator's fixed health and retry policy.
const (
	// failThreshold is how many consecutive probe failures eject a replica
	// from the ring.
	failThreshold = 3
	// readmitThreshold is how many consecutive probe successes readmit an
	// ejected replica.
	readmitThreshold = 2
	// retryBackoff is the base wait before each retry, doubling per
	// attempt; a replica's Retry-After hint overrides it when longer. The
	// wait honors the caller's context.
	retryBackoff = 5 * time.Millisecond
	// attemptTimeout bounds each replica attempt. A timed-out attempt
	// counts as a retryable replica failure (504), not a caller
	// cancellation.
	attemptTimeout = 10 * time.Second
)

// Config tunes the coordinator. Zero values select defaults. Each replica
// owns DefaultVnodes points of the ring.
type Config struct {
	// HealthInterval is the probe period of the background health checker
	// (default 2s; negative disables the background loop — probes then run
	// only via CheckNow, which tests use for determinism).
	HealthInterval time.Duration
	// Retries bounds how many ring successors a failed query is retried on
	// (default 2; 0 disables retry).
	Retries int
	// Obs is the coordinator's observability bundle: its tracer opens the
	// root span of every distributed trace (replicas attach under it via
	// the propagated X-Bepi-Trace context), and its flight recorder logs
	// routing events (retries, ejections, generation mixes). Nil selects a
	// default enabled observer sampling 1 query in DefaultTraceSample;
	// pass obs.Disabled to turn the layer off.
	Obs *obs.Observer
}

func (c Config) withDefaults() Config {
	if c.HealthInterval == 0 {
		c.HealthInterval = 2 * time.Second
	}
	if c.Retries < 0 {
		c.Retries = 0
	} else if c.Retries == 0 {
		c.Retries = 2
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
// routing, retries on ring successors and health-driven ring membership.
// Every query, single- or multi-seed, is answered by one replica. It is
// safe for concurrent use.
type Coordinator struct {
	cfg      Config
	replicas map[string]*replica // immutable after New
	names    []string            // sorted

	ring atomic.Pointer[Ring]
	mu   sync.Mutex // serializes ring membership transitions

	// obs carries the coordinator's tracer (root spans of distributed
	// traces) and flight recorder. Never nil after New.
	obs *obs.Observer

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
	c.ring.Store(NewRing(c.names, DefaultVnodes))
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
// their parent span. Inside an already-traced context (a request that
// arrived with X-Bepi-Trace) the record is forced regardless of sampling:
// the root decided this query is traced.
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
	var p Partial
	_, err := c.route(ctx, at, seed, func(ctx context.Context, b Backend) (err error) {
		p, err = b.Query(ctx, seed, topk, full, false)
		return err
	})
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

// Personalized answers a multi-seed query Σ wᵢ·eᵢ with one solve on one
// replica: the ring owner of the smallest seed, then its successors, as
// Query routes a seed. The replica's answer is returned unchanged, so it
// comes from one engine generation by construction. Validating the weights
// (sign, sum, node range) is the replica's job; its 400 is not retried.
// The coordinator only needs a seed to route on.
func (c *Coordinator) Personalized(ctx context.Context, weights map[int]float64, topk int) (server.PersonalizedResponse, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	if len(weights) == 0 {
		return server.PersonalizedResponse{}, &BackendError{Status: http.StatusBadRequest, Msg: "weights must be non-empty"}
	}
	key := math.MaxInt
	for node := range weights {
		key = min(key, node)
	}
	at, ctx := c.beginTrace(ctx, "cluster.personalized", key)
	var resp server.PersonalizedResponse
	shard, err := c.route(ctx, at, key, func(ctx context.Context, b Backend) (err error) {
		resp, err = b.Personalized(ctx, weights, topk)
		return err
	})
	if at != nil {
		if err != nil {
			at.SetErr(err)
		} else {
			at.SetBatch(len(weights))
			at.SetTag("shard", shard)
			at.SetTag("generation", strconv.FormatUint(resp.Generation, 10))
		}
		at.Finish(c.obs.Now())
	}
	return resp, err
}

// route walks key's ring successors: the owner first, then up to Retries
// fallbacks, each behind a back-off, running attempt against each until
// one succeeds or fails for good. It returns the name of the replica that
// answered. Every attempt (and every back-off wait) becomes a span
// on the coordinator's trace record, tagged with the shard and attempt
// number; retries go to the flight recorder.
func (c *Coordinator) route(ctx context.Context, at *obs.ActiveTrace, key int, attempt func(context.Context, Backend) error) (string, error) {
	ring := c.ring.Load()
	if ring.Len() == 0 {
		return "", ErrNoReplicas
	}
	order := ring.Successors(key, c.cfg.Retries+1)
	var lastErr error
	for i, name := range order {
		if i > 0 {
			c.replicas[name].retries.Add(1)
			c.obs.Events.Record("retry", at.TraceID(), map[string]string{
				"seed":    strconv.Itoa(key),
				"shard":   name,
				"attempt": strconv.Itoa(i + 1),
				"cause":   lastErr.Error(),
			})
			bStart := c.obs.Now()
			if err := c.backoff(ctx, i, lastErr); err != nil {
				return "", err
			}
			at.AddSpan("backoff", bStart, c.obs.Now())
		}
		aStart := c.obs.Now()
		err := c.try(ctx, c.replicas[name], attempt)
		at.AddSpanTags("attempt", aStart, c.obs.Now(), map[string]string{
			"shard":   name,
			"attempt": strconv.Itoa(i + 1),
		})
		if err == nil {
			return name, nil
		}
		lastErr = err
		if !Retryable(err) {
			break
		}
	}
	return "", lastErr
}

// backoff waits before retry attempt i (1-based): the replica's
// Retry-After hint when it gave one, otherwise exponential from
// retryBackoff, aborting early if the caller's context dies.
func (c *Coordinator) backoff(ctx context.Context, attempt int, lastErr error) error {
	wait := retryBackoff << (attempt - 1)
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

// try runs one attempt against one replica under the per-attempt timeout,
// recording routing metrics. An attempt-timeout is reported as a retryable
// 504 BackendError rather than a caller cancellation.
func (c *Coordinator) try(ctx context.Context, rep *replica, attempt func(context.Context, Backend) error) error {
	rep.routed.Add(1)
	actx, cancel := context.WithTimeout(ctx, attemptTimeout)
	defer cancel()
	start := time.Now()
	err := attempt(actx, rep.backend)
	rep.latency.Observe(time.Since(start).Seconds())
	if err == nil {
		return nil
	}
	rep.errs.Add(1)
	if actx.Err() == context.DeadlineExceeded && ctx.Err() == nil {
		return &BackendError{
			Replica: rep.name,
			Status:  http.StatusGatewayTimeout,
			Msg:     fmt.Sprintf("attempt timed out after %v", attemptTimeout),
		}
	}
	return err
}
