package obs

import (
	"context"
	"sync"
	"sync/atomic"
	"time"
)

// Span is one named stage of a query's life, as an offset from the trace
// start. The serving path emits: "cache" (lookup), "admission" (waiting
// for a solve slot), "solve" (the engine call), and "rank" (top-k
// extraction).
type Span struct {
	Name  string        `json:"name"`
	Start time.Duration `json:"start_ns"`
	Dur   time.Duration `json:"dur_ns"`
	// Tags annotate spans that fan out (replica, attempt, status, ...).
	Tags map[string]string `json:"tags,omitempty"`
}

// Trace is the completed record of one query through the execution
// subsystem. In a cluster, one distributed trace is a set of Trace records
// sharing a TraceID: the coordinator's root record (ParentID 0) plus one
// record per shard request, each parented on the coordinator span that
// issued it. GET /debug/traces on the coordinator joins them into a tree.
type Trace struct {
	ID   uint64    `json:"id"`
	Kind string    `json:"kind"` // "query" | "personalized"
	Seed int       `json:"seed"` // -1 for personalized queries
	Time time.Time `json:"time"` // trace start

	// TraceID names the distributed trace this record belongs to; SpanID
	// names this record within it; ParentID is the SpanID of the record
	// (possibly on another machine) that caused it, 0 for a root.
	TraceID  string `json:"trace_id,omitempty"`
	SpanID   uint64 `json:"span_id,omitempty"`
	ParentID uint64 `json:"parent_id,omitempty"`
	// Tags annotate the whole record (generation, replica, ...).
	Tags map[string]string `json:"tags,omitempty"`

	Total      time.Duration `json:"total_ns"`
	Cached     bool          `json:"cached,omitempty"`
	BatchSize  int           `json:"batch_size,omitempty"`
	Iterations int           `json:"iterations,omitempty"`
	Residual   float64       `json:"residual,omitempty"`
	Err        string        `json:"error,omitempty"`

	Spans []Span `json:"spans"`
}

// Tracer samples queries into ActiveTraces and keeps the most recent
// finished traces in a bounded ring buffer.
type Tracer struct {
	clock  Clock
	sample uint64
	n      atomic.Uint64 // Begin calls; doubles as the trace id source

	mu   sync.Mutex
	ring []Trace
	size int // traces stored (≤ len(ring))
	pos  int // next write index
}

// NewTracer builds a tracer with the given ring capacity, sampling one in
// every `sample` queries (≤ 1 means every query). clock nil means time.Now.
func NewTracer(capacity, sample int, clock Clock) *Tracer {
	if capacity <= 0 {
		capacity = 256
	}
	if sample < 1 {
		sample = 1
	}
	return &Tracer{clock: clock, sample: uint64(sample), ring: make([]Trace, capacity)}
}

// Begin starts a trace for one query, or returns nil when the query is not
// sampled (every ActiveTrace method is nil-safe, so callers never branch).
// A nil tracer never samples.
func (t *Tracer) Begin(kind string, seed int) *ActiveTrace {
	if t == nil {
		return nil
	}
	n := t.n.Add(1)
	if (n-1)%t.sample != 0 {
		return nil
	}
	return t.begin(n, kind, seed, TraceContext{TraceID: NewTraceID()})
}

// BeginCtx starts a trace honoring a propagated trace context: when ctx
// carries a TraceContext (set by WithTrace from an X-Bepi-Trace header or a
// coordinator root span), the query is traced unconditionally — the
// sampling decision was already made at the root — and the record adopts
// the context's trace ID with the context's span as its parent. Without a
// context it behaves exactly like Begin.
func (t *Tracer) BeginCtx(ctx context.Context, kind string, seed int) *ActiveTrace {
	if t == nil {
		return nil
	}
	tc, ok := TraceFrom(ctx)
	if !ok {
		return t.Begin(kind, seed)
	}
	return t.begin(t.n.Add(1), kind, seed, tc)
}

func (t *Tracer) begin(n uint64, kind string, seed int, tc TraceContext) *ActiveTrace {
	start := t.clock.now()
	return &ActiveTrace{
		t:     t,
		start: start,
		tr: Trace{
			ID:       n,
			Kind:     kind,
			Seed:     seed,
			Time:     start,
			TraceID:  tc.TraceID,
			SpanID:   newSpanID(),
			ParentID: tc.SpanID,
			Spans:    make([]Span, 0, 8),
		},
	}
}

// Recent returns up to max finished traces, newest first. Pass max ≤ 0 for
// the whole ring.
func (t *Tracer) Recent(max int) []Trace {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	n := t.size
	if max > 0 && max < n {
		n = max
	}
	out := make([]Trace, n)
	for i := 0; i < n; i++ {
		// pos-1 is the newest entry.
		out[i] = t.ring[((t.pos-1-i)%len(t.ring)+len(t.ring))%len(t.ring)]
	}
	return out
}

// ByTraceID returns up to max finished records belonging to the given
// distributed trace, newest first. Pass max ≤ 0 for all matches in the
// ring.
func (t *Tracer) ByTraceID(id string, max int) []Trace {
	if t == nil || id == "" {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	var out []Trace
	for i := 0; i < t.size; i++ {
		tr := t.ring[((t.pos-1-i)%len(t.ring)+len(t.ring))%len(t.ring)]
		if tr.TraceID != id {
			continue
		}
		out = append(out, tr)
		if max > 0 && len(out) >= max {
			break
		}
	}
	return out
}

// ActiveTrace is a trace being recorded. A small mutex guards the record:
// the qexec path hands the trace between goroutines with happens-before
// edges, and the lock keeps any other caller safe without proving its own.
// All methods are no-ops on a nil receiver.
type ActiveTrace struct {
	t     *Tracer
	start time.Time
	mu    sync.Mutex
	tr    Trace
}

// Context returns the propagation context for requests this trace causes:
// child records adopt the trace ID and parent on this record's span.
func (a *ActiveTrace) Context() TraceContext {
	if a == nil {
		return TraceContext{}
	}
	return TraceContext{TraceID: a.tr.TraceID, SpanID: a.tr.SpanID}
}

// AddSpan records a stage that ran from `from` to `to` (tracer-clock
// timestamps).
func (a *ActiveTrace) AddSpan(name string, from, to time.Time) {
	a.AddSpanTags(name, from, to, nil)
}

// AddSpanTags records a stage with annotations (replica, attempt, ...).
func (a *ActiveTrace) AddSpanTags(name string, from, to time.Time, tags map[string]string) {
	if a == nil {
		return
	}
	a.mu.Lock()
	a.tr.Spans = append(a.tr.Spans, Span{Name: name, Start: from.Sub(a.start), Dur: to.Sub(from), Tags: tags})
	a.mu.Unlock()
}

// SetTag annotates the whole record.
func (a *ActiveTrace) SetTag(key, value string) {
	if a == nil {
		return
	}
	a.mu.Lock()
	if a.tr.Tags == nil {
		a.tr.Tags = make(map[string]string, 4)
	}
	a.tr.Tags[key] = value
	a.mu.Unlock()
}

// SetCached marks the query as served from the executor's cache (a score
// vector or a certified top-k ranking).
func (a *ActiveTrace) SetCached() {
	if a != nil {
		a.mu.Lock()
		a.tr.Cached = true
		a.mu.Unlock()
	}
}

// SetBatch records how many seeds a multi-seed query carried.
func (a *ActiveTrace) SetBatch(k int) {
	if a != nil {
		a.mu.Lock()
		a.tr.BatchSize = k
		a.mu.Unlock()
	}
}

// SetSolve records the iterative solver's outcome for this query.
func (a *ActiveTrace) SetSolve(iterations int, residual float64) {
	if a != nil {
		a.mu.Lock()
		a.tr.Iterations = iterations
		a.tr.Residual = residual
		a.mu.Unlock()
	}
}

// SetErr records a failure.
func (a *ActiveTrace) SetErr(err error) {
	if a != nil && err != nil {
		a.mu.Lock()
		a.tr.Err = err.Error()
		a.mu.Unlock()
	}
}

// Spans exposes a copy of the spans recorded so far (for the slow-query
// log).
func (a *ActiveTrace) Spans() []Span {
	if a == nil {
		return nil
	}
	a.mu.Lock()
	defer a.mu.Unlock()
	out := make([]Span, len(a.tr.Spans))
	copy(out, a.tr.Spans)
	return out
}

// TraceID exposes the distributed trace ID ("" when untraced or nil).
func (a *ActiveTrace) TraceID() string {
	if a == nil {
		return ""
	}
	return a.tr.TraceID
}

// Finish stamps the total duration and publishes the trace into the ring.
// Call it at most once, after every goroutine holding the trace is done
// with it.
func (a *ActiveTrace) Finish(end time.Time) {
	if a == nil {
		return
	}
	a.mu.Lock()
	a.tr.Total = end.Sub(a.start)
	tr := a.tr
	a.mu.Unlock()
	t := a.t
	t.mu.Lock()
	t.ring[t.pos] = tr
	t.pos = (t.pos + 1) % len(t.ring)
	if t.size < len(t.ring) {
		t.size++
	}
	t.mu.Unlock()
}
