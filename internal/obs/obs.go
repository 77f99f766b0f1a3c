// Package obs is the serving system's observability layer: dependency-free
// telemetry primitives threaded through every layer between a socket and
// the Schur-complement solve.
//
//   - Histogram: lock-free fixed-bucket (log-spaced) histograms for query
//     latency, engine-solve latency, queue wait, GMRES iteration counts and
//     final residuals, with p50/p90/p99 snapshot summaries;
//   - Tracer: per-query trace records with stage spans (cache lookup,
//     admission, solve, top-k rank) captured against an injected clock and kept in a bounded ring buffer
//     (served at GET /debug/traces);
//   - Metric: one row of a serving tier's metric table, where each metric
//     is declared once; ServeProm, JSON and Snapshot derive the Prometheus
//     text (GET /metrics with content negotiation, /metrics.prom), the
//     /metrics JSON and the mergeable /metrics/snapshot from the rows;
//   - SlowLog: a structured (log/slog) slow-query log with a configurable
//     threshold.
//
// Everything is nil-safe: a nil *Histogram, *Tracer or *SlowLog is a no-op,
// so the Disabled observer turns the whole layer off without branching at
// call sites. The hot-path cost of a fully enabled observer is a few atomic
// adds per query (see BenchmarkObserveQuery and the qexec/noobs benchmark
// variant); the paper's per-query time claims (Figs. 6-8) stay measurable
// in production because this instrumentation is always on.
package obs

import (
	"log/slog"
	"sync/atomic"
	"time"
)

// Clock is the time source injected into the tracer and the executors so
// span tests are deterministic. The zero value (nil) means time.Now.
type Clock func() time.Time

// now resolves a possibly-nil clock.
func (c Clock) now() time.Time {
	if c == nil {
		return time.Now()
	}
	return c()
}

// Observer bundles the telemetry sinks for one query-execution subsystem.
// Fields may be nil individually (each sink is nil-safe); Disabled is the
// all-nil instance.
type Observer struct {
	// Clock is the time source for latency measurements and trace spans.
	// Nil means time.Now.
	Clock Clock

	// QueryLatency observes end-to-end executor latency per query, in
	// seconds (cache hits included).
	QueryLatency *Histogram
	// SolveLatency observes the wall time of each engine solve, in
	// seconds.
	SolveLatency *Histogram
	// QueueWait observes the time each solved query spent in the admission
	// queue before a worker picked it up, in seconds.
	QueueWait *Histogram
	// Iterations observes the iterative Schur solver's iteration count per
	// solved query.
	Iterations *Histogram
	// Residual observes the solver's final relative residual per solved
	// query.
	Residual *Histogram
	// SchurApply observes the wall time of each application of the solve's
	// operator (core.KernelSchur), in seconds — the dominant per-iteration
	// kernel.
	SchurApply *Histogram
	// PrecondApply observes the wall time of each preconditioner sweep
	// outside that operator (core.KernelPrecond), in seconds.
	PrecondApply *Histogram
	// TopKSaved observes, for each early-stopped bounded top-k solve, the
	// estimated number of Schur iterations the certificate avoided — the
	// direct measure of what bound pruning buys per query.
	TopKSaved *Histogram
	// Rebuild observes the wall time of each background index rebuild
	// (graph construction + full BePI preprocessing) on the dynamic-update
	// path, in seconds. Queries are expected to keep completing while
	// these run; compare its quantiles against QueryLatency's to verify
	// rebuilds never show up as query stalls.
	Rebuild *Histogram

	// KernelBytes accumulates the bytes each observed kernel application
	// streams (matrix arrays plus vectors), so bandwidth pressure is
	// visible as a rate alongside the time histograms.
	KernelBytes atomic.Int64

	// KernelNanos accumulates the wall time of those same kernel
	// applications. Pairing it with KernelBytes makes the achieved memory
	// bandwidth (bytes over seconds) derivable at scrape time, locally or
	// across fleet-merged snapshots, and comparable against the machine's
	// measured STREAM roof (see Kernel).
	KernelNanos atomic.Int64

	// SolverIters counts solver iterations as they happen (incremented from
	// the solver's per-iteration hook), so convergence progress of long
	// solves is visible between queries.
	SolverIters atomic.Int64

	// Tracer records per-query stage spans into a bounded ring buffer.
	Tracer *Tracer
	// SlowLog logs queries slower than its threshold through log/slog.
	SlowLog *SlowLog
	// Events is the always-on flight recorder: a bounded ring of
	// structured operational events (engine swaps, admission rejections,
	// shard ejections, retries) served at GET /debug/events and correlated
	// with traces by trace ID.
	Events *EventLog
}

// Disabled is an observer with every sink turned off. Pass it where a nil
// Observer would select the defaults instead.
var Disabled = &Observer{}

// Options configures New. Zero values select the defaults.
type Options struct {
	// Clock overrides the time source (nil = time.Now).
	Clock Clock
	// TraceCapacity bounds the trace ring buffer; default 256, negative
	// disables tracing.
	TraceCapacity int
	// TraceSample traces every TraceSample-th query; default 1 (all).
	TraceSample int
	// EventCapacity bounds the flight-recorder ring; default
	// DefaultEventCapacity, negative disables the recorder.
	EventCapacity int
	// SlowQuery, when positive, enables the slow-query log at that
	// threshold.
	SlowQuery time.Duration
	// Logger receives slow-query records; default slog.Default().
	Logger *slog.Logger
}

// histogramFamilies is the observer's histogram set, one row per family:
// its Observer field, Prometheus help text and bucket layout. New builds
// the histograms from it (each named by its family), and the shard's metric
// table reads them through it. A merged family is only meaningful because
// every process builds it over the identical bucket layout.
var histogramFamilies = []struct {
	name, help string
	buckets    func() []float64
	field      func(*Observer) **Histogram
}{
	{FamilyQueryLatency, "End-to-end executor latency per query.", LatencyBuckets,
		func(o *Observer) **Histogram { return &o.QueryLatency }},
	{FamilySolve, "Wall time of each engine solve.", LatencyBuckets,
		func(o *Observer) **Histogram { return &o.SolveLatency }},
	{FamilyQueueWait, "Admission-queue wait per solved query.", LatencyBuckets,
		func(o *Observer) **Histogram { return &o.QueueWait }},
	{FamilyIterations, "Schur-solver iterations per solved query.", IterationBuckets,
		func(o *Observer) **Histogram { return &o.Iterations }},
	{FamilyResidual, "Final relative residual per solved query.", ResidualBuckets,
		func(o *Observer) **Histogram { return &o.Residual }},
	{FamilySchurApply, "Wall time per application of the solve's operator: the one-pass preconditioned Schur operator, or S itself on unpreconditioned variants.", LatencyBuckets,
		func(o *Observer) **Histogram { return &o.SchurApply }},
	{FamilyPrecondApply, "Wall time per preconditioner sweep outside the operator: the two half-passes of a split solve.", LatencyBuckets,
		func(o *Observer) **Histogram { return &o.PrecondApply }},
	{FamilyTopKSaved, "Estimated solver iterations saved per early-stopped top-k solve.", IterationBuckets,
		func(o *Observer) **Histogram { return &o.TopKSaved }},
	{FamilyRebuild, "Wall time of each background index rebuild.", LatencyBuckets,
		func(o *Observer) **Histogram { return &o.Rebuild }},
}

// New builds a fully wired observer: the standard histograms (including the
// per-kernel ones), a trace ring, and (when Options.SlowQuery is positive) a
// slow-query log.
func New(opts Options) *Observer {
	o := &Observer{Clock: opts.Clock}
	for _, f := range histogramFamilies {
		*f.field(o) = NewHistogram(f.name, f.buckets())
	}
	cap := opts.TraceCapacity
	if cap == 0 {
		cap = 256
	}
	if cap > 0 {
		o.Tracer = NewTracer(cap, opts.TraceSample, opts.Clock)
	}
	if opts.EventCapacity >= 0 {
		o.Events = NewEventLog(opts.EventCapacity, opts.Clock)
	}
	if opts.SlowQuery > 0 {
		o.SlowLog = NewSlowLog(opts.Logger, opts.SlowQuery)
	}
	return o
}

// Now reads the observer's clock (time.Now for a nil observer or clock).
func (o *Observer) Now() time.Time {
	if o == nil {
		return time.Now()
	}
	return o.Clock.now()
}

// Metric is the metric-table row of one of the observer's histogram
// families, at the given /metrics JSON path and merged across the fleet
// under its family name. A histogram the observer does not carry is a row
// without a source.
func (o *Observer) Metric(family, json string) Metric {
	m := Metric{Name: family, Kind: KindHistogram, JSON: json, Snap: family}
	for _, f := range histogramFamilies {
		if f.name != family {
			continue
		}
		m.Help = f.help
		if h := *f.field(o); h != nil {
			m.Hist = h.Snapshot
		}
	}
	return m
}
