package main

import (
	"fmt"
	"time"
)

// config is one run's settings. Everything else — graph sizes, client
// counts, rates, batch sizes — is frozen below so that two commits do the
// same work.
type config struct {
	seed   int64         // drives query seeds, hot set, request mix and edge deltas
	window time.Duration // how long the run measures (-seconds)
	trace  bool
	quick  bool   // smoke sizes: tiny graphs, one set-up
	outDir string // where a traced run writes its spans
}

// Frozen workload parameters.
const (
	smallScale, smallEF = 15, 14 // n = 32 768, m ≈ 0.51 M: index-build, serving, update-stream
	bigScale, bigEF     = 16, 22 // n = 65 536, m ≈ 1.4 M: batch-solve; index ≈ 56 MB ≥ 4× the 2×4 MiB L2
	quickScale, quickEF = 10, 8
	// The graphs do not change with -seed: re-drawing them per seed spread
	// index_bytes by 3.6% and median latencies by up to 20% across ten seeds,
	// input variation that would swamp every bound.
	graphSeed    = 1
	setupRepeats = 3 // set-ups per run; setup_s is their median

	topK         = 10
	hotSetSize   = 64  // fits every shard's default 1024-entry cache
	hotShare     = 0.9 // of serve-hot requests
	sloLimitMS   = 50  // serve-hot: p95 limit a rate must meet
	lateLimitMS  = 2   // serve-hot: generator lateness p99 above which a rate's latencies are flagged
	leafBatch    = 64  // edge ops per leaf batch, half insert half delete
	hubBatch     = 4   // edge ops per hub batch
	deltaBatchN  = 256 // batches generated per class; a run never needs more
	modeSample   = 16  // update-stream: flushes whose rebuild modes are counted (8 per class); a slow run still reaches them
	ladderSeeds  = 20  // serving: seeds the boundary ladder drives at each of its six rungs
	oracleChecks = 2   // answers per workload compared with the oracle
)

// serve-hot's ladder of offered rates, geometric so that a quantised
// slo_rate_rps rarely flips between runs. The top rate is near what two
// connections can carry, so latency rises along the ladder.
var hotRates = []float64{25, 50, 100}

type sizing struct {
	scale, ef       int
	bigScale, bigEF int
	setups          int
}

func (c config) sizing() sizing {
	if c.quick {
		return sizing{quickScale, quickEF, quickScale, quickEF, 1}
	}
	return sizing{smallScale, smallEF, bigScale, bigEF, setupRepeats}
}

// passes splits the measured window. An untraced run spends all of it on
// the workload. A traced run measures the workload untraced for half of it
// (those numbers feed the metrics that are defined on the untraced system),
// traced for a quarter, and leaves the rest to layer probes, most of which
// do a fixed amount of work so that their counts repeat exactly.
func (c config) passes() (untraced, traced, probes time.Duration) {
	if !c.trace {
		return c.window, 0, 0
	}
	return c.window / 2, c.window / 4, c.window / 4
}

type workloadDef struct {
	name string
	why  string
	run  func(config) (*result, error)
}

var workloads = []workloadDef{
	{"index-build", "closed loop, 1 client: bepi.New + Save + Load on a scale-15 graph; reorder, lu and core do all the work as writers, solver and serving none", runIndexBuild},
	{"batch-solve", "closed loop, 1 client: Engine.QueryWithStats over distinct seeds on a scale-16 index of 56 MB (7x the L2); solver, sparse and lu kernels are 2/3 of each op", runBatchSolve},
	{"serve-hot", "open loop at 25/50/100 rps over 2 connections: top-10 via coordinator and 2 shards over loopback HTTP, 90% of seeds from a 64-seed hot set; qexec, cluster and server paths", runServeHot},
	{"serve-miss-full", "closed loop, 2 clients: full score vectors (540 KB of JSON each) over the same HTTP stack, all seeds distinct so the cache is bypassed; O(n) permute, JSON codec and transport dominate", runServeMissFull},
	{"update-stream", "closed loop, 1 writer + 1 reader on bepi.Dynamic: alternating 64-op leaf and 4-op hub batches each flushed, beside Dynamic.TopK reads; delta rebuilds compete with reads", runUpdateStream},
}

func findWorkload(name string) (workloadDef, error) {
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
	}
	return workloadDef{}, fmt.Errorf("unknown workload %q", name)
}

func newResult(name string, c config) *result {
	return &result{Workload: name, Seed: c.seed, Seconds: c.window.Seconds(), Trace: c.trace, Metrics: metrics{}}
}

// overhead sets trace.overhead_share = traced p50 ÷ untraced p50 − 1.
func (m metrics) overhead(untracedMS, tracedMS []float64) {
	u, t := median(sorted(untracedMS)), median(sorted(tracedMS))
	if u > 0 && len(tracedMS) > 0 {
		m.setN("trace.overhead_share", t/u-1, "ratio", len(tracedMS))
	}
}
