package main

import (
	"bytes"
	"context"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"bepi"
	"bepi/internal/cluster"
	"bepi/internal/core"
	"bepi/internal/qexec"
	"bepi/internal/server"
)

// The two serving workloads drive the same stack differently. serve-hot is
// the online user: an open loop of top-10 requests, most of them for a small
// hot set, so the cache, coalescing, routing and the codec of small bodies
// carry it. serve-miss-full is a pipeline that waits for each full score
// vector: every request is a miss and returns ≈ 540 KB of JSON, so the O(n)
// vector work, encode, decode and transport carry it.

type serveState struct {
	in    *graphInput
	eng   *bepi.Engine // the built engine: the library reference for answers
	index []byte
	st    *stack
}

func (s serveState) close() {
	if s.st != nil {
		s.st.close()
	}
}

// setupServe generates the graph, builds and saves the index, starts the
// stack and warms it with the given seeds.
func setupServe(sz sizing, full bool, warm func(*graphInput) []int) (serveState, error) {
	in, err := genGraph(sz.scale, sz.ef, graphSeed)
	if err != nil {
		return serveState{}, err
	}
	eng, err := bepi.New(in.g)
	if err != nil {
		return serveState{}, err
	}
	var buf bytes.Buffer
	if err := eng.Save(&buf); err != nil {
		return serveState{}, err
	}
	s := serveState{in: in, eng: eng, index: buf.Bytes()}
	if s.st, err = newStack(s.index, nil); err != nil {
		return serveState{}, err
	}
	cl := newClient(s.st, in.g.N(), full, nil)
	for _, w := range warm(in) {
		if _, err := cl.query(w); err != nil {
			s.close()
			return serveState{}, fmt.Errorf("warm-up: %w", err)
		}
	}
	return s, nil
}

// client is the load generator's view of the coordinator endpoint.
type client struct {
	st   *stack
	n    int
	full bool
	rec  *recorder

	nextID  atomic.Uint64
	bytes   atomic.Int64
	replies atomic.Int64
	early   atomic.Int64
	affine  atomic.Int64
}

func newClient(st *stack, n int, full bool, rec *recorder) *client {
	return &client{st: st, n: n, full: full, rec: rec}
}

// query sends one request through the coordinator and checks the reply's
// shape. Answers are checked against the oracle separately, on a sample.
func (c *client) query(seed int) (cluster.Partial, error) {
	var id uint64
	if c.rec != nil {
		id = c.nextID.Add(1)
	}
	var p cluster.Partial
	t0 := time.Now()
	n, err := httpGet(c.st.client, "http://"+c.st.coordAddr+queryPath(seed, c.full, false), id, &p)
	if err != nil {
		return p, err
	}
	if c.rec != nil {
		c.rec.add(id, layerClient, t0, time.Now())
		c.rec.addReported(id, layerCore, time.Duration(p.DurationMS*float64(time.Millisecond)))
	}
	c.bytes.Add(int64(n))
	c.replies.Add(1)
	if p.EarlyStopped {
		c.early.Add(1)
	}
	if p.Replica == c.st.coord.Ring().Owner(seed) {
		c.affine.Add(1)
	}
	return p, checkShape(p, seed, c.n, c.full)
}

// checkShape validates what can be validated on every reply without the
// oracle.
func checkShape(p cluster.Partial, seed, n int, full bool) error {
	if p.Seed != seed {
		return fmt.Errorf("reply for seed %d, asked for %d", p.Seed, seed)
	}
	if full {
		if !wellFormed(p.Scores, seed, n) {
			return fmt.Errorf("seed %d: malformed score vector (%d entries)", seed, len(p.Scores))
		}
		return nil
	}
	if len(p.Top) == 0 || len(p.Top) > topK {
		return fmt.Errorf("seed %d: %d ranked entries", seed, len(p.Top))
	}
	seen := make(map[int]bool, len(p.Top))
	for i, e := range p.Top {
		if e.Node == seed || seen[e.Node] || (i > 0 && e.Score > p.Top[i-1].Score) {
			return fmt.Errorf("seed %d: ranking is not a descending list of distinct other nodes", seed)
		}
		seen[e.Node] = true
	}
	return nil
}

func topNodes(p cluster.Partial) []int {
	out := make([]int, len(p.Top))
	for i, e := range p.Top {
		out[i] = e.Node
	}
	return out
}

// rateStep is one step of the open-loop ladder.
type rateStep struct {
	RPS         float64 `json:"rps"`
	Sent        int     `json:"sent"`
	Failed      int     `json:"failed"`
	P50MS       float64 `json:"p50_ms"`
	P95MS       float64 `json:"p95_ms"`
	LateP99MS   float64 `json:"late_p99_ms"`
	InflightMax int     `json:"inflight_max"`
	Backlog     bool    `json:"backlog_growing"`
	Trusted     bool    `json:"trusted"` // generator kept to its schedule when connections were free
	MeetsSLO    bool    `json:"meets_slo"`
	latencies   []float64
}

// hotStep offers seeds at rps over two connections and summarises the step.
func hotStep(res *result, cl *client, rps float64, dur time.Duration, seeds []int, onReply func(seed int, p cluster.Partial)) rateStep {
	due := fixedSchedule(rps, dur)[:len(seeds)]
	// Requests still unsent a grace period after the step's last due time
	// are failures.
	ops, inflight := openLoop(realClock{}, 2, due, dur+max(dur/4, time.Second), func(i int) error {
		p, err := cl.query(seeds[i])
		if err == nil {
			onReply(seeds[i], p)
		}
		return err
	})
	res.account(ops)
	st := rateStep{RPS: rps, InflightMax: inflight}
	var late []float64
	for _, o := range ops {
		if o.failed() {
			st.Failed++
		}
		if o.Sent {
			st.Sent++
			late = append(late, ms(o.Late))
		}
	}
	st.latencies = latenciesMS(ops)
	s := sorted(st.latencies)
	st.P50MS = median(s)
	// The step's own p95 decides the SLO even when too few samples lie
	// beyond it to report it as a latency metric.
	st.P95MS, _ = nearestRank(s, 0.95)
	st.LateP99MS, _ = nearestRank(sorted(late), 0.99) // a health flag, not a reported latency: no sample minimum
	// A backlog grows when requests at the end of the step start later,
	// relative to their due time, than those at its beginning.
	if k := len(late) / 5; k > 0 {
		st.Backlog = median(sorted(late[len(late)-k:]))-median(sorted(late[:k])) > sloLimitMS/2
	}
	// The sleeping generator wakes up to ≈ 1.5 ms late on this box. Beyond
	// lateLimitMS, requests also waited for one of the two connections, so
	// the step's latencies include generator-side queueing and are flagged.
	st.Trusted = st.LateP99MS <= lateLimitMS
	st.MeetsSLO = st.P95MS > 0 && st.P95MS <= sloLimitMS && !st.Backlog && st.Failed == 0
	return st
}

func runServeHot(c config) (*result, error) {
	sz := c.sizing()
	res := newResult("serve-hot", c)
	m := res.Metrics
	hotOf := func(in *graphInput) []int { return in.distinctSeeds(opRNG(c.seed, 3))[:hotSetSize] }
	s, setup, err := medianSetup(sz.setups,
		func() (serveState, error) { return setupServe(sz, false, hotOf) },
		serveState.close)
	if err != nil {
		return nil, err
	}
	defer s.close()
	in := s.in
	hot := hotOf(in)
	untraced, traced, _ := c.passes()
	stepDur := untraced / time.Duration(len(hotRates))
	rng := opRNG(c.seed, 4)
	h := newOpHash()
	h.graph(in)
	stepSeeds := make([][]int, len(hotRates))
	for i, r := range hotRates {
		stepSeeds[i] = in.hotMix(rng, hot, hotShare, len(fixedSchedule(r, stepDur)))
		h.ints(stepSeeds[i]...)
	}
	tracedSeeds := in.hotMix(rng, hot, hotShare, len(fixedSchedule(hotRates[1], traced)))
	h.ints(tracedSeeds...)
	ladder := in.hotMix(opRNG(c.seed, 9), hot, hotShare, ladderSeeds)
	h.ints(ladder...)
	res.WorkloadHash = h.sum()

	// A fixed sample of replies is held back for the oracle: the first
	// distinct seeds answered.
	var mu sync.Mutex
	sample := make(map[int][]int)
	keep := func(seed int, p cluster.Partial) {
		mu.Lock()
		if _, ok := sample[seed]; !ok && len(sample) < oracleChecks {
			sample[seed] = topNodes(p)
		}
		mu.Unlock()
	}

	m.startWindow()
	cl := newClient(s.st, in.g.N(), false, nil)
	before := s.st.qexecMetrics()
	var completed int
	t0 := time.Now()
	for i, r := range hotRates {
		st := hotStep(res, cl, r, stepDur, stepSeeds[i], keep)
		res.Steps = append(res.Steps, st)
		completed += len(st.latencies)
	}
	elapsed := time.Since(t0)
	mid := res.Steps[1]
	m.set("setup_s", setup.Seconds(), "s")
	m.latency("latency", mid.latencies)
	m.note("latency_p50_ms", fmt.Sprintf("from due time, at %.0f rps", mid.RPS))
	m.setN("throughput_ops_s", float64(completed)/elapsed.Seconds(), "ops/s", completed)
	m.note("throughput_ops_s", "open loop: the achieved share of the offered ladder")
	m.set("index_bytes", float64(s.eng.MemoryBytes()), "B")
	m.setN("bytes_per_response", float64(cl.bytes.Load())/float64(max(cl.replies.Load(), 1)), "B", int(cl.replies.Load()))
	m.endWindow()
	slo := 0.0
	for _, st := range res.Steps {
		if st.MeetsSLO {
			slo = st.RPS
		}
	}
	m.set("slo_rate_rps", slo, "rps")
	m.note("slo_rate_rps", fmt.Sprintf("highest of %v rps with p95 <= %d ms, no growing backlog, no failures", hotRates, sloLimitMS))
	top := res.Steps[len(res.Steps)-1]
	m.setN("loadgen.sent", float64(res.Attempted), "count", res.Attempted)
	m.set("loadgen.late_p99_ms", top.LateP99MS, "ms")
	m.note("loadgen.late_p99_ms", fmt.Sprintf("at the top rate, %.0f rps", top.RPS))
	m.set("loadgen.inflight_max", float64(top.InflightMax), "count")
	servingCounters(m, s.st, cl, before)

	for seed, nodes := range sample {
		res.Attempted++
		if err := checkTopK(in.g.N(), in.edges, seed, topK, nodes); err != nil {
			res.fail(err)
		}
	}

	if c.trace {
		rec := newRecorder()
		ts, err := newStack(s.index, rec)
		if err != nil {
			return nil, err
		}
		warm := newClient(ts, in.g.N(), false, nil) // untagged requests: the warm-up leaves no spans
		for _, w := range hot {
			if _, err := warm.query(w); err != nil {
				ts.close()
				return nil, fmt.Errorf("traced stack warm-up: %w", err)
			}
		}
		tcl := newClient(ts, in.g.N(), false, rec)
		st := hotStep(res, tcl, hotRates[1], traced, tracedSeeds, func(int, cluster.Partial) {})
		m.overhead(mid.latencies, st.latencies)
		res.Waterfall = servingLayers(m, rec, ts)
		ts.close()
		res.Ladder = boundaryLadder(m, s, ladder, false)
		if err := rec.write(spanPath(c, res.Workload)); err != nil {
			return nil, err
		}
	}
	res.finish()
	return res, nil
}

func runServeMissFull(c config) (*result, error) {
	sz := c.sizing()
	res := newResult("serve-miss-full", c)
	m := res.Metrics
	seedsOf := func(in *graphInput) []int { return in.distinctSeeds(opRNG(c.seed, 5)) }
	// The far end of the sequence is held back from the loops: its last four
	// seeds warm the stack up (connections open, first-query set-up done on
	// both shards), the ladderSeeds before them drive the boundary ladder.
	const warmSeeds = 4
	warm := func(in *graphInput) []int { s := seedsOf(in); return s[len(s)-warmSeeds:] }
	s, setup, err := medianSetup(sz.setups,
		func() (serveState, error) { return setupServe(sz, true, warm) },
		serveState.close)
	if err != nil {
		return nil, err
	}
	defer s.close()
	in := s.in
	seeds := seedsOf(in)
	h := newOpHash()
	h.graph(in)
	h.ints(seeds...)
	res.WorkloadHash = h.sum()
	untraced, traced, _ := c.passes()
	usable := max(len(seeds)-warmSeeds-ladderSeeds, 0)
	ladder := seeds[usable : len(seeds)-warmSeeds]

	var mu sync.Mutex
	sample := make(map[int][]float64) // replies held back for answer checks
	m.startWindow()
	cl := newClient(s.st, in.g.N(), true, nil)
	before := s.st.qexecMetrics()
	ops, elapsed := closedLoop(2, untraced, usable, func(_, i int) error {
		p, err := cl.query(seeds[i])
		if err == nil && i < 2*oracleChecks {
			mu.Lock()
			sample[seeds[i]] = p.Scores
			mu.Unlock()
		}
		return err
	})
	res.account(ops)
	lat := latenciesMS(ops)
	m.set("setup_s", setup.Seconds(), "s")
	m.latency("latency", lat)
	m.setN("throughput_ops_s", float64(len(lat))/elapsed.Seconds(), "ops/s", len(lat))
	m.set("index_bytes", float64(s.eng.MemoryBytes()), "B")
	m.setN("bytes_per_response", float64(cl.bytes.Load())/float64(max(cl.replies.Load(), 1)), "B", int(cl.replies.Load()))
	m.endWindow()
	m.setN("loadgen.sent", float64(len(ops)), "count", len(ops))
	m.set("loadgen.inflight_max", 2, "count")
	servingCounters(m, s.st, cl, before)

	// Every sampled HTTP body must carry exactly the library's vector, and
	// the first of them must agree with the oracle.
	checked := 0
	for seed, got := range sample {
		res.Attempted++
		want, err := s.eng.Query(seed)
		if err == nil && l1(got, want) != 0 {
			err = fmt.Errorf("seed %d: HTTP body differs from the library vector (L1 %.3g)", seed, l1(got, want))
		}
		if err == nil && checked < oracleChecks {
			err = checkScores(in.g.N(), in.edges, seed, got)
			checked++
		}
		if err != nil {
			res.fail(err)
		}
	}

	if c.trace {
		rec := newRecorder()
		ts, err := newStack(s.index, rec)
		if err != nil {
			return nil, err
		}
		tcl := newClient(ts, in.g.N(), true, rec)
		next := len(ops)
		tops, _ := closedLoop(2, traced, usable-next, func(_, i int) error {
			_, err := tcl.query(seeds[next+i])
			return err
		})
		res.account(tops)
		m.overhead(lat, latenciesMS(tops))
		res.Waterfall = servingLayers(m, rec, ts)
		ts.close()
		res.Ladder = boundaryLadder(m, s, ladder, true)
		if err := rec.write(spanPath(c, res.Workload)); err != nil {
			return nil, err
		}
	}
	res.finish()
	return res, nil
}

// servingCounters fills the counters the stack's layers keep about
// themselves, over the measured window.
func servingCounters(m metrics, st *stack, cl *client, before qexec.Metrics) {
	d := st.qexecMetrics().Delta(before)
	m.set("qexec.hit_rate", d.HitRate(), "ratio")
	if total := d.CacheHits + d.CacheMisses; total > 0 {
		m.set("qexec.coalesced_share", float64(d.Coalesced)/float64(total), "ratio")
	}
	m.set("qexec.avg_batch", d.AvgBatchSize(), "count")
	m.set("qexec.shed", float64(d.Shed), "count")
	var wait float64
	for _, sh := range st.shards {
		if w := sh.srv.Executor().Observer().QueueWait.Snapshot().Quantile(0.95); w > wait {
			wait = w
		}
	}
	m.set("qexec.queue_wait_p95_ms", wait*1e3, "ms")
	m.note("qexec.queue_wait_p95_ms", "reported: histogram bucket bound, worst shard, warm-up included")
	if n := cl.replies.Load(); n > 0 {
		m.setN("solver.early_stop_share", float64(cl.early.Load())/float64(n), "ratio", int(n))
		m.setN("cluster.affinity_share", float64(cl.affine.Load())/float64(n), "ratio", int(n))
	}
	var retries, routed, most int64
	for _, r := range st.coord.Replicas() {
		retries += r.Retries
		routed += r.Routed
		if r.Routed > most {
			most = r.Routed
		}
	}
	m.set("cluster.retries", float64(retries), "count")
	if routed > 0 {
		m.set("cluster.shard_imbalance", float64(most)*float64(len(st.shards))/float64(routed)-1, "ratio")
		m.note("cluster.shard_imbalance", "busiest shard's requests over the mean, minus 1; warm-up included")
	}
}

// servingLayers turns the traced pass's nested spans into per-layer metrics
// and the waterfall.
func servingLayers(m metrics, rec *recorder, ts *stack) []waterfallRow {
	rows, layers := waterfallInto(m, rec, servingWaterfall)
	put := func(name, layer string, self bool, note string) {
		lt := layers[layer]
		if len(lt.total) == 0 {
			return
		}
		xs := lt.total
		if self {
			xs = lt.self
		}
		m.setN(name, median(sorted(xs)), "ms", len(xs))
		if note != "" {
			m.note(name, note)
		}
	}
	put("loadgen.client_self_ms", layerClient, true, "client span minus coordinator handler span: client-side HTTP, loopback, JSON decode")
	put("cluster.http_ms", layerCoord, false, "")
	put("cluster.route_self_ms", layerCoord, true, "coordinator handler span minus backend-call span")
	put("cluster.backend_call_ms", layerBackend, false, "")
	put("cluster.transport_self_ms", layerBackend, true, "backend-call span minus shard handler span")
	put("server.http_ms", layerShard, false, "")
	put("server.codec_self_ms", layerShard, true, "shard handler span minus the reported duration_ms")
	put("server.core_query_ms", layerCore, false, "reported: the response's duration_ms")
	var bytes, resps int64
	for _, sh := range ts.shards {
		bytes += sh.bytes.Load()
		resps += sh.resps.Load()
	}
	if resps > 0 {
		m.setN("server.resp_bytes", float64(bytes)/float64(resps), "B", int(resps))
	}
	return rows
}

// ladderRung is one boundary of the shard-side ladder.
type ladderRung struct {
	Boundary string  `json:"boundary"`
	MedianMS float64 `json:"median_ms"`
	SelfMS   float64 `json:"self_ms"` // this rung's median minus the one below
	N        int     `json:"n"`
}

// boundaryLadder drives one seed sequence single-client at each boundary of
// the stack, from the bare engine up to the coordinator's HTTP endpoint.
// Every rung has its own engines and caches, and the rungs take turns seed
// by seed so that a drift of the host hits them alike. A layer's self time
// is the difference of adjacent medians. It also records the engine-level
// stage times and iteration counts the bottom rung reports. The seeds are a
// function of the run's seed alone — never of how far the timed loops got —
// so solver.iters_per_solve repeats exactly.
func boundaryLadder(m metrics, s serveState, seeds []int, full bool) []ladderRung {
	ctx := context.Background()
	var stages []core.StageTimings
	var iters []float64
	type rung struct {
		name  string
		op    func(seed int) error
		close func()
		lat   []float64
	}
	var rungs []*rung
	defer func() {
		for _, r := range rungs {
			r.close()
		}
	}()
	load := func() (*bepi.Engine, error) { return bepi.Load(bytes.NewReader(s.index)) }

	// Rung 0: the engine itself.
	eng, err := load()
	if err != nil {
		return nil
	}
	rungs = append(rungs, &rung{name: "core.Engine", close: func() {}, op: func(seed int) error {
		var qs core.QueryStats
		var err error
		if full {
			_, qs, err = eng.Internal().Query(seed)
		} else {
			var ts core.TopKStats
			_, ts, err = eng.Internal().TopKBounded(seed, topK)
			qs = ts.QueryStats
		}
		stages = append(stages, qs.Stages)
		iters = append(iters, float64(qs.Iterations))
		return err
	}})
	// Rung 1: the executor (cache, singleflight, batching, admission).
	xeng, err := load()
	if err != nil {
		return nil
	}
	x := qexec.New(xeng.Internal(), qexec.Config{})
	rungs = append(rungs, &rung{name: "qexec.Executor", close: x.Close, op: func(seed int) error {
		var err error
		if full {
			_, err = x.Query(ctx, seed)
		} else {
			_, _, err = x.TopK(ctx, seed, topK)
		}
		return err
	}})
	// Rung 2: the transport-agnostic serving core.
	ceng, err := load()
	if err != nil {
		return nil
	}
	sc := server.NewCore(ceng, qexec.Config{})
	rungs = append(rungs, &rung{name: "server.Core.Query", close: sc.Close, op: func(seed int) error {
		_, err := sc.Query(ctx, server.QueryRequest{Seed: seed, TopK: topK, Full: full})
		return err
	}})
	// Rungs 3–5: over HTTP to a shard, through the coordinator in process,
	// and over HTTP to the coordinator; a stack each.
	for _, r := range []struct {
		name string
		op   func(st *stack, seed int) error
	}{
		{"shard HTTP", func(st *stack, seed int) error {
			var resp server.QueryResponse
			_, err := httpGet(st.client, "http://"+st.shards[0].addr+queryPath(seed, full, true), 0, &resp)
			return err
		}},
		{"cluster.Coordinator.Query", func(st *stack, seed int) error {
			_, err := st.coord.Query(ctx, seed, topK, full)
			return err
		}},
		{"coordinator HTTP", func(st *stack, seed int) error {
			var p cluster.Partial
			_, err := httpGet(st.client, "http://"+st.coordAddr+queryPath(seed, full, false), 0, &p)
			return err
		}},
	} {
		st, err := newStack(s.index, nil)
		if err != nil {
			return nil
		}
		rungs = append(rungs, &rung{name: r.name, close: st.close, op: func(seed int) error { return r.op(st, seed) }})
	}

	for _, seed := range seeds {
		for _, r := range rungs {
			t0 := time.Now()
			if err := r.op(seed); err == nil {
				r.lat = append(r.lat, ms(time.Since(t0)))
			}
		}
	}
	out := make([]ladderRung, len(rungs))
	for i, r := range rungs {
		out[i] = ladderRung{Boundary: r.name, MedianMS: median(sorted(r.lat)), N: len(r.lat)}
		out[i].SelfMS = out[i].MedianMS
		if i > 0 {
			out[i].SelfMS -= out[i-1].MedianMS
		}
	}

	m.setN("core.query_ms", out[0].MedianMS, "ms", out[0].N)
	m.setN("solver.iters_per_solve", mean(iters), "iters", len(iters))
	stageMetrics(m, stages)
	m.setN("qexec.self_ms", out[1].SelfMS, "ms", out[1].N)
	m.note("qexec.self_ms", "boundary ladder: qexec.Executor median minus core.Engine median")
	return out
}
