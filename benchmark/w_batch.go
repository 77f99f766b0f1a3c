package main

import (
	"bytes"
	"fmt"
	"math"
	"runtime"
	"time"

	"bepi"
	"bepi/internal/core"
	"bepi/internal/sparse"
)

// batch-solve: the paper's Fig. 1c user, an offline job pulling many score
// vectors straight from the library. No cache, no codec, no network.

type batchState struct {
	in  *graphInput
	eng *bepi.Engine
}

const itersSample = 64 // ops whose iteration counts make solver.iters_per_solve

func runBatchSolve(c config) (*result, error) {
	sz := c.sizing()
	res := newResult("batch-solve", c)
	m := res.Metrics
	st, setup, err := medianSetup(sz.setups, func() (batchState, error) {
		in, err := genGraph(sz.bigScale, sz.bigEF, graphSeed)
		if err != nil {
			return batchState{}, err
		}
		eng, err := bepi.New(in.g)
		if err != nil {
			return batchState{}, err
		}
		for _, s := range in.eligible[:3] { // warm the pools and workspaces
			if _, err := eng.Query(s); err != nil {
				return batchState{}, err
			}
		}
		return batchState{in, eng}, nil
	}, func(batchState) {})
	if err != nil {
		return nil, err
	}
	in, eng := st.in, st.eng
	seeds := in.distinctSeeds(opRNG(c.seed, 2))
	h := newOpHash()
	h.graph(in)
	h.ints(seeds...)
	res.WorkloadHash = h.sum()

	untraced, traced, _ := c.passes()
	m.startWindow()
	n := in.g.N()
	kept := make(map[int][]float64) // answers held back for the oracle
	var iters []float64
	probe := seeds[len(seeds)-16:] // never queried by the loops: the layer probes use them
	seeds = seeds[:len(seeds)-16]
	ops, elapsed := closedLoop(1, untraced, len(seeds), func(_, i int) error {
		scores, qs, err := eng.QueryWithStats(seeds[i])
		if err != nil {
			return err
		}
		if !wellFormed(scores, seeds[i], n) {
			return fmt.Errorf("seed %d: malformed score vector", seeds[i])
		}
		if i < oracleChecks {
			kept[i] = scores
		}
		if i < itersSample {
			iters = append(iters, float64(qs.Iterations))
		}
		return nil
	})
	res.account(ops)
	lat := latenciesMS(ops)
	m.set("setup_s", setup.Seconds(), "s")
	m.latency("latency", lat)
	m.setN("throughput_ops_s", float64(len(lat))/elapsed.Seconds(), "ops/s", len(lat))
	m.set("index_bytes", float64(eng.MemoryBytes()), "B")
	m.set("bytes_per_response", float64(8*n), "B")
	m.note("bytes_per_response", "the in-memory score vector")
	m.endWindow()

	for i, scores := range kept {
		res.Attempted++
		if err := checkScores(n, in.edges, seeds[i], scores); err != nil {
			res.fail(err)
		}
	}

	if c.trace {
		rec := newRecorder()
		next := len(ops)
		var stages []core.StageTimings
		var tlat []float64
		tops, _ := closedLoop(1, traced, len(seeds)-next, func(_, i int) error {
			t0 := time.Now()
			_, qs, err := eng.Internal().Query(seeds[next+i])
			t1 := time.Now()
			if err != nil {
				return err
			}
			id := uint64(i + 1)
			rec.add(id, "batch.op", t0, t1)
			rec.addReported(id, "core.permute", qs.Stages.Permute)
			rec.addReported(id, "core.forward", qs.Stages.Forward)
			rec.addReported(id, "solver.solve", qs.Stages.Solve)
			rec.addReported(id, "core.back", qs.Stages.Back)
			stages = append(stages, qs.Stages)
			tlat = append(tlat, ms(t1.Sub(t0)))
			return nil
		})
		res.account(tops)
		m.overhead(lat, tlat)
		m.setN("solver.iters_per_solve", mean(iters), "iters", len(iters))
		solveLayers(m, eng, probe, stages, tlat)
		res.Waterfall, _ = waterfallInto(m, rec, []layerDef{{"batch.op", ""},
			{"core.permute", "batch.op"}, {"core.forward", "batch.op"}, {"solver.solve", "batch.op"}, {"core.back", "batch.op"}})
		if err := rec.write(spanPath(c, res.Workload)); err != nil {
			return nil, err
		}
	}
	res.finish()
	return res, nil
}

func latenciesMS(ops []opResult) []float64 {
	out := make([]float64, 0, len(ops))
	for _, o := range ops {
		if !o.failed() {
			out = append(out, ms(o.Latency))
		}
	}
	return out
}

// timeReps runs f reps times after a short warm-up and returns the median
// duration.
func timeReps(reps int, f func()) time.Duration {
	for i := 0; i < 3; i++ {
		f()
	}
	xs := make([]float64, reps)
	for i := range xs {
		t0 := time.Now()
		f()
		xs[i] = float64(time.Since(t0))
	}
	return time.Duration(median(sorted(xs)))
}

// stageMetrics records the medians of the engine's reported stage times —
// core.permute_us, core.forward_us, core.back_us, solver.solve_ms — and
// returns the last, in ms.
func stageMetrics(m metrics, stages []core.StageTimings) (solveMS float64) {
	for _, st := range []struct {
		name, unit string
		f          func(core.StageTimings) time.Duration
	}{
		{"core.permute_us", "us", func(s core.StageTimings) time.Duration { return s.Permute }},
		{"core.forward_us", "us", func(s core.StageTimings) time.Duration { return s.Forward }},
		{"core.back_us", "us", func(s core.StageTimings) time.Duration { return s.Back }},
		{"solver.solve_ms", "ms", func(s core.StageTimings) time.Duration { return s.Solve }},
	} {
		xs := make([]float64, len(stages))
		for i, sg := range stages {
			if xs[i] = us(st.f(sg)); st.unit == "ms" {
				xs[i] /= 1e3
			}
		}
		solveMS = median(sorted(xs))
		m.setN(st.name, solveMS, st.unit, len(xs))
		m.note(st.name, "reported")
	}
	return solveMS
}

// solveLayers fills the per-layer metrics of the query path from the traced
// pass's reported stage times and from isolated kernel timings on the same
// engine. probe are seeds the run has not queried.
func solveLayers(m metrics, be *bepi.Engine, probe []int, stages []core.StageTimings, queryMS []float64) {
	eng := be.Internal()
	m.setN("core.query_ms", median(sorted(queryMS)), "ms", len(queryMS))
	solveMS := stageMetrics(m, stages)

	// Isolated kernels on the served layout, with the engine's own pool.
	ps := eng.PrepStats()
	m.set("par.workers", float64(ps.Workers), "count")
	m.set("reorder.hub_share", float64(ps.N2)/float64(ps.N), "ratio")
	sc := sparse.Compact(eng.Schur()).SetPool(eng.Pool())
	x := make([]float64, sc.Cols())
	y := make([]float64, sc.Rows())
	for i := range x {
		x[i] = 1 / float64(i+1)
	}
	mul := timeReps(40, func() { sc.MulVec(y, x) })
	bytesPerApply := float64(sc.MemoryBytes()) + 8*float64(sc.Rows()+sc.Cols())
	const gib = 1 << 30
	mulGiBs := bytesPerApply / mul.Seconds() / gib
	stream := sparse.StreamBandwidth() / gib
	m.set("sparse.schur_mulvec_us", us(mul), "us")
	m.set("sparse.schur_nnz", float64(sc.NNZ()), "count")
	m.set("sparse.bytes_per_apply", bytesPerApply, "B")
	m.note("sparse.bytes_per_apply", "computed from array sizes")
	m.set("sparse.schur_mulvec_gibs", mulGiBs, "GiB/s")
	m.note("sparse.schur_mulvec_gibs", "computed bytes over measured time")
	m.set("sparse.stream_gibs", stream, "GiB/s")
	if stream > 0 {
		m.set("sparse.roof_share", mulGiBs/stream, "ratio")
	}
	var ilu time.Duration
	if f := eng.ILU(); f != nil {
		ilu = timeReps(40, func() { f.Apply(y, x) })
		m.set("lu.ilu_apply_us", us(ilu), "us")
		m.set("lu.ilu_nnz", float64(f.NNZ()), "count")
		m.set("lu.ilu_apply_gibs", (float64(f.MemoryBytes())+16*float64(f.N()))/ilu.Seconds()/gib, "GiB/s")
		m.note("lu.ilu_apply_gibs", "computed bytes over measured time")
	}
	// What the solve spends outside its two kernels: orthogonalisation,
	// norms, the small least-squares update.
	if it, ok := m["solver.iters_per_solve"]; ok {
		m.set("solver.orth_self_ms", solveMS-it.Value*(ms(mul)+ms(ilu)), "ms")
	}

	// Allocation per query and the cost of ranking a dense vector.
	var before, after runtime.MemStats
	var scores []float64
	runtime.ReadMemStats(&before)
	for _, s := range probe[:8] {
		scores, _, _ = eng.Query(s)
	}
	runtime.ReadMemStats(&after)
	m.set("core.allocs_per_query", float64(after.Mallocs-before.Mallocs)/8, "count")
	m.set("core.alloc_bytes_per_query", float64(after.TotalAlloc-before.TotalAlloc)/8, "B")
	if scores != nil {
		m.set("core.rank_us", us(timeReps(20, func() { core.RankTopK(scores, topK, probe[7]) })), "us")
	}

	// Parallel speed-up of a solve against the same engine on one thread.
	var buf bytes.Buffer
	if err := be.Save(&buf); err == nil {
		if serial, err := bepi.Load(&buf); err == nil {
			serial.SetParallelism(1)
			timeQ := func(e *bepi.Engine) float64 {
				xs := make([]float64, 0, 8)
				for _, s := range probe[8:16] {
					t0 := time.Now()
					_, _ = e.Query(s) // timing only: a failing query would have failed the loops above
					xs = append(xs, ms(time.Since(t0)))
				}
				return median(sorted(xs))
			}
			if p := timeQ(be); p > 0 && !math.IsNaN(p) {
				m.set("par.solve_speedup", timeQ(serial)/p, "ratio")
			}
		}
	}
}
