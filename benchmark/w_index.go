package main

import (
	"bytes"
	"fmt"
	"time"

	"bepi"
	"bepi/internal/core"
	"bepi/internal/lu"
	"bepi/internal/reorder"
	"bepi/internal/sparse"
)

// index-build: the paper's Fig. 1a/1b user. One op preprocesses the graph,
// saves the index to a memory buffer and loads it back.

type buildOp struct {
	total, build, save, load time.Duration
	prep                     core.PrepStats
}

// buildLoop runs build ops back to back for window. It returns the ops, the
// last built and last loaded engine, and the saved index.
func buildLoop(res *result, in *graphInput, window time.Duration, rec *recorder, reqBase uint64) (ops []buildOp, built, loaded *bepi.Engine, index []byte) {
	start := time.Now()
	for i := 0; time.Since(start) < window; i++ {
		res.Attempted++
		var buf bytes.Buffer
		t0 := time.Now()
		eng, err := bepi.New(in.g)
		t1 := time.Now()
		if err == nil {
			err = eng.Save(&buf)
		}
		t2 := time.Now()
		var back *bepi.Engine
		if err == nil {
			back, err = bepi.Load(bytes.NewReader(buf.Bytes()))
		}
		t3 := time.Now()
		if err == nil && back.N() != in.g.N() {
			err = fmt.Errorf("loaded index has %d nodes, want %d", back.N(), in.g.N())
		}
		if err != nil {
			res.fail(fmt.Errorf("build op %d: %w", i, err))
			continue
		}
		op := buildOp{total: t3.Sub(t0), build: t1.Sub(t0), save: t2.Sub(t1), load: t3.Sub(t2), prep: eng.Internal().PrepStats()}
		ops = append(ops, op)
		built, loaded, index = eng, back, buf.Bytes()
		if rec != nil {
			id := reqBase + uint64(i)
			rec.add(id, "index.op", t0, t3)
			rec.add(id, "core.new", t0, t1)
			rec.add(id, "core.save", t1, t2)
			rec.add(id, "core.load", t2, t3)
			p := op.prep
			for _, st := range []struct {
				layer string
				d     time.Duration
			}{{"reorder.slashburn", p.Reorder}, {"core.buildh", p.BuildH}, {"lu.factor_h11", p.FactorH11}, {"core.schur", p.Schur}, {"lu.ilu_factor", p.ILU}} {
				rec.addReported(id, st.layer, st.d)
			}
		}
	}
	return ops, built, loaded, index
}

func totalsMS(ops []buildOp) []float64 {
	out := make([]float64, len(ops))
	for i, o := range ops {
		out[i] = ms(o.total)
	}
	return out
}

func runIndexBuild(c config) (*result, error) {
	sz := c.sizing()
	res := newResult("index-build", c)
	m := res.Metrics
	// Set-up here is graph generation alone, 0.3 s: cheap enough to repeat
	// more often than elsewhere, and short enough to need it.
	in, setup, err := medianSetup(2*sz.setups+1,
		func() (*graphInput, error) { return genGraph(sz.scale, sz.ef, graphSeed) },
		func(*graphInput) {})
	if err != nil {
		return nil, err
	}
	h := newOpHash()
	h.graph(in)
	res.WorkloadHash = h.sum()

	untraced, traced, _ := c.passes()
	m.startWindow()
	t0 := time.Now()
	ops, built, loaded, index := buildLoop(res, in, untraced, nil, 0)
	elapsed := time.Since(t0)
	if len(ops) == 0 {
		res.finish()
		return res, nil
	}
	m.set("setup_s", setup.Seconds(), "s")
	m.latency("latency", totalsMS(ops))
	m.setN("throughput_ops_s", float64(len(ops))/elapsed.Seconds(), "ops/s", len(ops))
	m.set("index_bytes", float64(built.MemoryBytes()), "B")
	m.set("bytes_per_response", float64(len(index)), "B")
	m.note("bytes_per_response", "the saved index: what one op hands back")
	m.endWindow()

	// Answers: the loaded index must agree with the oracle.
	for i := 0; i < oracleChecks && i < len(in.eligible); i++ {
		seed := in.eligible[(i*7919)%len(in.eligible)]
		res.Attempted++
		got, err := loaded.Query(seed)
		if err == nil {
			err = checkScores(in.g.N(), in.edges, seed, got)
		}
		if err != nil {
			res.fail(fmt.Errorf("loaded index: %w", err))
		}
	}

	if c.trace {
		rec := newRecorder()
		tops, _, _, _ := buildLoop(res, in, traced, rec, 1)
		m.overhead(totalsMS(ops), totalsMS(tops))
		indexLayers(m, in, append(ops, tops...), built, len(index))
		res.Waterfall, _ = waterfallInto(m, rec, []layerDef{{"index.op", ""}, {"core.new", "index.op"},
			{"reorder.slashburn", "core.new"}, {"core.buildh", "core.new"}, {"lu.factor_h11", "core.new"}, {"core.schur", "core.new"}, {"lu.ilu_factor", "core.new"},
			{"core.save", "index.op"}, {"core.load", "index.op"}})
		if err := rec.write(spanPath(c, res.Workload)); err != nil {
			return nil, err
		}
	}
	res.finish()
	return res, nil
}

// indexLayers fills the per-layer metrics of preprocessing: stage times the
// program reports (PrepStats), spans around exported stage functions re-run
// from outside, and the index's byte breakdown.
func indexLayers(m metrics, in *graphInput, ops []buildOp, built *bepi.Engine, fileBytes int) {
	med := func(f func(buildOp) time.Duration) float64 {
		xs := make([]float64, len(ops))
		for i, o := range ops {
			xs[i] = ms(f(o))
		}
		return median(sorted(xs))
	}
	reported := func(name string, f func(buildOp) time.Duration) {
		m.setN(name, med(f), "ms", len(ops))
		m.note(name, "reported")
	}
	reported("core.prep_buildh_ms", func(o buildOp) time.Duration { return o.prep.BuildH })
	reported("core.prep_schur_ms", func(o buildOp) time.Duration { return o.prep.Schur })
	reported("lu.factor_h11_ms", func(o buildOp) time.Duration { return o.prep.FactorH11 })
	m.setN("core.save_ms", med(func(o buildOp) time.Duration { return o.save }), "ms", len(ops))
	m.setN("core.load_ms", med(func(o buildOp) time.Duration { return o.load }), "ms", len(ops))
	m.set("core.index_file_bytes", float64(fileBytes), "B")

	eng := built.Internal()
	ps := eng.PrepStats()
	gi := in.g.Internal()

	// SlashBurn at the ratio the engine chose, timed from outside.
	t0 := time.Now()
	ord := reorder.HubAndSpoke(gi, ps.HubRatio)
	m.set("reorder.slashburn_ms", ms(time.Since(t0)), "ms")
	m.set("reorder.hub_share", float64(ps.N2)/float64(ps.N), "ratio")
	m.set("reorder.blocks", float64(ps.Blocks), "count")

	// ILU(0) of the Schur complement, timed from outside.
	schur := eng.Schur()
	t0 = time.Now()
	_, err := lu.FactorILU0(schur)
	if err == nil {
		m.set("lu.ilu_factor_ms", ms(time.Since(t0)), "ms")
	}

	// Index bytes by part. Schur and ILU have accessors; the block-LU is
	// re-factored from the re-built H11 to size it; H12/H21/H31/H32 (and
	// the retained H22) are the remainder.
	schurB := sparse.Compact(schur).MemoryBytes()
	var iluB int64
	if eng.ILU() != nil {
		iluB = eng.ILU().MemoryBytes()
	}
	var blockB int64
	hm := core.BuildH(gi, ord.Perm, eng.Options().C)
	if blu, err := lu.FactorBlockDiagPool(hm.Block(0, ord.N1, 0, ord.N1), ord.Blocks, eng.Pool()); err == nil {
		blockB = blu.MemoryBytes()
	}
	m.set("core.index_bytes_schur", float64(schurB), "B")
	m.set("core.index_bytes_ilu", float64(iluB), "B")
	m.set("core.index_bytes_blocklu", float64(blockB), "B")
	m.set("core.index_bytes_h", float64(eng.MemoryBytes()-schurB-iluB-blockB-int64(16*ps.N)), "B")

	// Parallel speed-up of preprocessing against the plain single-threaded
	// build of the same graph.
	m.set("par.workers", float64(ps.Workers), "count")
	t0 = time.Now()
	if _, err := bepi.New(in.g, bepi.WithParallelism(1)); err == nil {
		serial := ms(time.Since(t0))
		m.set("par.build_speedup", serial/med(func(o buildOp) time.Duration { return o.build }), "ratio")
	}
}

func spanPath(c config, workload string) string {
	return fmt.Sprintf("%s/spans-%s-seed%d.json", c.outDir, workload, c.seed)
}
