package main

import (
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"bepi"
)

// update-stream: writes beside reads on bepi.Dynamic. The writer alternates
// a leaf batch and a hub batch, each followed by Flush; the reader asks for
// top-10 rankings the whole time. Leaf and hub are properties of the graph
// (out-degree), chosen without asking the engine which nodes it treats as
// spokes or hubs, so the rebuild mode each flush takes is a finding, not an
// input.

type updateState struct {
	in         *graphInput
	d          *bepi.Dynamic
	indexBytes int64 // of the initial index, before any update
}

type flushRec struct {
	hub    bool
	dur    time.Duration
	status bepi.RebuildStatus
}

type readRec struct {
	lat     time.Duration
	inFlush bool
}

// updatePass runs writer and reader side by side for window. With a nil
// batches it runs the reader alone: reads with no rebuild competing.
func updatePass(res *result, st updateState, window time.Duration, batches *[2][][]edgeOp, reads []int, applied map[[2]int]bool, rec *recorder, idBase uint64) ([]flushRec, []readRec, time.Duration) {
	var flushing atomic.Bool
	var flushes []flushRec
	var readsDone []readRec
	start := time.Now()
	var wg sync.WaitGroup
	wg.Add(2)
	go func() { // writer
		defer wg.Done()
		for i := 0; batches != nil && time.Since(start) < window; i++ {
			class := i % 2 // 0 leaf, 1 hub
			if len(batches[class]) == 0 {
				return
			}
			batch := batches[class][0]
			batches[class] = batches[class][1:]
			res.Attempted++
			var err error
			for _, e := range batch {
				if e.Insert {
					err = st.d.AddEdge(e.Src, e.Dst)
				} else {
					err = st.d.RemoveEdge(e.Src, e.Dst)
				}
				if err != nil {
					break
				}
				applied[[2]int{e.Src, e.Dst}] = e.Insert
			}
			t0 := time.Now()
			flushing.Store(true)
			if err == nil {
				err = st.d.Flush()
			}
			flushing.Store(false)
			t1 := time.Now()
			if err != nil {
				res.fail(fmt.Errorf("flush %d: %w", i, err))
				continue
			}
			fr := flushRec{hub: class == 1, dur: t1.Sub(t0), status: st.d.LastRebuild().Status()}
			flushes = append(flushes, fr)
			layer := "dynamic.flush_leaf"
			if fr.hub {
				layer = "dynamic.flush_hub"
			}
			rec.add(idBase+uint64(i), layer, t0, t1)
			rec.addReported(idBase+uint64(i), "dynamic.rebuild_"+string(fr.status.Mode), fr.status.Duration)
		}
	}()
	var failedReads []error
	go func() { // reader
		defer wg.Done()
		for i := 0; time.Since(start) < window && i < len(reads); i++ {
			seed := reads[i]
			in := flushing.Load()
			t0 := time.Now()
			top, err := st.d.TopK(seed, topK)
			t1 := time.Now()
			if err == nil && (len(top) == 0 || len(top) > topK) {
				err = fmt.Errorf("read seed %d: %d ranked entries", seed, len(top))
			}
			if err != nil {
				failedReads = append(failedReads, err)
				continue
			}
			readsDone = append(readsDone, readRec{lat: t1.Sub(t0), inFlush: in || flushing.Load()})
			rec.add(idBase+1<<32+uint64(i), "dynamic.read", t0, t1)
		}
	}()
	wg.Wait()
	res.Attempted += len(readsDone) + len(failedReads)
	for _, err := range failedReads {
		res.fail(err)
	}
	return flushes, readsDone, time.Since(start)
}

func runUpdateStream(c config) (*result, error) {
	sz := c.sizing()
	res := newResult("update-stream", c)
	m := res.Metrics
	st, setup, err := medianSetup(sz.setups+2, func() (updateState, error) { // 0.65 s each: two more than the default
		in, err := genGraph(sz.scale, sz.ef, graphSeed)
		if err != nil {
			return updateState{}, err
		}
		d, err := bepi.NewDynamic(in.g)
		if err != nil {
			return updateState{}, err
		}
		for _, s := range in.eligible[:3] { // first reads calibrate the top-k bound
			if _, err := d.TopK(s, topK); err != nil {
				return updateState{}, err
			}
		}
		return updateState{in, d, d.Engine().MemoryBytes()}, nil
	}, func(updateState) {})
	if err != nil {
		return nil, err
	}
	in := st.in

	// The whole op sequence is generated up front: deltaBatchN batches per
	// class and one read seed per possible read.
	h := newOpHash()
	h.graph(in)
	leaf := newDeltaStream(in, opRNG(c.seed, 6), in.leafSources(), leafBatch)
	hub := newDeltaStream(in, opRNG(c.seed, 7), in.hubSources(), hubBatch)
	var batches [2][][]edgeOp
	for i := 0; i < deltaBatchN; i++ {
		batches[0] = append(batches[0], leaf.next())
		batches[1] = append(batches[1], hub.next())
		h.ops(batches[0][i])
		h.ops(batches[1][i])
	}
	rng := opRNG(c.seed, 8)
	reads := make([]int, 1<<16)
	for i := range reads {
		reads[i] = in.eligible[rng.Intn(len(in.eligible))]
	}
	h.ints(reads...)
	res.WorkloadHash = h.sum()

	untraced, traced, probes := c.passes()
	applied := make(map[[2]int]bool) // edge → present, for every edge the stream touched
	m.startWindow()
	flushes, readsDone, elapsed := updatePass(res, st, untraced, &batches, reads, applied, nil, 0)
	m.set("setup_s", setup.Seconds(), "s")
	readMS := readLatMS(readsDone, false)
	m.latency("latency", readMS)
	m.setN("throughput_ops_s", float64(len(readsDone))/elapsed.Seconds(), "ops/s", len(readsDone))
	m.set("index_bytes", float64(st.indexBytes), "B")
	m.set("bytes_per_response", 16*topK, "B")
	m.note("bytes_per_response", "the in-memory ranking: 10 entries of node and score")
	m.endWindow()
	flushMetrics(m, flushes)

	if c.trace {
		rec := newRecorder()
		tflushes, treads, _ := updatePass(res, st, traced/2, &batches, reads[len(readsDone):], applied, rec, 1)
		m.overhead(readMS, readLatMS(treads, false))
		// The writer flushes back to back, so nearly every read above
		// overlapped a rebuild; a reader-only pass gives the idle baseline.
		// It gets the larger share of the time: its p95 needs 200 reads.
		_, idle, _ := updatePass(res, st, probes+traced/2, nil, reads[len(readsDone)+len(treads):], applied, rec, 1<<40)
		inFlush := readLatMS(append(append([]readRec(nil), readsDone...), treads...), true)
		if p, ok := percentile(sorted(readLatMS(idle, false)), 0.95); ok {
			m.setN("dynamic.read_idle_p95_ms", p, "ms", len(idle))
		}
		if p, ok := percentile(sorted(inFlush), 0.95); ok {
			m.setN("dynamic.read_in_flush_p95_ms", p, "ms", len(inFlush))
		}
		dynamicLayers(m, append(append([]flushRec(nil), flushes...), tflushes...))
		if err := rec.write(spanPath(c, res.Workload)); err != nil {
			return nil, err
		}
	}

	// Answers: the served index after the stream against a fresh build of
	// the final edge set, and the fresh build's graph against the oracle.
	final := finalEdges(in, applied)
	fg, err := bepi.NewGraph(in.g.N(), final)
	if err != nil {
		return nil, err
	}
	fresh, err := bepi.New(fg)
	if err != nil {
		return nil, err
	}
	for i := 0; i < 3; i++ {
		seed := in.eligible[(i*7919+13)%len(in.eligible)]
		res.Attempted++
		got, err := st.d.Query(seed)
		var want []float64
		if err == nil {
			want, err = fresh.Query(seed)
		}
		if err == nil {
			if d := l1(got, want); !(d <= oracleTol) {
				err = fmt.Errorf("seed %d after the stream: L1 distance to a fresh build %.3g", seed, d)
			}
		}
		if err == nil && i == 0 {
			err = checkScores(in.g.N(), final, seed, got)
		}
		if err != nil {
			res.fail(err)
		}
	}
	res.finish()
	return res, nil
}

// readLatMS returns read latencies in ms: all of them, or only those that
// overlapped a flush.
func readLatMS(rs []readRec, onlyInFlush bool) []float64 {
	var out []float64
	for _, r := range rs {
		if !onlyInFlush || r.inFlush {
			out = append(out, ms(r.lat))
		}
	}
	return out
}

func flushDurMS(fs []flushRec, keep func(flushRec) bool) []float64 {
	var out []float64
	for _, f := range fs {
		if keep(f) {
			out = append(out, ms(f.dur))
		}
	}
	return out
}

// flushMetrics sets the median Flush() wall time per batch class.
func flushMetrics(m metrics, fs []flushRec) {
	leaf := flushDurMS(fs, func(f flushRec) bool { return !f.hub })
	hub := flushDurMS(fs, func(f flushRec) bool { return f.hub })
	m.setN("flush_leaf_p50_ms", median(sorted(leaf)), "ms", len(leaf))
	m.setN("flush_hub_p50_ms", median(sorted(hub)), "ms", len(hub))
}

// dynamicLayers breaks the flushes down by the rebuild mode the engine
// reports for each.
func dynamicLayers(m metrics, fs []flushRec) {
	for _, mode := range []struct {
		name string
		mode bepi.RebuildMode
	}{{"spoke", bepi.RebuildModeDeltaSpoke}, {"hub", bepi.RebuildModeDeltaHub}, {"full", bepi.RebuildModeFull}} {
		// Counted over the first modeSample flushes only, so that the count
		// is a function of the seed and not of how many flushes fit the run.
		head := fs[:min(len(fs), modeSample)]
		cnt := len(flushDurMS(head, func(f flushRec) bool { return f.status.Mode == mode.mode }))
		m.setN("dynamic.mode_"+mode.name+"_count", float64(cnt), "count", len(head))
		m.note("dynamic.mode_"+mode.name+"_count", "reported: RebuildStatus.Mode")
		xs := flushDurMS(fs, func(f flushRec) bool { return f.status.Mode == mode.mode })
		m.setN("dynamic.flush_"+mode.name+"_ms", median(sorted(xs)), "ms", len(xs))
		if len(xs) == 0 {
			m.note("dynamic.flush_"+mode.name+"_ms", "no flush took this mode")
		}
	}
	if len(fs) > 0 {
		m.set("dynamic.hub_drift_final", fs[len(fs)-1].status.Drift, "ratio")
		m.note("dynamic.hub_drift_final", "reported")
	}
}

// finalEdges applies the stream's net effect to the base edge list.
func finalEdges(in *graphInput, applied map[[2]int]bool) []bepi.Edge {
	out := make([]bepi.Edge, 0, len(in.edges)+len(applied))
	for _, e := range in.edges {
		if present, touched := applied[[2]int{e.Src, e.Dst}]; !touched || present {
			out = append(out, e)
		}
	}
	for k, present := range applied {
		if present && !in.g.HasEdge(k[0], k[1]) {
			out = append(out, bepi.Edge{Src: k[0], Dst: k[1]})
		}
	}
	return out
}
