package bench

import (
	"fmt"
	"sort"
	"sync"
	"time"

	"bepi"
)

// dynamicClients is how many concurrent query clients hammer the index
// while it rebuilds.
const dynamicClients = 4

// dynamicScale returns the R-MAT (scale, edgeFactor) of the dynamic
// experiment's graph per suite size — big enough that a full BePI
// re-preprocessing takes visible wall time next to a single query.
func dynamicScale(s Size) (int, int) {
	switch s {
	case Full:
		return 16, 12
	case Small:
		return 14, 10
	default:
		return 11, 8
	}
}

// durQuantile returns the q-quantile of a latency sample (sorts in place).
func durQuantile(d []time.Duration, q float64) time.Duration {
	if len(d) == 0 {
		return 0
	}
	sort.Slice(d, func(i, j int) bool { return d[i] < d[j] })
	i := int(q * float64(len(d)-1))
	return d[i]
}

// Dynamic is the registered "dynamic" experiment: the stop-the-world vs
// background flush comparison, followed by the continuous-update-stream
// workload contrasting incremental (delta) flushes with a full preprocess.
func Dynamic(cfg Config) ([]*Table, error) {
	tables, err := DynamicRebuild(cfg)
	if err != nil {
		return nil, err
	}
	dt, err := DynamicDeltaStream(cfg)
	if err != nil {
		return nil, err
	}
	return append(tables, dt...), nil
}

// DynamicRebuild measures query latency while the index rebuilds after
// buffered edge updates, contrasting the old stop-the-world flush (the
// whole rebuild runs under the write lock, emulated here by wrapping the
// same index in an RWMutex) with the background flush (snapshot under the
// lock, preprocess outside it, atomic swap). The stop-the-world row's
// in-rebuild p99 is the rebuild duration; the background row's stays near
// the steady-state query cost.
func DynamicRebuild(cfg Config) ([]*Table, error) {
	cfg = cfg.withDefaults()
	scale, ef := dynamicScale(cfg.Size)
	t := &Table{
		Title: "Query latency during a dynamic-index rebuild",
		Note: fmt.Sprintf("R-MAT scale %d, edge factor %d; %d concurrent clients querying while a flush rebuilds; stop-the-world emulates the pre-rework Flush (rebuild under the write lock)",
			scale, ef, dynamicClients),
		Header: []string{"flush mode", "rebuild", "queries during", "steady p50", "steady p99", "during p50", "during p99", "during worst"},
	}

	for _, mode := range []string{"stop-the-world", "background"} {
		g := bepi.RMAT(scale, ef, 42)
		d, err := bepi.NewDynamic(g, bepi.WithTolerance(cfg.Tol))
		if err != nil {
			t.AddRow(mode, classifyCell(err), "-", "-", "-", "-", "-", "-")
			continue
		}
		n := d.N()

		// The stop-the-world emulation routes queries and the flush through
		// one RWMutex, the way the pre-rework Flush serialized them.
		var mu sync.RWMutex
		stw := mode == "stop-the-world"
		query := func(seed int) error {
			if stw {
				mu.RLock()
				defer mu.RUnlock()
			}
			_, err := d.Query(seed)
			return err
		}

		// Steady state: latency with no rebuild in flight.
		var steady []time.Duration
		for i := 0; i < 32; i++ {
			qs := time.Now()
			if err := query(i % n); err != nil {
				return nil, fmt.Errorf("bench: dynamic steady query: %w", err)
			}
			steady = append(steady, time.Since(qs))
		}

		// Real buffered work: a fresh node with edges is never a no-op.
		id := d.AddNode()
		if err := d.AddEdge(0, id); err != nil {
			return nil, fmt.Errorf("bench: dynamic buffer: %w", err)
		}
		if err := d.AddEdge(id, 0); err != nil {
			return nil, fmt.Errorf("bench: dynamic buffer: %w", err)
		}

		// Clients query for the whole rebuild; each sample is one query
		// issued while the flush was (or appeared) in flight.
		during := make([][]time.Duration, dynamicClients)
		done := make(chan struct{})
		var wg, ready sync.WaitGroup
		var qerr error
		var qerrOnce sync.Once
		ready.Add(dynamicClients)
		for c := 0; c < dynamicClients; c++ {
			wg.Add(1)
			go func(c int) {
				defer wg.Done()
				// One unrecorded query, so every client is warm and
				// mid-loop before the flush starts.
				if err := query(c % n); err != nil {
					qerrOnce.Do(func() { qerr = err })
					ready.Done()
					return
				}
				ready.Done()
				for i := 0; ; i++ {
					select {
					case <-done:
						return
					default:
					}
					qs := time.Now()
					if err := query((c*131 + i) % n); err != nil {
						qerrOnce.Do(func() { qerr = err })
						return
					}
					during[c] = append(during[c], time.Since(qs))
				}
			}(c)
		}
		ready.Wait()

		rs := time.Now()
		var flushErr error
		if stw {
			mu.Lock()
			flushErr = d.Flush()
			mu.Unlock()
		} else {
			flushErr = d.Flush()
		}
		rebuild := time.Since(rs)
		close(done)
		wg.Wait()
		if flushErr != nil {
			return nil, fmt.Errorf("bench: dynamic flush (%s): %w", mode, flushErr)
		}
		if qerr != nil {
			return nil, fmt.Errorf("bench: dynamic query (%s): %w", mode, qerr)
		}

		var all []time.Duration
		for _, ds := range during {
			all = append(all, ds...)
		}
		t.AddRow(mode,
			FmtDuration(rebuild),
			fmt.Sprintf("%d", len(all)),
			FmtDuration(durQuantile(steady, 0.50)),
			FmtDuration(durQuantile(steady, 0.99)),
			FmtDuration(durQuantile(all, 0.50)),
			FmtDuration(durQuantile(all, 0.99)),
			FmtDuration(durQuantile(all, 1.0)))
	}
	return []*Table{t}, nil
}

// deltaStreamScale returns the R-MAT (scale, edgeFactor) of the
// continuous-update-stream experiment. Full matches the EXPERIMENTS.md
// setting (scale-15).
func deltaStreamScale(s Size) (int, int) {
	switch s {
	case Full:
		return 15, 12
	case Small:
		return 13, 10
	default:
		return 10, 8
	}
}

// deltaStreamSizes returns the per-batch delta sizes, scaled down with the
// graph so small suites never delete a meaningful fraction of the edges.
func deltaStreamSizes(s Size) []int {
	switch s {
	case Full:
		return []int{1, 64, 4096}
	case Small:
		return []int{1, 64, 1024}
	default:
		return []int{1, 16, 128}
	}
}

// DynamicDeltaStream drives a continuous update stream through one dynamic
// index: per batch it deletes K spoke-sourced edges, flushes, and records
// the rebuild mode and wall time, plus query latency sampled while the
// rebuild is in flight. Deletions are restricted to sources that (a) stay
// non-deadend and (b) are spokes under the engine's ordering, so every
// batch stays on the delta-spoke path — the one whose cost must be
// proportional to the delta, not the graph (hub-sourced deltas take the
// same code path; the unit tests exercise them). The full baseline is measured through the
// same Flush machinery under the same query load, forced onto the full
// path by an update the ordering cannot absorb (a new node with an
// out-edge); it runs after the delta batches so the full rebuild's fresh
// ordering never perturbs their delta classification, but is reported
// first as the baseline row.
func DynamicDeltaStream(cfg Config) ([]*Table, error) {
	cfg = cfg.withDefaults()
	scale, ef := deltaStreamScale(cfg.Size)
	g := bepi.RMAT(scale, ef, 42)

	d, err := bepi.NewDynamic(g, bepi.WithTolerance(cfg.Tol))
	if err != nil {
		return nil, fmt.Errorf("bench: delta stream preprocess: %w", err)
	}
	ord := d.Engine().Internal().Ordering()

	t := &Table{
		Title: "Incremental rebuild: delta flush vs full rebuild",
		Note: fmt.Sprintf("R-MAT scale %d, edge factor %d; each batch deletes K spoke-sourced edges from the same live index and flushes; the full row is a flush forced onto the full-rebuild path (new node with an out-edge), measured through the same machinery and query load",
			scale, ef),
		Header: []string{"delta edges", "mode", "flush", "vs full", "queries during", "during p50", "during p99"},
	}

	// Deletable edges: spoke sources (every existing spoke→spoke edge lies
	// inside one H11 block, so deletion can't cross blocks) with enough
	// remaining out-degree that no source ever becomes a deadend.
	deg := make(map[int]int)
	var pool []bepi.Edge
	for _, e := range g.Edges() {
		if ord.Perm[e.Src] < ord.N1 {
			pool = append(pool, e)
		}
	}
	// Deterministic spread over the pool without favoring low node ids.
	for i, j := range randPerm(len(pool)) {
		pool[i], pool[j] = pool[j], pool[i]
	}
	next := 0
	pick := func(k int) ([]bepi.Edge, error) {
		var ops []bepi.Edge
		for ; next < len(pool) && len(ops) < k; next++ {
			e := pool[next]
			if _, ok := deg[e.Src]; !ok {
				deg[e.Src] = g.OutDegree(e.Src)
			}
			if deg[e.Src] < 2 {
				continue
			}
			deg[e.Src]--
			ops = append(ops, e)
		}
		if len(ops) < k {
			return nil, fmt.Errorf("bench: delta stream: only %d of %d deletable edges at scale %d", len(ops), k, scale)
		}
		return ops, nil
	}

	// flushAndSample runs one background flush with a single client
	// sampling query latency for as long as the rebuild is in flight (tiny
	// deltas settle before the first query lands).
	flushAndSample := func() (bepi.RebuildStatus, []time.Duration, error) {
		n := d.N()
		r := d.StartFlush()
		var during []time.Duration
		qdone := make(chan error, 1)
		go func() {
			for i := 0; ; i++ {
				select {
				case <-r.Done():
					qdone <- nil
					return
				default:
				}
				qs := time.Now()
				if _, err := d.Query((i * 131) % n); err != nil {
					qdone <- err
					return
				}
				during = append(during, time.Since(qs))
			}
		}()
		flushErr := r.Wait()
		if err := <-qdone; err != nil {
			return bepi.RebuildStatus{}, nil, fmt.Errorf("bench: delta stream query: %w", err)
		}
		if flushErr != nil {
			return bepi.RebuildStatus{}, nil, fmt.Errorf("bench: delta stream flush: %w", flushErr)
		}
		return r.Status(), during, nil
	}

	type batch struct {
		label  string
		st     bepi.RebuildStatus
		during []time.Duration
	}
	var batches []batch
	for _, k := range deltaStreamSizes(cfg.Size) {
		ops, err := pick(k)
		if err != nil {
			return nil, err
		}
		for _, e := range ops {
			if err := d.RemoveEdge(e.Src, e.Dst); err != nil {
				return nil, fmt.Errorf("bench: delta stream buffer: %w", err)
			}
		}
		st, during, err := flushAndSample()
		if err != nil {
			return nil, err
		}
		batches = append(batches, batch{fmt.Sprintf("%d", k), st, during})
	}

	// The forced-full baseline: a new node with an out-edge is refused by
	// the incremental path, so this flush runs the complete preprocessing
	// pipeline (SlashBurn, factorization, Schur, ILU) under the same query
	// load the delta batches saw.
	id := d.AddNode()
	if err := d.AddEdge(id, 0); err != nil {
		return nil, fmt.Errorf("bench: delta stream baseline edge: %w", err)
	}
	fullSt, fullDuring, err := flushAndSample()
	if err != nil {
		return nil, err
	}
	if fullSt.Mode != bepi.RebuildModeFull {
		return nil, fmt.Errorf("bench: delta stream baseline took the %q path, want full", fullSt.Mode)
	}
	batches = append([]batch{{"1 (+1 node)", fullSt, fullDuring}}, batches...)

	for _, b := range batches {
		p50, p99 := "-", "-"
		if len(b.during) > 0 {
			p50 = FmtDuration(durQuantile(b.during, 0.50))
			p99 = FmtDuration(durQuantile(b.during, 0.99))
		}
		t.AddRow(b.label,
			string(b.st.Mode),
			FmtDuration(b.st.Duration),
			fmt.Sprintf("%.1f×", float64(fullSt.Duration)/float64(b.st.Duration)),
			fmt.Sprintf("%d", len(b.during)),
			p50, p99)
	}
	return []*Table{t}, nil
}

// randPerm is a tiny deterministic Fisher-Yates index stream (LCG-driven)
// so the experiment needs no RNG state shared with other tables.
func randPerm(n int) []int {
	js := make([]int, n)
	state := uint64(0x9E3779B97F4A7C15)
	for i := range js {
		state = state*6364136223846793005 + 1442695040888963407
		js[i] = int(state % uint64(i+1))
	}
	return js
}
