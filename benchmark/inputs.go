package main

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"hash"
	"math/rand"
	"sort"

	"bepi"
	"bepi/internal/gen"
)

// Every input is a pure function of the run's seed: the graph, the query
// seeds, the arrival schedule and the edge deltas. The program under test
// receives only the generated inputs, never the seed.

// graphInput is a generated graph with what the workloads derive from it.
type graphInput struct {
	g        *bepi.Graph
	edges    []bepi.Edge
	eligible []int // nodes with out-degree ≥ 1: a dead-end seed has a trivial solve
}

// genGraph builds the benchmark graph for (scale, ef, seed):
// gen.Hybrid(gen.DefaultHybrid(...)), R-MAT with planted communities and
// 20% dead ends.
func genGraph(scale, ef int, seed int64) (*graphInput, error) {
	gi := gen.Hybrid(gen.DefaultHybrid(scale, ef, seed))
	ie := gi.Edges()
	edges := make([]bepi.Edge, len(ie))
	for i, e := range ie {
		edges[i] = bepi.Edge{Src: e.Src, Dst: e.Dst}
	}
	g, err := bepi.NewGraph(gi.N(), edges)
	if err != nil {
		return nil, err
	}
	in := &graphInput{g: g, edges: edges}
	for u := 0; u < g.N(); u++ {
		if g.OutDegree(u) > 0 {
			in.eligible = append(in.eligible, u)
		}
	}
	return in, nil
}

// opRNG derives a workload's own generator from the run seed, so workloads
// that share a graph still draw independent op sequences.
func opRNG(seed int64, salt int64) *rand.Rand {
	return rand.New(rand.NewSource(seed*1000003 + salt))
}

// distinctSeeds returns every eligible node once, in random order.
func (in *graphInput) distinctSeeds(rng *rand.Rand) []int {
	out := append([]int(nil), in.eligible...)
	rng.Shuffle(len(out), func(i, j int) { out[i], out[j] = out[j], out[i] })
	return out
}

// hotMix returns count query seeds: hotShare of them drawn from the hot set,
// the rest uniformly from all eligible nodes.
func (in *graphInput) hotMix(rng *rand.Rand, hot []int, hotShare float64, count int) []int {
	out := make([]int, count)
	for i := range out {
		if rng.Float64() < hotShare {
			out[i] = hot[rng.Intn(len(hot))]
		} else {
			out[i] = in.eligible[rng.Intn(len(in.eligible))]
		}
	}
	return out
}

// edgeOp is one buffered edge update.
type edgeOp struct {
	Src, Dst int
	Insert   bool
}

// deltaStream generates batches of edge updates whose sources come from one
// class of nodes, chosen from the graph alone. Batch j inserts size/2 edges
// that are absent from the base graph and deletes the size/2 edges batch
// j−1 inserted (batch 0 deletes base edges instead), so every op changes
// the edge set, no op ever fails, and the graph stays within one batch of
// the base graph however long the stream runs.
type deltaStream struct {
	in      *graphInput
	rng     *rand.Rand
	sources []int // insert sources
	size    int
	prev    []edgeOp // the previous batch's inserts
	used    map[[2]int]bool
	delSrc  []int // sources of batch 0's deletions (out-degree ≥ 2, so none becomes a dead end)
}

// leafSources are nodes with out-degree 1 or 2; hubSources the top 1% by
// out-degree.
func (in *graphInput) leafSources() []int {
	var out []int
	for _, u := range in.eligible {
		if in.g.OutDegree(u) <= 2 {
			out = append(out, u)
		}
	}
	return out
}

func (in *graphInput) hubSources() []int {
	nodes := append([]int(nil), in.eligible...)
	sort.SliceStable(nodes, func(a, b int) bool { return in.g.OutDegree(nodes[a]) > in.g.OutDegree(nodes[b]) })
	k := in.g.N() / 100
	if k < 2 {
		k = 2
	}
	if k > len(nodes) {
		k = len(nodes)
	}
	return nodes[:k]
}

func newDeltaStream(in *graphInput, rng *rand.Rand, sources []int, size int) *deltaStream {
	d := &deltaStream{in: in, rng: rng, sources: sources, size: size, used: make(map[[2]int]bool)}
	for _, u := range sources {
		if in.g.OutDegree(u) >= 2 {
			d.delSrc = append(d.delSrc, u)
		}
	}
	return d
}

// next returns the following batch.
func (d *deltaStream) next() []edgeOp {
	half := d.size / 2
	batch := make([]edgeOp, 0, d.size)
	ins := make([]edgeOp, 0, half)
	for len(ins) < half {
		u := d.sources[d.rng.Intn(len(d.sources))]
		v := d.rng.Intn(d.in.g.N())
		k := [2]int{u, v}
		if u == v || d.used[k] || d.in.g.HasEdge(u, v) {
			continue
		}
		d.used[k] = true
		ins = append(ins, edgeOp{Src: u, Dst: v, Insert: true})
	}
	batch = append(batch, ins...)
	if d.prev == nil {
		for len(batch) < d.size {
			u := d.delSrc[d.rng.Intn(len(d.delSrc))]
			nb := d.in.g.OutNeighbors(u)
			v := nb[d.rng.Intn(len(nb))]
			k := [2]int{u, v}
			if d.used[k] {
				continue
			}
			d.used[k] = true
			batch = append(batch, edgeOp{Src: u, Dst: v})
		}
	} else {
		for _, e := range d.prev {
			batch = append(batch, edgeOp{Src: e.Src, Dst: e.Dst})
		}
	}
	d.prev = ins
	return batch
}

// opHash accumulates the generated op sequence into the workload hash the
// result file records: two runs with one seed must produce the same hash.
type opHash struct{ h hash.Hash }

func newOpHash() *opHash { return &opHash{h: sha256.New()} }

func (o *opHash) ints(xs ...int) {
	buf := make([]byte, 0, 8*len(xs))
	for _, x := range xs {
		buf = binary.LittleEndian.AppendUint64(buf, uint64(x))
	}
	o.h.Write(buf)
}

func (o *opHash) graph(in *graphInput) {
	o.ints(in.g.N(), len(in.edges))
	buf := make([]byte, 0, 16*len(in.edges))
	for _, e := range in.edges {
		buf = binary.LittleEndian.AppendUint64(buf, uint64(e.Src))
		buf = binary.LittleEndian.AppendUint64(buf, uint64(e.Dst))
	}
	o.h.Write(buf)
}

func (o *opHash) ops(batch []edgeOp) {
	for _, e := range batch {
		ins := 0
		if e.Insert {
			ins = 1
		}
		o.ints(e.Src, e.Dst, ins)
	}
}

func (o *opHash) sum() string { return hex.EncodeToString(o.h.Sum(nil))[:16] }
