package reorder

import (
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"math/rand"
	"reflect"
	"sort"
	"testing"

	"bepi/internal/gen"
	"bepi/internal/graph"
	"bepi/internal/par"
)

// orderingHash folds everything an Ordering decides — the permutation, the
// block sizes and the partition — into one short hash.
func orderingHash(o *Ordering) string {
	h := sha256.New()
	put := func(xs ...int) {
		var b [8]byte
		for _, x := range xs {
			binary.LittleEndian.PutUint64(b[:], uint64(x))
			h.Write(b[:])
		}
	}
	put(o.N1, o.N2, o.N3, len(o.Perm), len(o.Blocks))
	put(o.Perm...)
	put(o.Blocks...)
	return fmt.Sprintf("%x", h.Sum(nil)[:8])
}

// star is node 0 pointing at every other node and back from the odd ones.
func star(n int) *graph.Graph {
	var edges []graph.Edge
	for v := 1; v < n; v++ {
		edges = append(edges, graph.Edge{Src: 0, Dst: v})
		if v%2 == 1 {
			edges = append(edges, graph.Edge{Src: v, Dst: 0})
		}
	}
	return graph.MustNew(n, edges)
}

// reciprocal is a ring with every edge in both directions plus one-way
// chords: each undirected pair must count once towards a degree.
func reciprocal(n int) *graph.Graph {
	var edges []graph.Edge
	for u := 0; u < n; u++ {
		v := (u + 1) % n
		edges = append(edges, graph.Edge{Src: u, Dst: v}, graph.Edge{Src: v, Dst: u})
		if u%7 == 0 {
			edges = append(edges, graph.Edge{Src: u, Dst: (u * 13) % n})
		}
	}
	return graph.MustNew(n, edges)
}

// selfLoops is a sparse random graph in which every third node also points
// at itself; the loops must not count towards any degree.
func selfLoops(n int) *graph.Graph {
	rng := rand.New(rand.NewSource(5))
	var edges []graph.Edge
	for u := 0; u < n; u++ {
		if u%3 == 0 {
			edges = append(edges, graph.Edge{Src: u, Dst: u})
		}
		for j := 0; j < 2; j++ {
			edges = append(edges, graph.Edge{Src: u, Dst: rng.Intn(n)})
		}
	}
	return graph.MustNew(n, edges)
}

// TestHubAndSpokeFrozen pins HubAndSpoke to the orderings the pair-sort
// implementation produced at the commit before the counting-pass builder
// (hashes captured there): the ordering decides H, S and the saved file, so
// it may not move by one position.
func TestHubAndSpokeFrozen(t *testing.T) {
	cases := []struct {
		name string
		g    *graph.Graph
		k    float64
		want string
	}{
		{"hybrid10", gen.Hybrid(gen.DefaultHybrid(10, 8, 1)), 0.2, "2e201c3fde7aa8eb"},
		{"hybrid11", gen.Hybrid(gen.DefaultHybrid(11, 8, 1)), 0.2, "b503bb42a2409032"},
		{"hybrid12", gen.Hybrid(gen.DefaultHybrid(12, 14, 1)), 0.2, "544c11a8c27b1285"},
		{"hybrid13", gen.Hybrid(gen.DefaultHybrid(13, 14, 1)), 0.2, "7e6cba6a36870caf"},
		{"hybrid12-k0.001", gen.Hybrid(gen.DefaultHybrid(12, 14, 1)), 0.001, "b996959b5df014c1"},
		{"rmat11", gen.RMAT(gen.DefaultRMAT(11, 8, 77)), 0.2, "6f532843c725ff15"},
		{"rmat11-k0.01", gen.RMAT(gen.DefaultRMAT(11, 8, 77)), 0.01, "1ef8ba669f1ef3a5"},
		{"star", star(257), 0.2, "8634f55b3462ad97"},
		{"all-deadend", graph.MustNew(64, nil), 0.2, "01168138464b857c"},
		{"reciprocal", reciprocal(500), 0.05, "996df8eef2251297"},
		{"self-loops", selfLoops(600), 0.1, "a7a333b66ec2fdf4"},
	}
	for _, tc := range cases {
		o := HubAndSpoke(tc.g, tc.k)
		checkOrdering(t, tc.g, o)
		if got := orderingHash(o); got != tc.want {
			t.Errorf("%s: ordering hash %s, frozen %s (n1=%d n2=%d n3=%d blocks=%d)",
				tc.name, got, tc.want, o.N1, o.N2, o.N3, len(o.Blocks))
		}
	}
}

// TestHubAndSpokePoolWorkerCounts requires HubAndSpokePool on 2, 3 and 7
// workers to give HubAndSpoke's ordering — the one TestHubAndSpokeFrozen
// pins — position for position: only the undirected view runs on the pool.
func TestHubAndSpokePoolWorkerCounts(t *testing.T) {
	for _, tc := range []struct {
		name string
		g    *graph.Graph
		k    float64
	}{
		{"hybrid12", gen.Hybrid(gen.DefaultHybrid(12, 14, 1)), 0.2},
		{"rmat11-k0.01", gen.RMAT(gen.DefaultRMAT(11, 8, 77)), 0.01},
		{"reciprocal", reciprocal(500), 0.05},
		{"self-loops", selfLoops(600), 0.1},
		{"star", star(5), 0.2},
	} {
		want := orderingHash(HubAndSpoke(tc.g, tc.k))
		for _, workers := range []int{2, 3, 7} {
			if got := orderingHash(HubAndSpokePool(tc.g, tc.k, par.NewPool(workers))); got != want {
				t.Errorf("%s on %d workers: ordering hash %s, serial %s", tc.name, workers, got, want)
			}
		}
	}
}

// TestSlashBurnMatchesPairSort property-tests SlashBurn on the merge-free
// undirected view against the pair-sort reference below: on small random
// graphs with reciprocal edges, self-loops, deadends and isolated nodes, and
// on skewed graphs of up to 2 000 nodes whose edges are all reciprocal, none
// reciprocal or mixed, some with small components hanging off the hubs
// alone, at several hub ratios and iteration caps 0–3, with the undirected
// view built on 1 to 4 workers in turn.
func TestSlashBurnMatchesPairSort(t *testing.T) {
	rng := rand.New(rand.NewSource(20170514))
	calls := 0
	check := func(name string, g *graph.Graph) {
		t.Helper()
		calls++
		var nodes []int
		for u := 0; u < g.N(); u++ {
			if g.OutDegree(u) > 0 {
				nodes = append(nodes, u)
			}
		}
		k := []float64{0.001, 0.05, 0.2, 0.5}[rng.Intn(4)]
		maxIters := rng.Intn(4)
		got, want := slashBurn(g, nodes, k, maxIters, par.NewPool(1+calls%4)), slashBurnPairSort(g, nodes, k, maxIters)
		perm := make([]int, len(got.perm))
		for i, p := range got.perm {
			perm[i] = int(p)
		}
		if !reflect.DeepEqual(perm, want.perm) || got.n1 != want.n1 || got.n2 != want.n2 ||
			!(len(got.blocks) == 0 && len(want.blocks) == 0 || reflect.DeepEqual(got.blocks, want.blocks)) {
			t.Fatalf("%s (n=%d m=%d k=%v maxIters=%d): SlashBurn differs from the pair-sort reference\n got n1=%d n2=%d blocks=%v perm=%v\nwant %+v",
				name, g.N(), g.M(), k, maxIters, got.n1, got.n2, got.blocks, perm, want)
		}
	}
	for trial := 0; trial < 300; trial++ {
		n := 1 + rng.Intn(120)
		m := rng.Intn(4 * n)
		edges := make([]graph.Edge, 0, 2*m)
		for i := 0; i < m; i++ {
			u, v := rng.Intn(n), rng.Intn(n)
			if rng.Intn(8) == 0 {
				v = u
			}
			edges = append(edges, graph.Edge{Src: u, Dst: v})
			if rng.Intn(4) == 0 {
				edges = append(edges, graph.Edge{Src: v, Dst: u})
			}
		}
		check(fmt.Sprintf("small trial %d", trial), graph.MustNew(n, edges))
	}
	for trial := 0; trial < 36; trial++ {
		kind := []string{"all reciprocal", "none reciprocal", "mixed"}[trial%3]
		n := 200 + rng.Intn(1800)
		var edges []graph.Edge
		add := func(u, v int) {
			switch {
			case kind == "all reciprocal" || kind == "mixed" && rng.Intn(2) == 0:
				edges = append(edges, graph.Edge{Src: u, Dst: v}, graph.Edge{Src: v, Dst: u})
			case kind == "none reciprocal" && (u+v)%2 == 1:
				// One direction per pair, chosen by the pair alone.
				edges = append(edges, graph.Edge{Src: max(u, v), Dst: min(u, v)})
			case kind == "none reciprocal":
				edges = append(edges, graph.Edge{Src: min(u, v), Dst: max(u, v)})
			default:
				edges = append(edges, graph.Edge{Src: u, Dst: v})
			}
		}
		// A skewed core: low ids are drawn far more often, so they are the
		// hubs the first slash removes.
		core := n
		if trial%2 == 1 {
			core = n / 2
		}
		for i := 3 * core; i > 0; i-- {
			add(rng.Intn(rng.Intn(core)+1), rng.Intn(core))
		}
		// On odd trials the other half is small groups joined to each other
		// only through hubs of the core: spoke components whose neighbours
		// outside them have all been slashed.
		for u := core; u < n; {
			size := min(1+rng.Intn(5), n-u)
			for i := 1; i < size; i++ {
				add(u+i-1, u+i)
			}
			for i := 0; i < size; i++ {
				add(u+i, rng.Intn(1+core/100))
			}
			u += size
		}
		check(fmt.Sprintf("%s trial %d", kind, trial), graph.MustNew(n, edges))
	}
}

// sbResult is the result type slashBurnPairSort was written against: the
// local permutation at the width of an int.
type sbResult struct {
	perm   []int // perm[localOld] = localNew
	n1, n2 int
	blocks []int
}

// slashBurnPairSort is the implementation this package shipped before the
// counting-pass adjacency: it materialises every induced edge as an ordered
// pair, comparison-sorts and dedupes the pairs, and re-sorts all candidates
// each iteration. Kept verbatim as the reference of the property test.
func slashBurnPairSort(g *graph.Graph, nodes []int, k float64, maxIters int) *sbResult {
	nn := len(nodes)
	res := &sbResult{perm: make([]int, nn)}
	if nn == 0 {
		return res
	}
	localID := make([]int, g.N())
	for i := range localID {
		localID[i] = -1
	}
	for i, u := range nodes {
		localID[u] = i
	}
	type pair struct{ a, b int }
	pairs := make([]pair, 0, g.M())
	for _, u := range nodes {
		lu := localID[u]
		for _, v := range g.OutNeighbors(u) {
			lv := localID[v]
			if lv < 0 || lu == lv {
				continue
			}
			a, b := lu, lv
			if a > b {
				a, b = b, a
			}
			pairs = append(pairs, pair{a, b})
		}
	}
	sort.Slice(pairs, func(i, j int) bool {
		if pairs[i].a != pairs[j].a {
			return pairs[i].a < pairs[j].a
		}
		return pairs[i].b < pairs[j].b
	})
	uniq := pairs[:0]
	for i, p := range pairs {
		if i == 0 || p != pairs[i-1] {
			uniq = append(uniq, p)
		}
	}
	deg := make([]int, nn)
	for _, p := range uniq {
		deg[p.a]++
		deg[p.b]++
	}
	ptr := make([]int, nn+1)
	for i := 0; i < nn; i++ {
		ptr[i+1] = ptr[i] + deg[i]
	}
	adj := make([]int, ptr[nn])
	next := make([]int, nn)
	copy(next, ptr[:nn])
	for _, p := range uniq {
		adj[next[p.a]] = p.b
		next[p.a]++
		adj[next[p.b]] = p.a
		next[p.b]++
	}

	hubsPerIter := int(k * float64(nn))
	if k*float64(nn) > float64(hubsPerIter) {
		hubsPerIter++
	}
	if hubsPerIter < 1 {
		hubsPerIter = 1
	}

	alive := make([]bool, nn)
	curDeg := make([]int, nn)
	copy(curDeg, deg)
	current := make([]int, nn)
	for i := range current {
		alive[i] = true
		current[i] = i
	}

	low := 0
	high := nn - 1

	removeNode := func(u int) {
		alive[u] = false
		for p := ptr[u]; p < ptr[u+1]; p++ {
			v := adj[p]
			if alive[v] {
				curDeg[v]--
			}
		}
	}

	var queue []int
	visitedIter := make([]int, nn)
	for i := range visitedIter {
		visitedIter[i] = -1
	}
	iter := 0
	for len(current) > 0 {
		iter++
		if maxIters > 0 && iter > maxIters {
			sort.Slice(current, func(a, b int) bool {
				if curDeg[current[a]] != curDeg[current[b]] {
					return curDeg[current[a]] > curDeg[current[b]]
				}
				return current[a] < current[b]
			})
			for _, u := range current {
				res.perm[u] = high
				high--
				res.n2++
				removeNode(u)
			}
			break
		}
		h := hubsPerIter
		if h > len(current) {
			h = len(current)
		}
		cand := append([]int(nil), current...)
		sort.Slice(cand, func(a, b int) bool {
			if curDeg[cand[a]] != curDeg[cand[b]] {
				return curDeg[cand[a]] > curDeg[cand[b]]
			}
			return cand[a] < cand[b]
		})
		hubs := cand[:h]
		for _, u := range hubs {
			res.perm[u] = high
			high--
			res.n2++
			removeNode(u)
		}
		if h == len(current) {
			break
		}
		remaining := cand[h:]
		var comps [][]int
		for _, s := range remaining {
			if visitedIter[s] == iter {
				continue
			}
			queue = append(queue[:0], s)
			visitedIter[s] = iter
			var members []int
			for len(queue) > 0 {
				u := queue[0]
				queue = queue[1:]
				members = append(members, u)
				for p := ptr[u]; p < ptr[u+1]; p++ {
					v := adj[p]
					if !alive[v] {
						continue
					}
					if visitedIter[v] != iter {
						visitedIter[v] = iter
						queue = append(queue, v)
					}
				}
			}
			comps = append(comps, members)
		}
		gcc := 0
		for i := 1; i < len(comps); i++ {
			if len(comps[i]) > len(comps[gcc]) {
				gcc = i
			}
		}
		for i, members := range comps {
			if i == gcc {
				continue
			}
			sort.Ints(members)
			for _, u := range members {
				res.perm[u] = low
				low++
				res.n1++
				removeNode(u)
			}
			res.blocks = append(res.blocks, len(members))
		}
		current = comps[gcc]
		if len(current) <= hubsPerIter {
			sort.Slice(current, func(a, b int) bool {
				if curDeg[current[a]] != curDeg[current[b]] {
					return curDeg[current[a]] > curDeg[current[b]]
				}
				return current[a] < current[b]
			})
			for _, u := range current {
				res.perm[u] = high
				high--
				res.n2++
				removeNode(u)
			}
			break
		}
	}
	return res
}
