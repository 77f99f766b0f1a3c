// Package reorder implements the node-reordering strategies BePI relies on:
// deadend separation (§3.2.1), the SlashBurn hub-and-spoke method
// (Appendix A of the paper; Kang & Faloutsos, ICDM 2011), and the
// degree-based ordering used by the LU-decomposition baseline. The composed
// ordering makes the reordered H matrix take the form of Figure 3(d): a
// block-diagonal spoke block H11, hub blocks, and a trailing deadend
// identity block.
package reorder

import (
	"fmt"
	"math"
	"slices"
	"sort"

	"bepi/internal/graph"
)

// Ordering describes a permutation of the graph's nodes and the partition
// sizes that the permutation induces on H.
type Ordering struct {
	// Perm maps old node id to new node id; Inv is its inverse.
	Perm, Inv []int
	// N1, N2 and N3 are the number of spokes, hubs and deadends. New ids
	// [0,N1) are spokes, [N1,N1+N2) hubs, [N1+N2,N1+N2+N3) deadends.
	N1, N2, N3 int
	// Blocks holds the sizes of the diagonal blocks of H11 (one per spoke
	// component), in new-id order; they sum to N1.
	Blocks []int
}

// Validate checks internal consistency; it returns an error describing the
// first violated invariant, or nil.
func (o *Ordering) Validate() error {
	n := len(o.Perm)
	if len(o.Inv) != n {
		return fmt.Errorf("reorder: inv length %d want %d", len(o.Inv), n)
	}
	if o.N1+o.N2+o.N3 != n {
		return fmt.Errorf("reorder: partition %d+%d+%d != %d", o.N1, o.N2, o.N3, n)
	}
	seen := make([]bool, n)
	for old, nw := range o.Perm {
		if nw < 0 || nw >= n {
			return fmt.Errorf("reorder: perm[%d]=%d out of range", old, nw)
		}
		if seen[nw] {
			return fmt.Errorf("reorder: perm not a bijection at %d", nw)
		}
		seen[nw] = true
		if o.Inv[nw] != old {
			return fmt.Errorf("reorder: inv[%d]=%d want %d", nw, o.Inv[nw], old)
		}
	}
	total := 0
	for i, b := range o.Blocks {
		if b <= 0 {
			return fmt.Errorf("reorder: block %d has size %d", i, b)
		}
		total += b
	}
	if total != o.N1 {
		return fmt.Errorf("reorder: block sizes sum to %d want %d", total, o.N1)
	}
	return nil
}

// HubAndSpoke computes the full BePI ordering: deadends are moved to the
// tail, and the non-deadend subgraph is permuted by SlashBurn with hub
// selection ratio k so that spokes (small disconnected components after hub
// removal) come first and hubs last.
func HubAndSpoke(g *graph.Graph, k float64) *Ordering {
	return HubAndSpokeIters(g, k, 0)
}

// HubAndSpokeIters is HubAndSpoke with a cap on SlashBurn iterations
// (0 = unlimited). With maxIters = 1 it degenerates to one-shot hub
// removal — the GCC left after the first slash joins the hub region instead
// of being burned further — which the reordering ablation uses to show why
// SlashBurn's recursion earns its cost.
func HubAndSpokeIters(g *graph.Graph, k float64, maxIters int) *Ordering {
	if k <= 0 || k >= 1 {
		panic(fmt.Sprintf("reorder: hub selection ratio %v out of (0,1)", k))
	}
	n := g.N()
	// Deadend separation. nonDead keeps original relative order, so the
	// local SlashBurn ids are stable and deterministic.
	dead := g.Deadends()
	nonDead := make([]int, 0, n-len(dead))
	for u, d := 0, 0; u < n; u++ {
		if d < len(dead) && dead[d] == u {
			d++
		} else {
			nonDead = append(nonDead, u)
		}
	}
	sb := slashBurn(g, nonDead, k, maxIters)
	perm := make([]int, n)
	inv := make([]int, n)
	for localOld, localNew := range sb.perm {
		perm[nonDead[localOld]] = localNew
	}
	base := len(nonDead)
	for i, u := range dead {
		perm[u] = base + i
	}
	for old, nw := range perm {
		inv[nw] = old
	}
	return &Ordering{
		Perm: perm, Inv: inv,
		N1: sb.n1, N2: sb.n2, N3: len(dead),
		Blocks: sb.blocks,
	}
}

// sbResult is the SlashBurn output in local (non-deadend) id space.
type sbResult struct {
	perm   []int // perm[localOld] = localNew
	n1, n2 int
	blocks []int
}

// slashBurn runs SlashBurn on the undirected view of the subgraph induced by
// the given nodes (strictly increasing). hubsPerIter = ceil(k·|nodes|)
// high-degree nodes are slashed per iteration; the procedure recurses on the
// giant connected component until it is no larger than one slash, at which
// point the remainder joins the hub region.
func slashBurn(g *graph.Graph, nodes []int, k float64, maxIters int) *sbResult {
	nn := len(nodes)
	res := &sbResult{perm: make([]int, nn)}
	if nn == 0 {
		return res
	}
	und := g.Undirected(nodes)

	hubsPerIter := int(k * float64(nn))
	if k*float64(nn) > float64(hubsPerIter) {
		hubsPerIter++
	}
	if hubsPerIter < 1 {
		hubsPerIter = 1
	}

	alive := make([]bool, nn)
	curDeg := make([]int, nn)
	// current holds the nodes of the graph SlashBurn currently operates on
	// (initially everything; after the first iteration, the previous GCC).
	current := make([]int, nn)
	for i := range current {
		alive[i] = true
		curDeg[i] = und.Degree(i)
		current[i] = i
	}

	low := 0       // next spoke id (assigned from the bottom)
	high := nn - 1 // next hub id (assigned from the top)

	removeNode := func(u int) {
		alive[u] = false
		for _, v := range und.Neighbors(u) {
			if alive[v] {
				curDeg[v]--
			}
		}
	}
	// byDegree orders nodes highest current degree first, ties by id: the
	// order hubs are slashed in and components are discovered in. It sorts
	// one packed key per node, (MaxUint32−degree)<<32 | id, whose ascending
	// order is exactly that one — an integer sort with no comparator call
	// per comparison. Local ids and degrees are below nn < 2³².
	keys := make([]uint64, 0, nn)
	byDegree := func(us []int) {
		keys = keys[:0]
		for _, u := range us {
			keys = append(keys, uint64(math.MaxUint32-uint32(curDeg[u]))<<32|uint64(u))
		}
		slices.Sort(keys)
		for i, k := range keys {
			us[i] = int(uint32(k))
		}
	}
	// joinHubs assigns every given node the next hub id, in the given order.
	joinHubs := func(us []int) {
		for _, u := range us {
			res.perm[u] = high
			high--
			res.n2++
			removeNode(u)
		}
	}

	// burned receives each iteration's BFS output: the members of every
	// component back to back, each component doubling as its own queue.
	// spare is the buffer of the iteration before, which current (a
	// component of it) still points into.
	var burned, spare []int
	visitedIter := make([]int, nn) // BFS stamp: iteration index when visited
	for iter := 1; len(current) > 0; iter++ {
		byDegree(current)
		if maxIters > 0 && iter > maxIters {
			// Iteration cap reached: the rest of the graph joins the hub
			// region, highest degree first.
			joinHubs(current)
			break
		}
		// 1. Slash: remove the hubsPerIter highest-degree nodes of the
		// current graph, assigning them the highest free ids in
		// decreasing-degree order.
		h := min(hubsPerIter, len(current))
		joinHubs(current[:h])
		remaining := current[h:]
		if len(remaining) == 0 {
			break
		}
		// 2. Burn: find components of the remainder; all but the largest
		// are spokes and leave the graph with the lowest free ids, one
		// contiguous block per component.
		burned, spare = spare[:0], burned
		if cap(burned) < len(remaining) {
			burned = make([]int, 0, len(remaining))
		}
		var comps [][]int
		for _, s := range remaining {
			if visitedIter[s] == iter {
				continue
			}
			start := len(burned)
			burned = append(burned, s)
			visitedIter[s] = iter
			for head := start; head < len(burned); head++ {
				for _, v := range und.Neighbors(burned[head]) {
					if alive[v] && visitedIter[v] != iter {
						visitedIter[v] = iter
						burned = append(burned, v)
					}
				}
			}
			comps = append(comps, burned[start:])
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
			slices.Sort(members)
			for _, u := range members {
				res.perm[u] = low
				low++
				res.n1++
				removeNode(u)
			}
			res.blocks = append(res.blocks, len(members))
		}
		// 3. Recurse on the GCC while it is larger than one slash.
		current = comps[gcc]
		if len(current) <= hubsPerIter {
			// Remainder joins the hub region, highest degree first.
			byDegree(current)
			joinHubs(current)
			break
		}
	}
	if low != nn-res.n2 || res.n1+res.n2 != nn {
		panic(fmt.Sprintf("reorder: slashburn accounting n1=%d n2=%d nn=%d low=%d", res.n1, res.n2, nn, low))
	}
	return res
}

// DeadendOnly returns an ordering that only separates deadends (all
// non-deadends form a single "hub" partition with N1 = 0). Used by tests
// and by methods that do not exploit the hub-and-spoke structure.
func DeadendOnly(g *graph.Graph) *Ordering {
	n := g.N()
	isDead := make([]bool, n)
	for _, u := range g.Deadends() {
		isDead[u] = true
	}
	perm := make([]int, n)
	inv := make([]int, n)
	lo, hi := 0, 0
	for u := 0; u < n; u++ {
		if !isDead[u] {
			perm[u] = lo
			lo++
		}
	}
	hi = lo
	for u := 0; u < n; u++ {
		if isDead[u] {
			perm[u] = hi
			hi++
		}
	}
	for old, nw := range perm {
		inv[nw] = old
	}
	return &Ordering{Perm: perm, Inv: inv, N1: 0, N2: lo, N3: n - lo}
}

// ByDegree returns a permutation ordering nodes by ascending total degree
// (in+out), the fill-reducing heuristic used by the LU-decomposition
// baseline of Fujiwara et al.
func ByDegree(g *graph.Graph) []int {
	n := g.N()
	order := make([]int, n)
	for i := range order {
		order[i] = i
	}
	sort.Slice(order, func(a, b int) bool {
		da := g.OutDegree(order[a]) + g.InDegree(order[a])
		db := g.OutDegree(order[b]) + g.InDegree(order[b])
		if da != db {
			return da < db
		}
		return order[a] < order[b]
	})
	perm := make([]int, n)
	for newID, old := range order {
		perm[old] = newID
	}
	return perm
}
