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
	"bepi/internal/par"
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

// CheckHubRatio reports a SlashBurn hub selection ratio outside (0, 1), the
// range every k the reordering is run with must lie in. NaN is outside it.
func CheckHubRatio(k float64) error {
	if !(k > 0 && k < 1) {
		return fmt.Errorf("reorder: hub selection ratio %v out of (0,1)", k)
	}
	return nil
}

// HubAndSpoke computes the full BePI ordering: deadends are moved to the
// tail, and the non-deadend subgraph is permuted by SlashBurn with hub
// selection ratio k so that spokes (small disconnected components after hub
// removal) come first and hubs last. It panics on a k CheckHubRatio refuses.
// It runs serially; HubAndSpokePool is the same ordering on a pool.
func HubAndSpoke(g *graph.Graph, k float64) *Ordering {
	return hubAndSpoke(g, k, 0, nil)
}

// HubAndSpokePool is HubAndSpoke with SlashBurn's undirected view built on
// the pool (graph.Undirected); the slash-and-burn loop, which fixes the
// order, stays serial. The ordering is the same at any worker count.
func HubAndSpokePool(g *graph.Graph, k float64, pool *par.Pool) *Ordering {
	return hubAndSpoke(g, k, 0, pool)
}

// HubAndSpokeIters is HubAndSpoke with a cap on SlashBurn iterations
// (0 = unlimited). With maxIters = 1 it degenerates to one-shot hub
// removal — the GCC left after the first slash joins the hub region instead
// of being burned further — which the reordering ablation uses to show why
// SlashBurn's recursion earns its cost.
func HubAndSpokeIters(g *graph.Graph, k float64, maxIters int) *Ordering {
	return hubAndSpoke(g, k, maxIters, nil)
}

func hubAndSpoke(g *graph.Graph, k float64, maxIters int, pool *par.Pool) *Ordering {
	if err := CheckHubRatio(k); err != nil {
		panic(err)
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
	sb := slashBurn(g, nonDead, k, maxIters, pool)
	perm := make([]int, n)
	inv := make([]int, n)
	for localOld, localNew := range sb.perm {
		perm[nonDead[localOld]] = int(localNew)
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

// localOrder is the SlashBurn output in local (non-deadend) id space.
type localOrder struct {
	perm   []uint32 // perm[localOld] = localNew
	n1, n2 int
	blocks []int
}

// slashBurn runs SlashBurn on the undirected view of the subgraph induced by
// the given nodes (strictly increasing). hubsPerIter = ceil(k·|nodes|)
// high-degree nodes are slashed per iteration; the procedure recurses on the
// giant connected component until it is no larger than one slash, at which
// point the remainder joins the hub region. Its state is 32 bits a node:
// local ids, degrees and BFS stamps all lie below |nodes| < 2³² − 1, which
// graph.Undirected enforces. The view is built on the pool.
func slashBurn(g *graph.Graph, nodes []int, k float64, maxIters int, pool *par.Pool) *localOrder {
	nn := len(nodes)
	res := &localOrder{perm: make([]uint32, nn)}
	if nn == 0 {
		return res
	}
	und := g.Undirected(nodes, pool)

	hubsPerIter := int(k * float64(nn))
	if k*float64(nn) > float64(hubsPerIter) {
		hubsPerIter++
	}
	if hubsPerIter < 1 {
		hubsPerIter = 1
	}

	// current holds the nodes of the graph SlashBurn currently operates on
	// in ascending id: initially everything, after each iteration the GCC.
	// mark[u] is removed once u has left the graph, else the last iteration
	// whose BFS reached it.
	const removed = math.MaxUint32
	curDeg := make([]uint32, nn)
	current := make([]uint32, nn)
	mark := make([]uint32, nn)
	for i := range current {
		curDeg[i] = uint32(und.Degree(i))
		current[i] = uint32(i)
	}

	low := 0       // next spoke id (assigned from the bottom)
	high := nn - 1 // next hub id (assigned from the top)

	// byDegree returns us, which must be in ascending id, ordered highest
	// current degree first and ties by id: the order hubs are slashed in
	// and components are discovered in. It is a stable counting sort on
	// degree into ranked. A node's current degree counts its neighbours
	// still in the graph, which share its component, so it is below
	// len(us) ≤ nn and the buckets fit in counts.
	ranked := make([]uint32, nn)
	counts := make([]uint32, nn+1)
	byDegree := func(us []uint32) []uint32 {
		top := uint32(0)
		for _, u := range us {
			top = max(top, curDeg[u])
		}
		cnt := counts[:top+2] // bucket top−degree, from cnt[1]
		clear(cnt)
		for _, u := range us {
			cnt[top-curDeg[u]+1]++
		}
		for b := 1; b < len(cnt); b++ {
			cnt[b] += cnt[b-1]
		}
		out := ranked[:len(us)]
		for _, u := range us {
			b := top - curDeg[u]
			out[cnt[b]] = u
			cnt[b]++
		}
		return out
	}
	// joinHubs assigns every given node the next hub id, in the given
	// order, and takes it out of its neighbours' degrees. A neighbour that
	// has left the graph loses a degree too: no one reads it again, as
	// byDegree ranks only nodes still in the graph.
	joinHubs := func(us []uint32) {
		for _, u := range us {
			res.perm[u] = uint32(high)
			high--
			res.n2++
			mark[u] = removed
			out, inOnly := und.Neighbors(int(u))
			for _, list := range [2][]uint32{out, inOnly} {
				for _, v := range list {
					curDeg[v]--
				}
			}
		}
	}

	// burned receives each iteration's BFS output: the members of every
	// component back to back, each component doubling as its own queue.
	burned := make([]uint32, 0, nn)
	var comps [][]uint32
	for iter := uint32(1); len(current) > 0; iter++ {
		order := byDegree(current)
		if maxIters > 0 && int(iter) > maxIters {
			// Iteration cap reached: the rest of the graph joins the hub
			// region, highest degree first.
			joinHubs(order)
			break
		}
		// 1. Slash: remove the hubsPerIter highest-degree nodes of the
		// current graph, assigning them the highest free ids in
		// decreasing-degree order.
		h := min(hubsPerIter, len(order))
		joinHubs(order[:h])
		remaining := order[h:]
		if len(remaining) == 0 {
			break
		}
		// 2. Burn: find components of the remainder; all but the largest
		// are spokes and leave the graph with the lowest free ids, one
		// contiguous block per component.
		burned, comps = burned[:0], comps[:0]
		for _, s := range remaining {
			if mark[s] == iter {
				continue
			}
			start := len(burned)
			burned = append(burned, s)
			mark[s] = iter
			for head := start; head < len(burned); head++ {
				out, inOnly := und.Neighbors(int(burned[head]))
				for _, list := range [2][]uint32{out, inOnly} {
					for _, v := range list {
						if mark[v] < iter {
							mark[v] = iter
							burned = append(burned, v)
						}
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
		// A spoke leaves without taking itself out of its neighbours'
		// degrees: they all lie in its own component, which leaves with it.
		for i, members := range comps {
			if i == gcc {
				continue
			}
			slices.Sort(members)
			for _, u := range members {
				res.perm[u] = uint32(low)
				low++
				res.n1++
				mark[u] = removed
			}
			res.blocks = append(res.blocks, len(members))
		}
		// 3. Recurse on the GCC — what is left of the current graph, still
		// in ascending id — while it is larger than one slash.
		gccNodes := current[:0]
		for _, u := range current {
			if mark[u] != removed {
				gccNodes = append(gccNodes, u)
			}
		}
		current = gccNodes
		if len(current) <= hubsPerIter {
			// Remainder joins the hub region, highest degree first.
			joinHubs(byDegree(current))
			break
		}
	}
	if low != nn-res.n2 || res.n1+res.n2 != nn {
		panic(fmt.Sprintf("reorder: slashburn accounting n1=%d n2=%d nn=%d low=%d", res.n1, res.n2, nn, low))
	}
	return res
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
