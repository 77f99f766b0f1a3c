// Package graph provides the directed-graph representation used by the BePI
// reproduction: construction from edge lists, adjacency in CSR form, degree
// and deadend accounting, undirected connected components, and subgraph
// extraction for the scalability experiments.
package graph

import (
	"fmt"
	"math"
	"slices"

	"bepi/internal/par"
	"bepi/internal/sparse"
)

// Edge is a directed edge from Src to Dst.
type Edge struct {
	Src, Dst int
}

// Graph is an immutable directed graph over nodes 0..N-1 with out-adjacency
// stored in CSR layout. Parallel edges are collapsed and self-loops kept.
// Node ids are held in 32 bits, so a graph has fewer than 2³² nodes and
// costs 4 bytes an edge plus 12 bytes a node.
type Graph struct {
	n      int
	outPtr []int    // len n+1
	outAdj []uint32 // concatenated sorted out-neighbor lists, len M
	inDeg  []uint32
}

// New builds a graph with n nodes from the given edges. A node count above
// 2³² − 1, or an edge referencing a node outside [0, n), is an error.
// Duplicate edges are collapsed.
func New(n int, edges []Edge) (*Graph, error) {
	if err := checkNodeCount(n); err != nil {
		return nil, err
	}
	for _, e := range edges {
		if e.Src < 0 || e.Src >= n || e.Dst < 0 || e.Dst >= n {
			return nil, fmt.Errorf("graph: edge (%d,%d) out of range n=%d", e.Src, e.Dst, n)
		}
	}
	// Count each row, then fill it: outPtr[u] advances from the start of
	// u's row to its end, which is where u+1's starts.
	outPtr := make([]int, n+1)
	for _, e := range edges {
		outPtr[e.Src+1]++
	}
	for i := 0; i < n; i++ {
		outPtr[i+1] += outPtr[i]
	}
	adj := make([]uint32, len(edges))
	for _, e := range edges {
		adj[outPtr[e.Src]] = uint32(e.Dst)
		outPtr[e.Src]++
	}
	// Sort and dedupe each neighbor list in place, moving it left over the
	// duplicates collapsed before it; outPtr[u] goes back to its start.
	out, lo := 0, 0
	for u := 0; u < n; u++ {
		hi := outPtr[u]
		lst := adj[lo:hi]
		slices.Sort(lst)
		outPtr[u] = out
		for _, v := range lst {
			if out > outPtr[u] && adj[out-1] == v {
				continue
			}
			adj[out] = v
			out++
		}
		lo = hi
	}
	outPtr[n] = out
	if out < len(adj) { // duplicates collapsed: keep m words, not len(edges)
		adj = append(make([]uint32, 0, out), adj[:out]...)
	}
	inDeg := make([]uint32, n)
	for _, v := range adj {
		inDeg[v]++
	}
	return &Graph{n: n, outPtr: outPtr, outAdj: adj, inDeg: inDeg}, nil
}

// checkNodeCount refuses a node count the 32-bit node ids cannot hold.
func checkNodeCount(n int) error {
	if n < 0 || uint64(n) > math.MaxUint32 {
		return fmt.Errorf("graph: node count %d outside [0, 2³² − 1]", n)
	}
	return nil
}

// MustNew is New but panics on error; for tests and generators that
// construct edges they know are valid.
func MustNew(n int, edges []Edge) *Graph {
	g, err := New(n, edges)
	if err != nil {
		panic(err)
	}
	return g
}

// N returns the number of nodes.
func (g *Graph) N() int { return g.n }

// M returns the number of (deduplicated) directed edges.
func (g *Graph) M() int { return len(g.outAdj) }

// OutNeighbors returns the sorted out-neighbor list of node u as 32-bit
// node ids (shared storage; do not mutate).
func (g *Graph) OutNeighbors(u int) []uint32 { return g.outAdj[g.outPtr[u]:g.outPtr[u+1]] }

// OutDegree returns the out-degree of node u.
func (g *Graph) OutDegree(u int) int { return g.outPtr[u+1] - g.outPtr[u] }

// InDegree returns the in-degree of node u.
func (g *Graph) InDegree(u int) int { return int(g.inDeg[u]) }

// HasEdge reports whether the directed edge (u, v) exists.
func (g *Graph) HasEdge(u, v int) bool {
	if v < 0 || v >= g.n {
		return false
	}
	_, found := slices.BinarySearch(g.OutNeighbors(u), uint32(v))
	return found
}

// Edges returns all edges in (src, dst) order.
func (g *Graph) Edges() []Edge {
	edges := make([]Edge, 0, g.M())
	for u := 0; u < g.n; u++ {
		for _, v := range g.OutNeighbors(u) {
			edges = append(edges, Edge{u, int(v)})
		}
	}
	return edges
}

// Deadends returns the sorted list of nodes with no out-edges.
func (g *Graph) Deadends() []int {
	var d []int
	for u := 0; u < g.n; u++ {
		if g.OutDegree(u) == 0 {
			d = append(d, u)
		}
	}
	return d
}

// Adjacency returns the n×n adjacency matrix A with A[u][v] = 1 for each
// edge (u, v).
func (g *Graph) Adjacency() *sparse.CSR {
	rowPtr := make([]int, g.n+1)
	copy(rowPtr, g.outPtr)
	col := make([]int, len(g.outAdj))
	for p, v := range g.outAdj {
		col[p] = int(v)
	}
	val := make([]float64, len(col))
	for i := range val {
		val[i] = 1
	}
	return sparse.NewCSR(g.n, g.n, rowPtr, col, val)
}

// Undirected is the symmetric view of a directed graph, or of the subgraph
// induced by a node subset, over 32-bit local ids (a node's position in the
// subset). A node's neighbours are two unsorted lists: its induced
// out-neighbours, and its in-only neighbours — the induced in-neighbours
// that are not also out-neighbours. Together they hold each neighbour once
// however many directed edges join the pair, and no self-loop.
type Undirected struct {
	outPtr, inPtr []int // len n+1 each
	out, inOnly   []uint32
}

// Neighbors returns the out-neighbours and the in-only neighbours of local
// node v, in no particular order (shared storage; do not mutate).
func (u *Undirected) Neighbors(v int) (out, inOnly []uint32) {
	return u.out[u.outPtr[v]:u.outPtr[v+1]], u.inOnly[u.inPtr[v]:u.inPtr[v+1]]
}

// Degree returns the number of distinct neighbors of local node v.
func (u *Undirected) Degree(v int) int {
	return u.outPtr[v+1] - u.outPtr[v] + u.inPtr[v+1] - u.inPtr[v]
}

// Undirected builds the symmetric view of the subgraph induced by nodes,
// which must be strictly increasing and fewer than 2³² − 1; nil means every
// node. It is O(n + m) with no merge of the adjacency and no sort, and runs
// on the pool (nil: serially), each worker owning a contiguous range of the
// nodes balanced by out-degree:
//
//   - each worker writes its nodes' induced out-neighbours as local ids,
//     from the first slot its nodes' out-degrees leave it, and counts the
//     heads' in-degrees under its range (par.Scatter); the ranges' lists are
//     then moved together;
//   - after the prefix, each worker buckets its nodes under their heads, so
//     every in-list holds its tails in ascending local id, whatever the
//     worker count;
//   - each worker compacts its nodes' in-lists to the entries their
//     out-lists do not hold (the other half of a reciprocal pair u→v,
//     v→u), found by stamping the out-list first; the ranges' lists are
//     again moved together.
//
// So the view is the same at any worker count.
func (g *Graph) Undirected(nodes []int, pool *par.Pool) *Undirected {
	if nodes == nil {
		nodes = make([]int, g.n)
		for i := range nodes {
			nodes[i] = i
		}
	}
	nn := len(nodes)
	const outside = math.MaxUint32
	if uint64(nn) >= outside {
		panic(fmt.Sprintf("graph: Undirected over %d nodes exceeds 32-bit local ids", nn))
	}
	local := make([]uint32, g.n) // original id -> local id, outside the subset: outside
	for i := range local {
		local[i] = outside
	}
	for i, u := range nodes {
		if i > 0 && u <= nodes[i-1] {
			panic(fmt.Sprintf("graph: Undirected nodes not strictly increasing at %d", i))
		}
		local[u] = uint32(i)
	}
	bounds := []int{0, nn}
	if pool.Workers() > 1 && nn >= 2 {
		bounds = par.BoundsByWeight(nn, pool.Workers(), func(i int) int { return g.OutDegree(nodes[i]) })
	}
	parts := len(bounds) - 1
	// base[c] is the first slot of range c's out-lists: the out-degrees of
	// the nodes before it. end[c] is where its lists end.
	base, end := make([]int, parts+1), make([]int, parts)
	for c := 0; c < parts; c++ {
		base[c+1] = base[c]
		for _, u := range nodes[bounds[c]:bounds[c+1]] {
			base[c+1] += g.OutDegree(u)
		}
	}
	// The counting pass: induced out-neighbours written (self-loops
	// dropped), each head's in-degree counted. outPtr[i+1] is node i's end,
	// within its range's slots until the ranges are moved together.
	outPtr, out := make([]int, nn+1), make([]uint32, base[parts])
	heads := par.NewScatter[int](nn, parts)
	pool.ForBounds(bounds, func(c, lo, hi int) {
		at := base[c]
		for i := lo; i < hi; i++ {
			for _, w := range g.OutNeighbors(nodes[i]) {
				if lw := local[w]; lw != outside && lw != uint32(i) {
					out[at] = lw
					at++
					heads.Count(c, int(lw))
				}
			}
			outPtr[i+1] = at
		}
		end[c] = at
	})
	out = out[:packRanges(out, outPtr, bounds, base[:parts], end)]
	// Bucket each tail under its heads.
	in := make([]uint32, heads.Prefix())
	pool.ForBounds(bounds, func(c, lo, hi int) {
		for i := lo; i < hi; i++ {
			for _, lw := range out[outPtr[i]:outPtr[i+1]] {
				in[heads.Put(c, int(lw))] = uint32(i)
			}
		}
	})
	inPtr := heads.RowPtr()
	// Compact: node v keeps the in-neighbours not stamped as its
	// out-neighbours, written from the front of its range's entries, so
	// each list moves left. local is no longer read, so its first nn words
	// hold the first range's stamps; the other ranges get their own. A
	// range leaves its first node's start as it is, and reads the next
	// range's first start, which that range leaves too.
	stamps := make([]uint32, (parts-1)*nn)
	starts := make([]int, parts)
	pool.ForBounds(bounds, func(c, lo, hi int) {
		stamp := local[:nn]
		if c > 0 {
			stamp = stamps[(c-1)*nn : c*nn]
		} else {
			clear(stamp)
		}
		kept := inPtr[lo]
		starts[c] = kept
		start := kept
		for v := lo; v < hi; v++ {
			stop := inPtr[v+1]
			if v > lo {
				inPtr[v] = kept
			}
			for _, lw := range out[outPtr[v]:outPtr[v+1]] {
				stamp[lw] = uint32(v + 1)
			}
			for _, lw := range in[start:stop] {
				if stamp[lw] != uint32(v+1) {
					in[kept] = lw
					kept++
				}
			}
			start = stop
		}
		end[c] = kept
	})
	kept := packRanges(in, inPtr, bounds, starts, end)
	return &Undirected{outPtr: outPtr, inPtr: inPtr, out: out, inOnly: in[:kept]}
}

// packRanges moves the lists of the node ranges bounds cuts together: range
// c's lists fill list[from[c]:to[c]], and for each node i of the range but
// its first, ptr[i] is where its list starts. Each range's lists move left
// to follow the previous range's, ptr moves with them, and the ranges'
// first starts and the last end are set. It returns the end of the lists.
func packRanges(list []uint32, ptr []int, bounds, from, to []int) int {
	at := 0
	for c := range from {
		lo, hi := bounds[c], bounds[c+1]
		if shift := from[c] - at; shift != 0 {
			copy(list[at:], list[from[c]:to[c]])
			for i := lo + 1; i < hi; i++ {
				ptr[i] -= shift
			}
		}
		ptr[lo] = at
		at += to[c] - from[c]
	}
	ptr[bounds[len(from)]] = at
	return at
}

// NodePrefix returns the principal subgraph on nodes [0, x): the upper-left
// part of the adjacency matrix, the paper's scalability protocol (§4.4).
func (g *Graph) NodePrefix(x int) *Graph {
	if x < 0 || x > g.n {
		panic(fmt.Sprintf("graph: NodePrefix %d out of range [0,%d]", x, g.n))
	}
	var edges []Edge
	for u := 0; u < x; u++ {
		for _, v := range g.OutNeighbors(u) {
			if int(v) < x {
				edges = append(edges, Edge{u, int(v)})
			}
		}
	}
	return MustNew(x, edges)
}

// Relabel returns a graph in which old node i becomes perm[i].
func (g *Graph) Relabel(perm []int) *Graph {
	if len(perm) != g.n {
		panic(fmt.Sprintf("graph: perm length %d want %d", len(perm), g.n))
	}
	edges := make([]Edge, 0, g.M())
	for u := 0; u < g.n; u++ {
		for _, v := range g.OutNeighbors(u) {
			edges = append(edges, Edge{perm[u], perm[v]})
		}
	}
	return MustNew(g.n, edges)
}

// String returns a short description.
func (g *Graph) String() string {
	return fmt.Sprintf("Graph{n=%d, m=%d, deadends=%d}", g.n, g.M(), len(g.Deadends()))
}
