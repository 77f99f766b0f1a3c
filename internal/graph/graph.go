// Package graph provides the directed-graph representation used by the BePI
// reproduction: construction from edge lists, adjacency in CSR form, degree
// and deadend accounting, undirected connected components, and subgraph
// extraction for the scalability experiments.
package graph

import (
	"fmt"
	"math"
	"sort"

	"bepi/internal/sparse"
)

// Edge is a directed edge from Src to Dst.
type Edge struct {
	Src, Dst int
}

// Graph is an immutable directed graph over nodes 0..N-1 with out-adjacency
// stored in CSR layout. Parallel edges are collapsed and self-loops kept.
type Graph struct {
	n      int
	outPtr []int // len n+1
	outAdj []int // concatenated sorted out-neighbor lists
	inDeg  []int
}

// New builds a graph with n nodes from the given edges. Edges referencing
// nodes outside [0, n) cause an error. Duplicate edges are collapsed.
func New(n int, edges []Edge) (*Graph, error) {
	if n < 0 {
		return nil, fmt.Errorf("graph: negative node count %d", n)
	}
	for _, e := range edges {
		if e.Src < 0 || e.Src >= n || e.Dst < 0 || e.Dst >= n {
			return nil, fmt.Errorf("graph: edge (%d,%d) out of range n=%d", e.Src, e.Dst, n)
		}
	}
	outPtr := make([]int, n+1)
	for _, e := range edges {
		outPtr[e.Src+1]++
	}
	for i := 0; i < n; i++ {
		outPtr[i+1] += outPtr[i]
	}
	adj := make([]int, len(edges))
	next := make([]int, n)
	copy(next, outPtr[:n])
	for _, e := range edges {
		adj[next[e.Src]] = e.Dst
		next[e.Src]++
	}
	// Sort and dedupe each neighbor list.
	out := 0
	newPtr := make([]int, n+1)
	for i := 0; i < n; i++ {
		lst := adj[outPtr[i]:outPtr[i+1]]
		sort.Ints(lst)
		start := out
		for _, v := range lst {
			if out > start && adj[out-1] == v {
				continue
			}
			adj[out] = v
			out++
		}
		newPtr[i+1] = out
	}
	adj = adj[:out]
	inDeg := make([]int, n)
	for _, v := range adj {
		inDeg[v]++
	}
	return &Graph{n: n, outPtr: newPtr, outAdj: adj, inDeg: inDeg}, nil
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

// OutNeighbors returns the sorted out-neighbor list of node u (shared
// storage; do not mutate).
func (g *Graph) OutNeighbors(u int) []int { return g.outAdj[g.outPtr[u]:g.outPtr[u+1]] }

// OutDegree returns the out-degree of node u.
func (g *Graph) OutDegree(u int) int { return g.outPtr[u+1] - g.outPtr[u] }

// InDegree returns the in-degree of node u.
func (g *Graph) InDegree(u int) int { return g.inDeg[u] }

// HasEdge reports whether the directed edge (u, v) exists.
func (g *Graph) HasEdge(u, v int) bool {
	lst := g.OutNeighbors(u)
	p := sort.SearchInts(lst, v)
	return p < len(lst) && lst[p] == v
}

// Edges returns all edges in (src, dst) order.
func (g *Graph) Edges() []Edge {
	edges := make([]Edge, 0, g.M())
	for u := 0; u < g.n; u++ {
		for _, v := range g.OutNeighbors(u) {
			edges = append(edges, Edge{u, v})
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
	copy(col, g.outAdj)
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
// node. It is O(n + m) with no merge and no sort: one counting pass over the
// out-adjacency writes each node's induced out-neighbours as local ids and
// counts in-degrees; a counting sort over those ids buckets the in-lists;
// and each node's in-list is compacted in place to the entries its
// out-list does not hold (the other half of a reciprocal pair u→v, v→u),
// found by stamping the out-list first.
func (g *Graph) Undirected(nodes []int) *Undirected {
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
	m := 0
	for i, u := range nodes {
		if i > 0 && u <= nodes[i-1] {
			panic(fmt.Sprintf("graph: Undirected nodes not strictly increasing at %d", i))
		}
		local[u] = uint32(i)
		m += g.OutDegree(u)
	}
	// The counting pass: induced out-neighbours written (self-loops
	// dropped), each head's in-degree counted.
	outPtr, inPtr, out := make([]int, nn+1), make([]int, nn+1), make([]uint32, 0, m)
	for i, v := range nodes {
		for _, w := range g.OutNeighbors(v) {
			if lw := local[w]; lw != outside && lw != uint32(i) {
				out = append(out, lw)
				inPtr[lw+1]++
			}
		}
		outPtr[i+1] = len(out)
	}
	for i := 0; i < nn; i++ {
		inPtr[i+1] += inPtr[i]
	}
	// Bucket each tail under its heads. inPtr[v] advances to the end of
	// v's bucket, which is where v+1's starts.
	in := make([]uint32, len(out))
	for i := 0; i < nn; i++ {
		for _, lw := range out[outPtr[i]:outPtr[i+1]] {
			in[inPtr[lw]] = uint32(i)
			inPtr[lw]++
		}
	}
	// Compact: node v keeps the in-neighbours not stamped as its
	// out-neighbours, written from the front, so each list moves left.
	// local is no longer read, so its first nn words hold the stamps.
	stamp := local[:nn]
	clear(stamp)
	kept, start := 0, 0
	for v := 0; v < nn; v++ {
		end := inPtr[v]
		inPtr[v] = kept
		for _, lw := range out[outPtr[v]:outPtr[v+1]] {
			stamp[lw] = uint32(v + 1)
		}
		for _, lw := range in[start:end] {
			if stamp[lw] != uint32(v+1) {
				in[kept] = lw
				kept++
			}
		}
		start = end
	}
	inPtr[nn] = kept
	return &Undirected{outPtr: outPtr, inPtr: inPtr, out: out, inOnly: in[:kept]}
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
			if v < x {
				edges = append(edges, Edge{u, v})
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
