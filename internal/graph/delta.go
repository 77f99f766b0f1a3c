package graph

import (
	"fmt"
	"sort"
)

// WithEdgeDeltas returns a new graph with n nodes (n ≥ g.N(); the extra
// nodes are appended with no edges) whose edge set is g's with del removed
// and add inserted. The receiver is unchanged and shares no storage with the
// result, and the result is identical to New(n, merged edge list) — rows
// stay sorted and deduplicated — at O(M + changes) cost instead of
// O(M log M). Inserting an edge the graph already has, deleting one it
// lacks, or listing the same edge twice (including in both lists — the
// batch is a set of net changes, not a sequential log) is an error: callers
// hold the exact change set, and a silent collapse would desynchronize it
// from the graph.
func (g *Graph) WithEdgeDeltas(n int, add, del []Edge) (*Graph, error) {
	if n < g.n {
		return nil, fmt.Errorf("graph: node count shrank %d → %d", g.n, n)
	}
	if err := checkNodeCount(n); err != nil {
		return nil, err
	}
	for _, e := range add {
		if e.Src < 0 || e.Src >= n || e.Dst < 0 || e.Dst >= n {
			return nil, fmt.Errorf("graph: edge (%d,%d) out of range n=%d", e.Src, e.Dst, n)
		}
	}
	for _, e := range del {
		if e.Src < 0 || e.Src >= g.n || e.Dst < 0 || e.Dst >= g.n {
			return nil, fmt.Errorf("graph: edge (%d,%d) out of range n=%d", e.Src, e.Dst, g.n)
		}
	}

	type rowDelta struct{ add, del []int }
	rows := make(map[int]*rowDelta, len(add)+len(del))
	rowOf := func(src int) *rowDelta {
		rd := rows[src]
		if rd == nil {
			rd = &rowDelta{}
			rows[src] = rd
		}
		return rd
	}
	for _, e := range add {
		rd := rowOf(e.Src)
		rd.add = append(rd.add, e.Dst)
	}
	for _, e := range del {
		rd := rowOf(e.Src)
		rd.del = append(rd.del, e.Dst)
	}
	for src, rd := range rows {
		sort.Ints(rd.add)
		sort.Ints(rd.del)
		for p := 1; p < len(rd.add); p++ {
			if rd.add[p] == rd.add[p-1] {
				return nil, fmt.Errorf("graph: duplicate insert (%d,%d)", src, rd.add[p])
			}
		}
		for p := 1; p < len(rd.del); p++ {
			if rd.del[p] == rd.del[p-1] {
				return nil, fmt.Errorf("graph: duplicate delete (%d,%d)", src, rd.del[p])
			}
		}
	}

	// The result holds exactly the m edges a valid delta leaves; an invalid
	// one is refused below, whatever its appends allocated.
	outPtr := make([]int, n+1)
	adj := make([]uint32, 0, max(0, g.M()+len(add)-len(del)))
	inDeg := make([]uint32, n)
	copy(inDeg, g.inDeg)
	for _, e := range del {
		inDeg[e.Dst]--
	}
	for _, e := range add {
		inDeg[e.Dst]++
	}
	for i := 0; i < n; i++ {
		var old []uint32
		if i < g.n {
			old = g.OutNeighbors(i)
		}
		rd := rows[i]
		if rd == nil {
			adj = append(adj, old...)
			outPtr[i+1] = len(adj)
			continue
		}
		ai, di := 0, 0
		for _, v := range old {
			for ai < len(rd.add) && rd.add[ai] < int(v) {
				adj = append(adj, uint32(rd.add[ai]))
				ai++
			}
			if ai < len(rd.add) && rd.add[ai] == int(v) {
				return nil, fmt.Errorf("graph: insert of existing edge (%d,%d)", i, v)
			}
			for di < len(rd.del) && rd.del[di] < int(v) {
				return nil, fmt.Errorf("graph: delete of missing edge (%d,%d)", i, rd.del[di])
			}
			if di < len(rd.del) && rd.del[di] == int(v) {
				di++
				continue
			}
			adj = append(adj, v)
		}
		for _, v := range rd.add[ai:] {
			adj = append(adj, uint32(v))
		}
		if di < len(rd.del) {
			return nil, fmt.Errorf("graph: delete of missing edge (%d,%d)", i, rd.del[di])
		}
		outPtr[i+1] = len(adj)
	}
	return &Graph{n: n, outPtr: outPtr, outAdj: adj, inDeg: inDeg}, nil
}
