package graph

import (
	"cmp"
	"fmt"
	"slices"
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
// from the graph. The changes are walked in (Src, Dst) order, each list once
// beside the rows: a list already in that order, as a Dynamic flush passes
// them, is read as it is, and any other is sorted in a copy; the caller's
// lists are never reordered.
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

	add, del = sortedEdges(add), sortedEdges(del)
	for p := 1; p < len(add); p++ {
		if add[p] == add[p-1] {
			return nil, fmt.Errorf("graph: duplicate insert (%d,%d)", add[p].Src, add[p].Dst)
		}
	}
	for p := 1; p < len(del); p++ {
		if del[p] == del[p-1] {
			return nil, fmt.Errorf("graph: duplicate delete (%d,%d)", del[p].Src, del[p].Dst)
		}
	}

	// The result holds exactly the m edges a valid delta leaves; an invalid
	// one is refused below, whatever its appends allocated. The rows are
	// walked in order, and with them a cursor into each sorted change list.
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
	ai, di := 0, 0
	for i := 0; i < n; i++ {
		var old []uint32
		if i < g.n {
			old = g.OutNeighbors(i)
		}
		// aEnd and dEnd end row i's inserts and deletes.
		aEnd, dEnd := ai, di
		for aEnd < len(add) && add[aEnd].Src == i {
			aEnd++
		}
		for dEnd < len(del) && del[dEnd].Src == i {
			dEnd++
		}
		if ai == aEnd && di == dEnd {
			adj = append(adj, old...)
			outPtr[i+1] = len(adj)
			continue
		}
		for _, v := range old {
			for ai < aEnd && add[ai].Dst < int(v) {
				adj = append(adj, uint32(add[ai].Dst))
				ai++
			}
			if ai < aEnd && add[ai].Dst == int(v) {
				return nil, fmt.Errorf("graph: insert of existing edge (%d,%d)", i, v)
			}
			if di < dEnd && del[di].Dst < int(v) {
				return nil, fmt.Errorf("graph: delete of missing edge (%d,%d)", i, del[di].Dst)
			}
			if di < dEnd && del[di].Dst == int(v) {
				di++
				continue
			}
			adj = append(adj, v)
		}
		for ; ai < aEnd; ai++ {
			adj = append(adj, uint32(add[ai].Dst))
		}
		if di < dEnd {
			return nil, fmt.Errorf("graph: delete of missing edge (%d,%d)", i, del[di].Dst)
		}
		outPtr[i+1] = len(adj)
	}
	return &Graph{n: n, outPtr: outPtr, outAdj: adj, inDeg: inDeg}, nil
}

// compareEdges orders edges by (Src, Dst).
func compareEdges(a, b Edge) int {
	return cmp.Or(cmp.Compare(a.Src, b.Src), cmp.Compare(a.Dst, b.Dst))
}

// sortedEdges returns es in (Src, Dst) order: es itself when it is already
// sorted, a sorted copy otherwise, so a caller's list is never reordered.
func sortedEdges(es []Edge) []Edge {
	if slices.IsSortedFunc(es, compareEdges) {
		return es
	}
	es = slices.Clone(es)
	slices.SortFunc(es, compareEdges)
	return es
}
