package main

import (
	"fmt"
	"math"
	"sort"

	"bepi"
)

// The oracle is an independent reference for RWR scores: a dense power
// iteration over the raw edge list, sharing no code with the program's
// sparse kernels, orderings or solvers. It solves the same system the
// program does, r = (1−c)·Ãᵀr + c·q with Ã the row-normalised adjacency
// and dead ends leaking their mass.

const (
	restartProb = 0.05 // the program's default c
	oracleTol   = 1e-6 // accepted L1 distance between an answer and the oracle
)

// oracleScores iterates r ← (1−c)·Ãᵀr + c·q from r = c·q until the L1 change
// drops below 1e-10; the error then is below 1e-10/c.
func oracleScores(n int, edges []bepi.Edge, seed int) []float64 {
	w := make([]float64, n) // (1−c)/outdeg
	for _, e := range edges {
		w[e.Src]++
	}
	for i, d := range w {
		if d > 0 {
			w[i] = (1 - restartProb) / d
		}
	}
	r := make([]float64, n)
	next := make([]float64, n)
	r[seed] = restartProb
	for it := 0; it < 2000; it++ {
		for i := range next {
			next[i] = 0
		}
		next[seed] = restartProb
		for _, e := range edges {
			next[e.Dst] += w[e.Src] * r[e.Src]
		}
		var diff float64
		for i := range r {
			diff += math.Abs(next[i] - r[i])
		}
		r, next = next, r
		if diff < 1e-10 {
			break
		}
	}
	return r
}

// wellFormed is the check every full-vector answer gets: the right length,
// and the seed itself holding at least its restart mass (up to solver
// tolerance).
func wellFormed(scores []float64, seed, n int) bool {
	return len(scores) == n && scores[seed] >= restartProb*(1-1e-6)
}

func l1(a, b []float64) float64 {
	if len(a) != len(b) {
		return math.Inf(1)
	}
	var d float64
	for i := range a {
		d += math.Abs(a[i] - b[i])
	}
	return d
}

// checkScores compares a full score vector with the oracle.
func checkScores(n int, edges []bepi.Edge, seed int, got []float64) error {
	if d := l1(got, oracleScores(n, edges, seed)); !(d <= oracleTol) {
		return fmt.Errorf("seed %d: L1 distance to oracle %.3g > %.0e", seed, d, oracleTol)
	}
	return nil
}

// checkTopK verifies that nodes is the seed's top-k set: distinct nodes,
// none the seed, none scoring below the oracle's k-th best by more than the
// oracle's own precision (so an exact tie at the boundary passes either
// way), and no node with a positive oracle score left out while the list is
// shorter than k.
func checkTopK(n int, edges []bepi.Edge, seed, k int, nodes []int) error {
	ref := oracleScores(n, edges, seed)
	const eps = 1e-9
	others := make([]float64, 0, n)
	positive := 0
	for u, s := range ref {
		if u != seed {
			others = append(others, s)
			if s > eps {
				positive++
			}
		}
	}
	sort.Sort(sort.Reverse(sort.Float64Slice(others)))
	if k > len(others) {
		k = len(others)
	}
	if len(nodes) > k || len(nodes) < min(k, positive) {
		return fmt.Errorf("seed %d: %d ranked nodes, want %d (%d nodes score above zero)", seed, len(nodes), k, positive)
	}
	if k == 0 {
		return nil
	}
	kth := others[k-1]
	seen := make(map[int]bool, k)
	for _, u := range nodes {
		if u == seed || u < 0 || u >= n || seen[u] {
			return fmt.Errorf("seed %d: bad or repeated node %d in top-%d", seed, u, k)
		}
		seen[u] = true
		if ref[u] < kth-eps {
			return fmt.Errorf("seed %d: node %d (oracle score %.3g) is not in the top-%d (k-th score %.3g)", seed, u, ref[u], k, kth)
		}
	}
	return nil
}
