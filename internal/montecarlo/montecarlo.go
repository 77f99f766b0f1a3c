// Package montecarlo implements Monte Carlo estimation of RWR scores, the
// approximate family the paper surveys in §5 (Fogaras et al., Bahmani et
// al.). It exists as a contrast to BePI: no preprocessing and sublinear
// per-estimate cost, but only O(1/√W) accuracy in the number of simulated
// walks W — which is why the paper's applications, needing exact scores,
// motivate BePI instead. The estimator uses the endpoint identity: the RWR
// score r(u) equals the probability that a walk which terminates with
// probability c at each step (and dies at deadends) ends at u.
package montecarlo

import (
	"fmt"
	"math/rand"

	"bepi/internal/graph"
)

// Estimator simulates restart walks on a graph.
type Estimator struct {
	g    *graph.Graph
	c    float64
	seed int64
}

// New returns an estimator with restart probability c (0 < c < 1).
func New(g *graph.Graph, c float64, seed int64) (*Estimator, error) {
	if c <= 0 || c >= 1 {
		return nil, fmt.Errorf("montecarlo: restart probability %v out of (0,1)", c)
	}
	return &Estimator{g: g, c: c, seed: seed}, nil
}

// Query estimates the RWR vector for the seed node using walks simulated
// random walks. The estimates are unbiased; their standard error scales as
// O(1/√walks).
func (e *Estimator) Query(seedNode, walks int) ([]float64, error) {
	n := e.g.N()
	if seedNode < 0 || seedNode >= n {
		return nil, fmt.Errorf("montecarlo: seed %d out of range [0,%d)", seedNode, n)
	}
	if walks <= 0 {
		return nil, fmt.Errorf("montecarlo: walks must be positive, got %d", walks)
	}
	rng := rand.New(rand.NewSource(e.seed))
	counts := make([]int, n)
	for w := 0; w < walks; w++ {
		u := seedNode
		for {
			if rng.Float64() < e.c {
				counts[u]++
				break
			}
			nbrs := e.g.OutNeighbors(u)
			if len(nbrs) == 0 {
				// Dead walk: in the linear RWR formulation this mass
				// simply vanishes (H's trailing identity block).
				break
			}
			u = int(nbrs[rng.Intn(len(nbrs))])
		}
	}
	r := make([]float64, n)
	inv := 1 / float64(walks)
	for u, cnt := range counts {
		r[u] = float64(cnt) * inv
	}
	return r, nil
}
