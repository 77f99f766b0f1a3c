// Community detection: find the local community around a seed node with a
// conductance sweep over the RWR ranking (apps.LocalCommunity, the
// Andersen–Chung–Lang pattern the paper cites for RWR-based community
// detection). The graph is a planted-partition network, so the recovered
// community can be checked against the ground truth.
//
//	go run ./examples/community
package main

import (
	"fmt"
	"log"
	"math/rand"

	"bepi"
	"bepi/apps"
)

const (
	groups    = 4
	groupSize = 100
	pIn       = 0.10 // edge probability inside a group
	pOut      = 0.002
	seedNode  = 5 // belongs to group 0
)

func main() {
	g, err := planted(groups, groupSize, pIn, pOut, 11)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("planted-partition graph: %d nodes in %d groups, %d edges\n",
		g.N(), groups, g.M())

	eng, err := bepi.New(g)
	if err != nil {
		log.Fatal(err)
	}
	// Degree-normalized sweep: order nodes by score/degree and cut where
	// conductance is minimal, over sets of at least 5 nodes.
	c, err := apps.LocalCommunity(eng, g, seedNode, 5)
	if err != nil {
		log.Fatal(err)
	}
	correct := 0
	for _, u := range c.Members {
		if u/groupSize == seedNode/groupSize {
			correct++
		}
	}
	size := len(c.Members)
	fmt.Printf("sweep cut: community of %d nodes with conductance %.3f\n", size, c.Conductance)
	fmt.Printf("precision vs planted group: %.1f%% (%d/%d in the seed's group of %d)\n",
		100*float64(correct)/float64(size), correct, size, groupSize)
}

// planted builds a directed planted-partition graph (edges added both ways).
func planted(groups, size int, pIn, pOut float64, seed int64) (*bepi.Graph, error) {
	rng := rand.New(rand.NewSource(seed))
	n := groups * size
	var edges []bepi.Edge
	for u := 0; u < n; u++ {
		for v := u + 1; v < n; v++ {
			p := pOut
			if u/size == v/size {
				p = pIn
			}
			if rng.Float64() < p {
				edges = append(edges, bepi.Edge{Src: u, Dst: v}, bepi.Edge{Src: v, Dst: u})
			}
		}
	}
	return bepi.NewGraph(n, edges)
}
