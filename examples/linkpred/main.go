// Link prediction: hide a fraction of a graph's edges, rank candidate
// endpoints by RWR score, and measure how often a hidden edge appears in
// the top-k (apps.Recommender.EvaluateHoldout) — one of the RWR
// applications (Backstrom & Leskovec) the paper's introduction motivates.
// A random ranker is the control.
//
//	go run ./examples/linkpred
package main

import (
	"fmt"
	"log"
	"math/rand"

	"bepi"
	"bepi/apps"
)

const (
	holdoutPerNode = 1    // hidden out-edges per evaluated node
	topK           = 20   // a hit = hidden endpoint ranked in the top-k
	evalNodes      = 150  // how many nodes to evaluate
	seed           = 2027 // rng seed
)

func main() {
	full := bepi.RMAT(12, 10, 7)
	fmt.Printf("graph: %d nodes, %d edges\n", full.N(), full.M())
	rng := rand.New(rand.NewSource(seed))

	// Hold out one out-edge from each evaluated node (only nodes with
	// enough neighbors, so the train graph keeps them connected).
	edges := full.Edges()
	var tests []bepi.Edge
	hiddenSet := map[bepi.Edge]bool{}
	perm := rng.Perm(full.N())
	for _, u := range perm {
		if len(tests) >= evalNodes {
			break
		}
		nbrs := full.OutNeighbors(u)
		if len(nbrs) < 3 {
			continue
		}
		v := nbrs[rng.Intn(len(nbrs))]
		if u == v {
			continue
		}
		h := bepi.Edge{Src: u, Dst: v}
		if !hiddenSet[h] {
			hiddenSet[h] = true
			tests = append(tests, h)
		}
	}
	var trainEdges []bepi.Edge
	for _, e := range edges {
		if !hiddenSet[e] {
			trainEdges = append(trainEdges, e)
		}
	}
	train, err := bepi.NewGraph(full.N(), trainEdges)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("held out %d edges; training on %d\n\n", len(tests), train.M())

	eng, err := bepi.New(train)
	if err != nil {
		log.Fatal(err)
	}

	rec, err := apps.NewRecommender(eng, train)
	if err != nil {
		log.Fatal(err)
	}
	res, err := rec.EvaluateHoldout(tests, topK)
	if err != nil {
		log.Fatal(err)
	}
	rwrHits, randHits := res.Hits, 0
	for _, h := range tests {
		// Random control: top-k out of all non-neighbors.
		nonNbrs := full.N() - train.OutDegree(h.Src) - 1
		if nonNbrs > 0 && rng.Float64() < float64(topK)/float64(nonNbrs) {
			randHits++
		}
	}

	fmt.Printf("hits@%d over %d held-out edges:\n", topK, len(tests))
	fmt.Printf("  RWR ranking:    %3d (%.1f%%)\n", rwrHits, 100*float64(rwrHits)/float64(len(tests)))
	fmt.Printf("  random ranking: %3d (%.1f%%)\n", randHits, 100*float64(randHits)/float64(len(tests)))
	if rwrHits > randHits {
		fmt.Println("\nRWR recovers hidden links far better than chance — the paper's link-prediction use case.")
	}
}
