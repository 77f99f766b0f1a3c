// Anomaly detection: score how surprising each of a node's links is by RWR
// proximity (Sun et al.'s neighborhood-formation idea, cited in the paper's
// §5). A planted "random cross-link" in an otherwise community-structured
// graph should surface with the highest anomaly score.
//
//	go run ./examples/anomaly
package main

import (
	"fmt"
	"log"
	"math/rand"
	"sort"

	"bepi"
	"bepi/apps"
)

const (
	groups    = 6
	groupSize = 40
	pIn       = 0.25
	seed      = 13
)

func main() {
	rng := rand.New(rand.NewSource(seed))
	n := groups * groupSize
	var edges []bepi.Edge
	for u := 0; u < n; u++ {
		for v := u + 1; v < n; v++ {
			if u/groupSize == v/groupSize && rng.Float64() < pIn {
				edges = append(edges, bepi.Edge{Src: u, Dst: v}, bepi.Edge{Src: v, Dst: u})
			}
		}
	}
	// Plant one cross-community link for node 0 (group 0 → group 3).
	intruder := 3*groupSize + 7
	edges = append(edges, bepi.Edge{Src: 0, Dst: intruder}, bepi.Edge{Src: intruder, Dst: 0})

	g, err := bepi.NewGraph(n, edges)
	if err != nil {
		log.Fatal(err)
	}
	eng, err := bepi.New(g)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("community graph: %d nodes, %d edges, one planted cross-link 0→%d\n\n",
		g.N(), g.M(), intruder)

	type scored struct {
		dst   int
		score float64
	}
	var results []scored
	for _, v := range g.Internal().OutNeighbors(0) {
		a, err := apps.EdgeAnomaly(eng, g, 0, int(v))
		if err != nil {
			log.Fatal(err)
		}
		results = append(results, scored{int(v), a})
	}
	sort.Slice(results, func(i, j int) bool { return results[i].score > results[j].score })

	fmt.Println("anomaly scores for node 0's links (most anomalous first):")
	for i, r := range results {
		marker := ""
		if r.dst == intruder {
			marker = "   <-- planted cross-community link"
		}
		fmt.Printf("%2d. 0 -> %-4d anomaly %.3f%s\n", i+1, r.dst, r.score, marker)
		if i >= 7 && r.dst != intruder {
			fmt.Printf("    ... (%d more)\n", len(results)-i-1)
			break
		}
	}
	if results[0].dst == intruder {
		fmt.Println("\nthe planted link is the most anomalous — RWR proximity exposes it.")
	}
}
