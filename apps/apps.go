// Package apps builds the graph-mining applications that motivate RWR in
// the BePI paper's introduction — personalized ranking, link prediction,
// local community detection, global PageRank and edge anomaly scoring — on
// top of the bepi engine. Each application is a thin, well-tested layer
// over Engine.Query, demonstrating the "one index, many applications"
// usage the preprocessing approach is designed for.
package apps

import (
	"fmt"
	"math"
	"sort"

	"bepi"
)

// Recommender suggests new links for a node by RWR proximity, the link
// recommendation use case of Figure 2.
type Recommender struct {
	eng *bepi.Engine
	g   *bepi.Graph
}

// NewRecommender builds a recommender over a preprocessed engine and the
// graph it was built from.
func NewRecommender(eng *bepi.Engine, g *bepi.Graph) (*Recommender, error) {
	if eng.N() != g.N() {
		return nil, fmt.Errorf("apps: engine has %d nodes, graph %d", eng.N(), g.N())
	}
	return &Recommender{eng: eng, g: g}, nil
}

// Recommend returns up to k nodes ranked by RWR score w.r.t. u, excluding
// u itself and u's existing out-neighbors.
func (r *Recommender) Recommend(u, k int) ([]bepi.Ranked, error) {
	scores, err := r.eng.Query(u)
	if err != nil {
		return nil, err
	}
	type cand struct {
		node  int
		score float64
	}
	cands := make([]cand, 0, len(scores))
	for node, s := range scores {
		if node == u || s <= 0 || r.g.HasEdge(u, node) {
			continue
		}
		cands = append(cands, cand{node, s})
	}
	sort.Slice(cands, func(i, j int) bool {
		if cands[i].score != cands[j].score {
			return cands[i].score > cands[j].score
		}
		return cands[i].node < cands[j].node
	})
	if k > len(cands) {
		k = len(cands)
	}
	out := make([]bepi.Ranked, k)
	for i := 0; i < k; i++ {
		out[i] = bepi.Ranked{Node: cands[i].node, Score: cands[i].score}
	}
	return out, nil
}

// HoldoutResult reports a link-prediction evaluation.
type HoldoutResult struct {
	Tested int
	Hits   int // hidden endpoint ranked within the top-k recommendations
	K      int
}

// HitRate returns Hits/Tested.
func (h HoldoutResult) HitRate() float64 {
	if h.Tested == 0 {
		return 0
	}
	return float64(h.Hits) / float64(h.Tested)
}

// EvaluateHoldout measures hits@k: for each (src, hiddenDst) pair, whether
// hiddenDst appears in the top-k recommendations for src. The engine must
// have been built on the graph WITHOUT the hidden edges.
func (r *Recommender) EvaluateHoldout(hidden []bepi.Edge, k int) (HoldoutResult, error) {
	res := HoldoutResult{K: k}
	for _, h := range hidden {
		recs, err := r.Recommend(h.Src, k)
		if err != nil {
			return res, err
		}
		res.Tested++
		for _, rec := range recs {
			if rec.Node == h.Dst {
				res.Hits++
				break
			}
		}
	}
	return res, nil
}

// Community is a local community found by a conductance sweep.
type Community struct {
	Members     []int
	Conductance float64
}

// Contains reports membership.
func (c Community) Contains(u int) bool {
	for _, m := range c.Members {
		if m == u {
			return true
		}
	}
	return false
}

// LocalCommunity finds the community around seed by the standard RWR sweep
// (Andersen–Chung–Lang): order nodes by degree-normalized RWR score and cut
// at the prefix with minimal conductance. minSize avoids trivially small
// cuts (pass 0 for no minimum).
func LocalCommunity(eng *bepi.Engine, g *bepi.Graph, seed, minSize int) (Community, error) {
	scores, err := eng.Query(seed)
	if err != nil {
		return Community{}, err
	}
	type cand struct {
		node int
		val  float64
	}
	var order []cand
	for u := 0; u < g.N(); u++ {
		d := g.OutDegree(u)
		if d == 0 || scores[u] <= 0 {
			continue
		}
		order = append(order, cand{u, scores[u] / float64(d)})
	}
	sort.Slice(order, func(i, j int) bool {
		if order[i].val != order[j].val {
			return order[i].val > order[j].val
		}
		return order[i].node < order[j].node
	})
	if len(order) == 0 {
		return Community{Members: []int{seed}, Conductance: 1}, nil
	}

	totalVol := 0
	for u := 0; u < g.N(); u++ {
		totalVol += g.OutDegree(u)
	}
	inSet := make([]bool, g.N())
	vol, cut := 0, 0
	bestPhi := math.Inf(1)
	bestSize := 0
	if minSize < 1 {
		minSize = 1
	}
	for i, c := range order {
		u := c.node
		inSet[u] = true
		vol += g.OutDegree(u)
		for _, v := range g.Internal().OutNeighbors(u) {
			if inSet[v] {
				cut--
			} else {
				cut++
			}
		}
		if vol == 0 || vol >= totalVol {
			break
		}
		denom := vol
		if totalVol-vol < denom {
			denom = totalVol - vol
		}
		phi := float64(cut) / float64(denom)
		if i+1 >= minSize && phi < bestPhi {
			bestPhi, bestSize = phi, i+1
		}
	}
	if bestSize == 0 {
		bestSize = len(order)
		bestPhi = 1
	}
	members := make([]int, bestSize)
	for i := 0; i < bestSize; i++ {
		members[i] = order[i].node
	}
	sort.Ints(members)
	return Community{Members: members, Conductance: bestPhi}, nil
}

// Conductance returns cut(S, V∖S) / min(vol(S), vol(V∖S)) for the node set,
// treating edges as directed volume. It returns 1 for empty or full sets.
func Conductance(g *bepi.Graph, set []int) float64 {
	in := make(map[int]bool, len(set))
	for _, u := range set {
		in[u] = true
	}
	totalVol := 0
	for u := 0; u < g.N(); u++ {
		totalVol += g.OutDegree(u)
	}
	vol, cut := 0, 0
	for _, u := range set {
		vol += g.OutDegree(u)
		for _, v := range g.Internal().OutNeighbors(u) {
			if !in[int(v)] {
				cut++
			}
		}
	}
	if vol == 0 || vol >= totalVol {
		return 1
	}
	denom := vol
	if totalVol-vol < denom {
		denom = totalVol - vol
	}
	return float64(cut) / float64(denom)
}

// PageRank computes the global PageRank vector — Personalized PageRank with
// the uniform restart distribution — through the same preprocessed engine.
func PageRank(eng *bepi.Engine) ([]float64, error) {
	n := eng.N()
	if n == 0 {
		return nil, nil
	}
	q := make([]float64, n)
	u := 1 / float64(n)
	for i := range q {
		q[i] = u
	}
	return eng.Personalized(q)
}

// EdgeAnomaly scores how surprising the edge (u, v) is: the "normality" is
// v's RWR score from u relative to u's other neighbors (Sun et al.'s
// neighborhood-formation idea). The returned anomaly score is in [0, 1];
// 0 means v is u's most expected neighbor, 1 the least.
func EdgeAnomaly(eng *bepi.Engine, g *bepi.Graph, u, v int) (float64, error) {
	scores, err := eng.Query(u)
	if err != nil {
		return 0, err
	}
	nbrs := g.Internal().OutNeighbors(u)
	if len(nbrs) <= 1 {
		return 0, nil
	}
	below := 0
	for _, w := range nbrs {
		if int(w) == v {
			continue
		}
		if scores[w] < scores[v] {
			below++
		}
	}
	return 1 - float64(below)/float64(len(nbrs)-1), nil
}
