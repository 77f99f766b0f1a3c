package core

import (
	"fmt"

	"bepi/internal/dense"
	"bepi/internal/graph"
	"bepi/internal/par"
	"bepi/internal/reorder"
	"bepi/internal/sparse"
)

// ExactDense computes the exact RWR vector r = c·H⁻¹·q by a dense solve.
// It is the ground truth for accuracy experiments and tests; cost is
// O(n³), so it is only usable on small graphs.
func ExactDense(g *graph.Graph, c float64, seed int) ([]float64, error) {
	n := g.N()
	if seed < 0 || seed >= n {
		return nil, fmt.Errorf("core: seed %d out of range [0,%d)", seed, n)
	}
	h := BuildH(g, nil, c)
	hd := dense.New(n, n)
	col := h.ColIdx()
	val := h.Values()
	for i := 0; i < n; i++ {
		s, e := h.RowRange(i)
		for p := s; p < e; p++ {
			hd.Set(i, col[p], val[p])
		}
	}
	b := make([]float64, n)
	b[seed] = c
	return hd.Solve(b)
}

// SchurProfile reports the sizes that govern the hub-ratio trade-off of
// Figure 4: |S|, |H22| and |H21·H11⁻¹·H12| for a given hub ratio k.
type SchurProfile struct {
	K          float64
	N1, N2, N3 int
	SchurNNZ   int // |S|
	H22NNZ     int // |H22|
	CrossNNZ   int // |H21·H11⁻¹·H12|
}

// ProfileSchur computes the Schur complement for hub ratio k and returns
// the non-zero counts the paper plots in Figure 4. It runs preprocessing's
// own build (SchurColumns) under the ordering Preprocess picks for k,
// stopped before S's triangles. It is the serial case of ProfileSchurPool.
func ProfileSchur(g *graph.Graph, k, c float64) (SchurProfile, error) {
	return ProfileSchurPool(g, k, c, nil)
}

// ProfileSchurPool is ProfileSchur with the reordering, H's blocks, the
// block factorization and S's columns run on the pool (nil runs serially).
func ProfileSchurPool(g *graph.Graph, k, c float64, pool *par.Pool) (SchurProfile, error) {
	if err := reorder.CheckHubRatio(k); err != nil {
		return SchurProfile{}, err
	}
	_, p, err := SchurColumns(g, reorder.HubAndSpokePool(g, k, pool), c, pool, nil)
	if err != nil {
		return SchurProfile{}, fmt.Errorf("core: profiling S at k=%v: %w", k, err)
	}
	p.K = k
	return p, nil
}

// ChooseHubRatio evaluates the candidate hub ratios and returns the one
// minimizing |S| (the BePI-S / BePI selection rule of Algorithm 1 line 2),
// along with the profiles measured. With no candidates it defaults to the
// paper's sweep {0.1, 0.2, 0.3, 0.4, 0.5}. Candidates are profiled
// concurrently on the shared process-wide pool; use ChooseHubRatioPool to
// control the parallelism.
func ChooseHubRatio(g *graph.Graph, candidates []float64, c float64) (float64, []SchurProfile, error) {
	return ChooseHubRatioPool(g, candidates, c, par.Shared())
}

// ChooseHubRatioPool is ChooseHubRatio over an explicit pool (nil profiles
// the candidates serially). Profiles are positional and the selection scans
// them in candidate order, so the chosen ratio — including tie-breaks — and
// any reported error match the serial sweep exactly.
func ChooseHubRatioPool(g *graph.Graph, candidates []float64, c float64, pool *par.Pool) (float64, []SchurProfile, error) {
	if len(candidates) == 0 {
		candidates = []float64{0.1, 0.2, 0.3, 0.4, 0.5}
	}
	profiles := make([]SchurProfile, len(candidates))
	errs := make([]error, len(candidates))
	pool.Each(len(candidates), func(i int) {
		profiles[i], errs[i] = ProfileSchurPool(g, candidates[i], c, pool)
	})
	best := candidates[0]
	bestNNZ := -1
	for i, p := range profiles {
		if errs[i] != nil {
			return 0, nil, errs[i]
		}
		if bestNNZ < 0 || p.SchurNNZ < bestNNZ {
			bestNNZ = p.SchurNNZ
			best = candidates[i]
		}
	}
	return best, profiles, nil
}

// RowNormalizedAdjacencyT returns Ãᵀ for the graph, the operator power
// iteration multiplies by.
func RowNormalizedAdjacencyT(g *graph.Graph) *sparse.CSR {
	return g.Adjacency().RowNormalize().Transpose()
}
