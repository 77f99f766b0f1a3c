package bench

import (
	"fmt"
	"time"

	"bepi/internal/core"
	"bepi/internal/lu"
	"bepi/internal/montecarlo"
	"bepi/internal/reorder"
	"bepi/internal/vec"
)

// Extra ablation experiments beyond the paper's figures, covering the
// design choices DESIGN.md calls out: the H11 factorization strategy, the
// SlashBurn iteration budget, and exact answers against Monte Carlo.

// AblationExperiments returns the beyond-paper ablations.
func AblationExperiments() []Experiment {
	return []Experiment{
		{"abl-h11", "Ablation: per-block dense LU vs sparse LU for H11", AblationH11},
		{"abl-mc", "Ablation: exact BePI vs Monte Carlo approximation (§5 context)", AblationMonteCarlo},
		{"abl-reorder", "Ablation: iterated SlashBurn vs one-shot hub removal", AblationReorder},
	}
}

// AblationReorder quantifies why SlashBurn iterates: capping it at one
// slash-and-burn round leaves the giant component in the hub region,
// inflating n2 and |S| — the exact costs Theorems 1–3 tie query and memory
// performance to.
func AblationReorder(cfg Config) ([]*Table, error) {
	cfg = cfg.withDefaults()
	t := &Table{
		Title:  "Ablation: SlashBurn iteration budget (k=0.2)",
		Note:   "one-shot hub removal dumps the residual GCC into the hub region",
		Header: []string{"dataset", "iterations", "n1", "n2", "|S|", "prep time"},
	}
	datasets := Suite(cfg.Size)
	if len(datasets) > 4 {
		datasets = datasets[:4]
	}
	for _, d := range datasets {
		for _, cap := range []int{1, 3, 0} {
			label := fmt.Sprintf("%d", cap)
			if cap == 0 {
				label = "unlimited"
			}
			start := time.Now()
			ord := reorder.HubAndSpokeIters(d.G, 0.2, cap)
			_, p, err := core.SchurColumns(d.G, ord, core.DefaultC, nil, nil)
			if err != nil {
				return nil, fmt.Errorf("%s cap %d: %w", d.Name, cap, err)
			}
			t.AddRow(d.Name, label, FmtCount(p.N1), FmtCount(p.N2),
				FmtCount(p.SchurNNZ), FmtDuration(time.Since(start)))
		}
	}
	return []*Table{t}, nil
}

// AblationMonteCarlo contrasts exact BePI queries with Monte Carlo RWR
// estimation at several walk budgets: the approximate family the paper
// surveys (§5) trades unbounded accuracy for preprocessing-free queries.
// The table shows why applications needing exact scores prefer BePI: error
// shrinks only as 1/√walks while cost grows linearly.
func AblationMonteCarlo(cfg Config) ([]*Table, error) {
	cfg = cfg.withDefaults()
	t := &Table{
		Title:  "Ablation: exact BePI vs Monte Carlo estimation",
		Note:   "error = L2 distance to BePI's (exact) result, averaged over seeds",
		Header: []string{"dataset", "walks", "MC query", "MC L2 error", "BePI query"},
	}
	walkBudgets := []int{1_000, 10_000, 100_000}
	datasets := Suite(cfg.Size)
	if len(datasets) > 2 {
		datasets = datasets[:2]
	}
	for di, d := range datasets {
		e, err := core.Preprocess(d.G, core.Options{Tol: cfg.Tol, Parallelism: cfg.Parallelism})
		if err != nil {
			return nil, fmt.Errorf("%s: %w", d.Name, err)
		}
		est, err := montecarlo.New(d.G, core.DefaultC, 555)
		if err != nil {
			return nil, err
		}
		seeds := QuerySeeds(d.G, min(cfg.Seeds, 5), int64(di))
		var bepiTotal time.Duration
		exact := make([][]float64, len(seeds))
		for i, s := range seeds {
			r, st, err := e.Query(s)
			if err != nil {
				return nil, fmt.Errorf("%s seed %d: %w", d.Name, s, err)
			}
			exact[i] = r
			bepiTotal += st.Duration
		}
		bepiAvg := bepiTotal / time.Duration(len(seeds))
		for _, w := range walkBudgets {
			var mcTotal time.Duration
			var errSum float64
			for i, s := range seeds {
				start := time.Now()
				r, err := est.Query(s, w)
				if err != nil {
					return nil, err
				}
				mcTotal += time.Since(start)
				errSum += vec.Dist2(r, exact[i])
			}
			t.AddRow(d.Name, FmtCount(w),
				FmtDuration(mcTotal/time.Duration(len(seeds))),
				fmt.Sprintf("%.2e", errSum/float64(len(seeds))),
				FmtDuration(bepiAvg))
		}
	}
	return []*Table{t}, nil
}

// AblationH11 compares the two ways to make H11 solvable: the paper's
// per-block dense LU against a Gilbert–Peierls sparse LU of the whole
// block-diagonal matrix.
func AblationH11(cfg Config) ([]*Table, error) {
	cfg = cfg.withDefaults()
	t := &Table{
		Title:  "Ablation: H11 factorization strategy",
		Note:   "factor time and storage for H11 = the spoke block after SlashBurn (k=0.2)",
		Header: []string{"dataset", "n1", "blocks", "blockLU time", "blockLU bytes", "sparseLU time", "sparseLU bytes"},
	}
	for _, d := range Suite(cfg.Size) {
		ord := reorder.HubAndSpoke(d.G, 0.2)
		h := core.BuildH(d.G, ord.Perm, core.DefaultC)
		h11 := h.Block(0, ord.N1, 0, ord.N1)

		t0 := time.Now()
		blk, err := lu.FactorBlockDiag(h11, ord.Blocks)
		if err != nil {
			return nil, fmt.Errorf("%s blockLU: %w", d.Name, err)
		}
		blkTime := time.Since(t0)

		t0 = time.Now()
		sp, err := lu.FactorSparse(h11, 0)
		if err != nil {
			return nil, fmt.Errorf("%s sparseLU: %w", d.Name, err)
		}
		spTime := time.Since(t0)

		t.AddRow(d.Name, FmtCount(ord.N1), FmtCount(len(ord.Blocks)),
			FmtDuration(blkTime), FmtBytes(blk.MemoryBytes()),
			FmtDuration(spTime), FmtBytes(sp.MemoryBytes()))
	}
	return []*Table{t}, nil
}
