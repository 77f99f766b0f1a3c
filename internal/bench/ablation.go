package bench

import (
	"fmt"
	"math/rand"
	"time"

	"bepi/internal/core"
	"bepi/internal/lu"
	"bepi/internal/montecarlo"
	"bepi/internal/reorder"
	"bepi/internal/solver"
	"bepi/internal/vec"
)

// Extra ablation experiments beyond the paper's figures, covering the
// design choices DESIGN.md calls out: the Schur solver, the GMRES restart
// length, and the H11 factorization strategy.

// AblationExperiments returns the beyond-paper ablations.
func AblationExperiments() []Experiment {
	return []Experiment{
		{"abl-solver", "Ablation: GMRES vs BiCGSTAB for the Schur solve", AblationSolver},
		{"abl-restart", "Ablation: GMRES restart length vs query time", AblationRestart},
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

// schurSolve is one iterative method under ablation, solving S·x = b on a
// dataset's Schur complement.
type schurSolve func(b []float64) (solver.Stats, error)

// hubSolves times a solver arm over count sampled hub seeds of the engine's
// graph. For a hub seed the Schur right-hand side q̃2 of Algorithm 4 is
// exactly c·e_j (q1 = 0), so S·x = c·e_j is that query's whole iterative
// phase, with no engine option between the ablation and the solver.
func hubSolves(e *core.Engine, count int, salt int64, solve schurSolve) (avg time.Duration, avgIters float64, err error) {
	rng := rand.New(rand.NewSource(7700 + salt))
	b := make([]float64, e.ILU().N())
	var total time.Duration
	var iters int
	for i := 0; i < count; i++ {
		j := rng.Intn(len(b))
		b[j] = e.Options().C
		start := time.Now()
		st, err := solve(b)
		total += time.Since(start)
		b[j] = 0
		if err != nil {
			return 0, 0, fmt.Errorf("hub column %d: %w", j, err)
		}
		iters += st.Iterations
	}
	return total / time.Duration(count), float64(iters) / float64(count), nil
}

// splitGMRES is the engine's own solve: split-preconditioned GMRES on the
// one-pass operator over the DILU factors, optionally restarted.
func splitGMRES(e *core.Engine, opts solver.GMRESOptions) schurSolve {
	op := e.ILU().Eisenstat()
	bhat := make([]float64, e.ILU().N())
	return func(b []float64) (solver.Stats, error) {
		op.Left(bhat, b)
		y, st, err := solver.GMRES(op, bhat, opts)
		if err == nil {
			op.Right(y, y)
		}
		return st, err
	}
}

// AblationSolver compares GMRES against BiCGSTAB on the Schur system, both
// preconditioned with the engine's DILU factors: GMRES split, as the engine
// runs it; BiCGSTAB classically from the left, because its fixed shadow
// residual hits ρ = 0 breakdowns on the split system's sparse right-hand
// side.
func AblationSolver(cfg Config) ([]*Table, error) {
	cfg = cfg.withDefaults()
	t := &Table{
		Title:  "Ablation: Schur solver (both DILU-preconditioned)",
		Note:   "S·x = c·e_j over sampled hub seeds; GMRES is the paper's choice; BiCGSTAB does 2 mat-vecs/iter but stores no Krylov basis",
		Header: []string{"dataset", "solve GMRES", "iters", "solve BiCGSTAB", "iters"},
	}
	for di, d := range Suite(cfg.Size) {
		e, err := core.Preprocess(d.G, core.Options{Tol: cfg.Tol})
		if err != nil {
			return nil, fmt.Errorf("%s: %w", d.Name, err)
		}
		opts := solver.GMRESOptions{Tol: cfg.Tol, MaxIter: 4000}
		gm, gmIters, err := hubSolves(e, cfg.Seeds, int64(di), splitGMRES(e, opts))
		if err != nil {
			return nil, fmt.Errorf("%s/GMRES: %w", d.Name, err)
		}
		s := e.Schur()
		opts.Precond = e.ILU()
		bi, biIters, err := hubSolves(e, cfg.Seeds, int64(di), func(b []float64) (solver.Stats, error) {
			_, st, err := solver.BiCGSTAB(s, b, opts)
			return st, err
		})
		if err != nil {
			return nil, fmt.Errorf("%s/BiCGSTAB: %w", d.Name, err)
		}
		t.AddRow(d.Name, FmtDuration(gm), fmt.Sprintf("%.1f", gmIters),
			FmtDuration(bi), fmt.Sprintf("%.1f", biIters))
	}
	return []*Table{t}, nil
}

// AblationRestart measures how restarting GMRES (shorter Krylov bases)
// trades iterations for memory on the Schur solve.
func AblationRestart(cfg Config) ([]*Table, error) {
	cfg = cfg.withDefaults()
	restarts := []int{0, 5, 10, 20}
	t := &Table{
		Title:  "Ablation: GMRES restart length",
		Note:   "S·x = c·e_j over sampled hub seeds; restart 0 = full GMRES (the paper's configuration)",
		Header: []string{"dataset", "restart", "solve time", "iters"},
	}
	datasets := Suite(cfg.Size)
	if len(datasets) > 2 {
		datasets = datasets[:2]
	}
	for di, d := range datasets {
		e, err := core.Preprocess(d.G, core.Options{Tol: cfg.Tol})
		if err != nil {
			return nil, fmt.Errorf("%s: %w", d.Name, err)
		}
		for _, rs := range restarts {
			solve := splitGMRES(e, solver.GMRESOptions{Tol: cfg.Tol, MaxIter: 4000, Restart: rs})
			avg, iters, err := hubSolves(e, cfg.Seeds, int64(di), solve)
			if err != nil {
				return nil, fmt.Errorf("%s restart %d: %w", d.Name, rs, err)
			}
			label := fmt.Sprintf("%d", rs)
			if rs == 0 {
				label = "full"
			}
			t.AddRow(d.Name, label, FmtDuration(avg), fmt.Sprintf("%.1f", iters))
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
