package bench

import (
	"errors"
	"fmt"
	"math"
	"time"

	"bepi/internal/core"
	"bepi/internal/eig"
	"bepi/internal/gen"
	"bepi/internal/lu"
	"bepi/internal/method"
	"bepi/internal/reorder"
	"bepi/internal/solver"
	"bepi/internal/vec"
)

// Experiment is one regenerable table/figure of the paper.
type Experiment struct {
	Name string // id used on the bepi-bench command line
	Desc string // what it reproduces
	Run  func(Config) ([]*Table, error)
}

// Experiments returns every experiment in paper order.
func Experiments() []Experiment {
	return []Experiment{
		{"table2", "Table 2: dataset statistics (n, m, n1, n2, n3 per method)", Table2},
		{"fig1", "Figure 1: preprocessing time, preprocessed memory, query time across methods", Fig1},
		{"table3", "Table 3: |S| under BePI-B vs BePI-S hub-ratio policies", Table3},
		{"table4", "Table 4: average GMRES iterations, BePI-S vs BePI", Table4},
		{"fig4", "Figure 4: |S|, |H22|, |H21·H11⁻¹·H12| vs hub selection ratio k", Fig4},
		{"fig5", "Figure 5: scalability vs number of edges (prefix subgraphs)", Fig5},
		{"fig6", "Figure 6: ablation BePI-B vs BePI-S vs BePI", Fig6},
		{"fig7", "Figure 7: eigenvalue dispersion of S vs preconditioned S", Fig7},
		{"fig8", "Figure 8: effect of hub selection ratio k on BePI's costs", Fig8},
		{"fig10", "Figure 10 (App. I): L2 error vs iterations on a small graph", Fig10},
		{"fig11", "Figure 11 (App. J): BePI vs Bear head to head", Fig11},
		{"fig12", "Figure 12 (App. K): total running time (preprocessing + 30 queries)", Fig12},
		{"prepstages", "Beyond paper: per-stage preprocessing wall times and parallel worker count", PrepStages},
	}
}

// PrepStages breaks preprocessing time down by stage (reorder, build H,
// factor H11, Schur, ILU) per dataset and reports the effective parallel
// worker count, so kernel-level speedups from -parallelism are visible per
// stage rather than only in the total.
func PrepStages(cfg Config) ([]*Table, error) {
	cfg = cfg.withDefaults()
	t := &Table{
		Title:  "Preprocessing stage timings (full BePI)",
		Note:   "wall time per Algorithm 1/3 stage; workers = engine pool size (-parallelism)",
		Header: []string{"dataset", "workers", "reorder", "build H", "factor H11", "Schur", "ILU", "total"},
	}
	for _, d := range Suite(cfg.Size) {
		e, err := core.Preprocess(d.G, core.Options{
			Variant: core.VariantFull, Tol: cfg.Tol, Parallelism: cfg.Parallelism,
			MemoryBudget: cfg.Budget.Memory, Deadline: cfg.Budget.Deadline,
		})
		if err != nil {
			t.AddRow(d.Name, classifyCell(err), "-", "-", "-", "-", "-", "-")
			continue
		}
		st := e.PrepStats()
		t.AddRow(d.Name, fmt.Sprintf("%d", st.Workers),
			FmtDuration(st.Reorder), FmtDuration(st.BuildH),
			FmtDuration(st.FactorH11), FmtDuration(st.Schur),
			FmtDuration(st.ILU), FmtDuration(st.Total))
	}
	return []*Table{t}, nil
}

// FindExperiment looks an experiment up by name, searching both the paper
// experiments and the beyond-paper ablations.
func FindExperiment(name string) (Experiment, bool) {
	for _, e := range append(Experiments(), AblationExperiments()...) {
		if e.Name == name {
			return e, true
		}
	}
	return Experiment{}, false
}

// Table2 reproduces the dataset-statistics table: for each dataset, the
// node/edge counts and the partition sizes (n1, n2, n3) under both
// hub-ratio policies.
func Table2(cfg Config) ([]*Table, error) {
	cfg = cfg.withDefaults()
	t := &Table{
		Title:  "Table 2: dataset statistics",
		Note:   "synthetic R-MAT stand-ins; k column = BePI-S/BePI hub ratio; n1/n2 reported for BePI-B (k=0.001) and BePI",
		Header: []string{"dataset", "n", "m", "k", "n1(BePI-B)", "n1(BePI)", "n2(BePI-B)", "n2(BePI)", "n3"},
	}
	for _, d := range Suite(cfg.Size) {
		pb := reorder.HubAndSpoke(d.G, 0.001)
		ps := reorder.HubAndSpoke(d.G, 0.2)
		t.AddRow(d.Name, FmtCount(d.G.N()), FmtCount(d.G.M()), "0.20",
			FmtCount(pb.N1), FmtCount(ps.N1),
			FmtCount(pb.N2), FmtCount(ps.N2),
			FmtCount(ps.N3))
	}
	return []*Table{t}, nil
}

// Fig1 reproduces the headline comparison: (a) preprocessing time and
// (b) preprocessed-data memory for the preprocessing methods, and (c) query
// time for all methods. Bars the paper omits (out of memory/time) appear as
// o.o.m. / o.o.t. cells.
func Fig1(cfg Config) ([]*Table, error) {
	cfg = cfg.withDefaults()
	mcfg := cfg.methodConfig()
	datasets := Suite(cfg.Size)

	prep := &Table{
		Title:  "Figure 1(a): preprocessing time",
		Header: []string{"dataset", "BePI", "Bear", "LU"},
	}
	mem := &Table{
		Title:  "Figure 1(b): memory for preprocessed data",
		Header: []string{"dataset", "BePI", "Bear", "LU"},
	}
	query := &Table{
		Title:  "Figure 1(c): query time (avg over seeds)",
		Header: []string{"dataset", "BePI", "GMRES", "Power", "Bear", "LU"},
	}
	for di, d := range datasets {
		seeds := QuerySeeds(d.G, cfg.Seeds, int64(di))
		results := map[string]Result{}
		for _, m := range AllMethods(mcfg) {
			results[m.Name()] = RunOne(m, d, seeds)
		}
		prep.AddRow(d.Name,
			results["BePI"].prepCell(), results["Bear"].prepCell(), results["LU"].prepCell())
		mem.AddRow(d.Name,
			results["BePI"].memCell(), results["Bear"].memCell(), results["LU"].memCell())
		query.AddRow(d.Name,
			results["BePI"].queryCell(), results["GMRES"].queryCell(),
			results["Power"].queryCell(), results["Bear"].queryCell(),
			results["LU"].queryCell())
	}
	return []*Table{prep, mem, query}, nil
}

// Table3 reproduces the Schur-sparsification table: |S| under the BePI-B
// hub-ratio policy versus the |S|-minimizing BePI-S/BePI policy.
func Table3(cfg Config) ([]*Table, error) {
	cfg = cfg.withDefaults()
	t := &Table{
		Title:  "Table 3: number of non-zeros of S",
		Header: []string{"dataset", "|S| (BePI-B)", "|S| (BePI-S/BePI)", "ratio"},
	}
	for _, d := range Suite(cfg.Size) {
		cellB, nnzB := schurNNZCell(d, core.VariantB, 0.001, cfg)
		cellS, nnzS := schurNNZCell(d, core.VariantS, 0.2, cfg)
		ratio := "-"
		if nnzB > 0 && nnzS > 0 {
			ratio = fmt.Sprintf("%.1fx", float64(nnzB)/float64(nnzS))
		}
		t.AddRow(d.Name, cellB, cellS, ratio)
	}
	return []*Table{t}, nil
}

func schurNNZCell(d Dataset, v core.Variant, k float64, cfg Config) (string, int) {
	e, err := core.Preprocess(d.G, core.Options{
		Variant: v, HubRatio: k, Tol: cfg.Tol, Parallelism: cfg.Parallelism,
		MemoryBudget: cfg.Budget.Memory, Deadline: cfg.Budget.Deadline,
	})
	if err != nil {
		return classifyCell(err), 0
	}
	nnz := e.PrepStats().SchurNNZ
	return FmtCount(nnz), nnz
}

func classifyCell(err error) string {
	switch {
	case err == nil:
		return "ok"
	case errors.Is(err, core.ErrMemoryBudget), errors.Is(err, method.ErrOutOfMemory):
		return string(OOM)
	case errors.Is(err, core.ErrDeadline), errors.Is(err, method.ErrOutOfTime):
		return string(OOT)
	default:
		return string(ERR)
	}
}

// Table4 reproduces the preconditioning-iterations table: average GMRES
// iterations to solve the Schur system, BePI-S (plain) vs BePI (ILU).
func Table4(cfg Config) ([]*Table, error) {
	cfg = cfg.withDefaults()
	mcfg := cfg.methodConfig()
	t := &Table{
		Title:  "Table 4: average iterations for r2",
		Header: []string{"dataset", "iters (BePI-S)", "iters (BePI)", "ratio"},
	}
	for di, d := range Suite(cfg.Size) {
		seeds := QuerySeeds(d.G, cfg.Seeds, int64(di))
		rs := RunOne(method.NewBePIS(mcfg), d, seeds)
		rf := RunOne(method.NewBePI(mcfg), d, seeds)
		if rs.Outcome != OK || rf.Outcome != OK {
			t.AddRow(d.Name, string(rs.Outcome), string(rf.Outcome), "-")
			continue
		}
		t.AddRow(d.Name,
			fmt.Sprintf("%.1f", rs.AvgIters),
			fmt.Sprintf("%.1f", rf.AvgIters),
			fmt.Sprintf("%.1fx", rs.AvgIters/math.Max(rf.AvgIters, 1e-9)))
	}
	return []*Table{t}, nil
}

// Fig4 reproduces the hub-ratio trade-off curves: |S|, |H22| and
// |H21·H11⁻¹·H12| as k sweeps.
func Fig4(cfg Config) ([]*Table, error) {
	cfg = cfg.withDefaults()
	ks := []float64{0.1, 0.2, 0.3, 0.4, 0.5}
	maxDatasets := 4
	if cfg.Size == Tiny {
		ks = []float64{0.1, 0.3, 0.5}
		maxDatasets = 2
	}
	t := &Table{
		Title:  "Figure 4: Schur-complement sparsity vs hub selection ratio",
		Note:   "|S| should be U-shaped in k: |H22| grows while |H21·H11⁻¹·H12| shrinks",
		Header: []string{"dataset", "k", "n2", "|S|", "|H22|", "|H21·H11⁻¹·H12|"},
	}
	datasets := Suite(cfg.Size)
	if len(datasets) > maxDatasets {
		datasets = datasets[:maxDatasets]
	}
	for _, d := range datasets {
		for _, k := range ks {
			p, err := core.ProfileSchur(d.G, k, core.DefaultC)
			if err != nil {
				return nil, fmt.Errorf("%s at k=%v: %w", d.Name, k, err)
			}
			t.AddRow(d.Name, fmt.Sprintf("%.2f", k), FmtCount(p.N2),
				FmtCount(p.SchurNNZ), FmtCount(p.H22NNZ), FmtCount(p.CrossNNZ))
		}
	}
	return []*Table{t}, nil
}

// Fig5 reproduces the scalability experiment: principal (node-prefix)
// subgraphs of the largest suite dataset — the paper's "upper left part of
// the adjacency matrix" protocol — measuring preprocessing time, memory and
// query time per method, with the fitted log-log slope (in the edge count)
// for BePI.
func Fig5(cfg Config) ([]*Table, error) {
	cfg = cfg.withDefaults()
	suite := Suite(cfg.Size)
	base := suite[len(suite)-1]
	fracs := []float64{0.125, 0.25, 0.5, 1.0}
	mcfg := cfg.methodConfig()

	prep := &Table{
		Title:  "Figure 5(a): preprocessing time vs edges",
		Header: []string{"edges", "BePI", "Bear", "LU"},
	}
	mem := &Table{
		Title:  "Figure 5(b): preprocessed memory vs edges",
		Header: []string{"edges", "BePI", "Bear", "LU"},
	}
	query := &Table{
		Title:  "Figure 5(c): query time vs edges",
		Header: []string{"edges", "BePI", "GMRES", "Power", "Bear", "LU"},
	}
	var xs, prepYs, memYs, queryYs []float64
	for fi, f := range fracs {
		x := int(f * float64(base.G.N()))
		sub := Dataset{Name: fmt.Sprintf("%s[%d]", base.Name, x), G: base.G.NodePrefix(x)}
		if sub.G.N() == 0 || sub.G.M() == 0 {
			continue
		}
		seeds := QuerySeeds(sub.G, cfg.Seeds, int64(fi))
		results := map[string]Result{}
		for _, mm := range AllMethods(mcfg) {
			results[mm.Name()] = RunOne(mm, sub, seeds)
		}
		edges := FmtCount(sub.G.M())
		prep.AddRow(edges, results["BePI"].prepCell(), results["Bear"].prepCell(), results["LU"].prepCell())
		mem.AddRow(edges, results["BePI"].memCell(), results["Bear"].memCell(), results["LU"].memCell())
		query.AddRow(edges,
			results["BePI"].queryCell(), results["GMRES"].queryCell(),
			results["Power"].queryCell(), results["Bear"].queryCell(), results["LU"].queryCell())
		if r := results["BePI"]; r.Outcome == OK {
			xs = append(xs, float64(sub.G.M()))
			prepYs = append(prepYs, r.PrepTime.Seconds())
			memYs = append(memYs, float64(r.Memory))
			queryYs = append(queryYs, r.AvgQuery.Seconds())
		}
	}
	prep.Note = fmt.Sprintf("BePI log-log slope: %.2f (paper: 1.01)", loglogSlope(xs, prepYs))
	mem.Note = fmt.Sprintf("BePI log-log slope: %.2f (paper: 0.99)", loglogSlope(xs, memYs))
	query.Note = fmt.Sprintf("BePI log-log slope: %.2f (paper: 1.1)", loglogSlope(xs, queryYs))
	return []*Table{prep, mem, query}, nil
}

// loglogSlope fits y = a·x^s by least squares in log space and returns s.
func loglogSlope(xs, ys []float64) float64 {
	if len(xs) < 2 || len(xs) != len(ys) {
		return math.NaN()
	}
	var sx, sy, sxx, sxy float64
	n := 0
	for i := range xs {
		if xs[i] <= 0 || ys[i] <= 0 {
			continue
		}
		lx, ly := math.Log(xs[i]), math.Log(ys[i])
		sx += lx
		sy += ly
		sxx += lx * lx
		sxy += lx * ly
		n++
	}
	if n < 2 {
		return math.NaN()
	}
	fn := float64(n)
	return (fn*sxy - sx*sy) / (fn*sxx - sx*sx)
}

// Fig6 reproduces the optimization ablation: BePI-B vs BePI-S vs BePI on
// preprocessing time, memory and query time.
func Fig6(cfg Config) ([]*Table, error) {
	cfg = cfg.withDefaults()
	mcfg := cfg.methodConfig()
	prep := &Table{
		Title:  "Figure 6(a): effect of optimizations on preprocessing time",
		Header: []string{"dataset", "BePI-B", "BePI-S", "BePI"},
	}
	mem := &Table{
		Title:  "Figure 6(b): effect on preprocessed memory",
		Header: []string{"dataset", "BePI-B", "BePI-S", "BePI"},
	}
	query := &Table{
		Title:  "Figure 6(c): effect on query time",
		Header: []string{"dataset", "BePI-B", "BePI-S", "BePI"},
	}
	for di, d := range Suite(cfg.Size) {
		seeds := QuerySeeds(d.G, cfg.Seeds, int64(di))
		cells := map[string]Result{}
		for _, m := range VariantMethods(mcfg) {
			cells[m.Name()] = RunOne(m, d, seeds)
		}
		prep.AddRow(d.Name, cells["BePI-B"].prepCell(), cells["BePI-S"].prepCell(), cells["BePI"].prepCell())
		mem.AddRow(d.Name, cells["BePI-B"].memCell(), cells["BePI-S"].memCell(), cells["BePI"].memCell())
		query.AddRow(d.Name, cells["BePI-B"].queryCell(), cells["BePI-S"].queryCell(), cells["BePI"].queryCell())
	}
	return []*Table{prep, mem, query}, nil
}

// Fig7 reproduces the spectrum experiment: Ritz values of the Schur
// complement with and without ILU preconditioning; preconditioning must
// shrink the dispersion and move the cluster to ≈1.
func Fig7(cfg Config) ([]*Table, error) {
	cfg = cfg.withDefaults()
	t := &Table{
		Title:  "Figure 7: eigenvalue clustering of the (preconditioned) Schur complement",
		Note:   "dispersion = RMS distance of Ritz values from their centroid",
		Header: []string{"dataset", "ritz m", "centroid(S)", "disp(S)", "centroid(M⁻¹S)", "disp(M⁻¹S)", "tightening"},
	}
	datasets := Suite(cfg.Size)
	if len(datasets) > 3 {
		datasets = datasets[:3]
	}
	for _, d := range datasets {
		e, err := core.Preprocess(d.G, core.Options{Variant: core.VariantFull, Tol: cfg.Tol, Parallelism: cfg.Parallelism})
		if err != nil {
			return nil, fmt.Errorf("%s: %w", d.Name, err)
		}
		s := e.Schur()
		m := 200
		if cfg.Size == Tiny {
			m = 40
		}
		if m > s.Rows() {
			m = s.Rows()
		}
		// The figure is the paper's: its preconditioner is ILU(0), whatever
		// the engine itself applies (DILU, DESIGN.md §19).
		ilu0, err := lu.FactorILU0(s)
		if err != nil {
			return nil, fmt.Errorf("%s: %w", d.Name, err)
		}
		plain := eig.RitzValues(s, nil, s.Rows(), m, 99)
		cond := eig.RitzValues(s, ilu0, s.Rows(), m, 99)
		cp, dp := eig.Dispersion(plain)
		cc, dc := eig.Dispersion(cond)
		t.AddRow(d.Name, fmt.Sprintf("%d", m),
			fmtComplex(cp), fmt.Sprintf("%.4f", dp),
			fmtComplex(cc), fmt.Sprintf("%.4f", dc),
			fmt.Sprintf("%.1fx", dp/math.Max(dc, 1e-12)))
	}
	return []*Table{t}, nil
}

func fmtComplex(c complex128) string {
	if math.Abs(imag(c)) < 1e-9 {
		return fmt.Sprintf("%.3f", real(c))
	}
	return fmt.Sprintf("%.3f%+.3fi", real(c), imag(c))
}

// Fig8 reproduces the hub-ratio sensitivity sweep on full BePI:
// preprocessing time, memory and query time as k varies.
func Fig8(cfg Config) ([]*Table, error) {
	cfg = cfg.withDefaults()
	ks := []float64{0.1, 0.2, 0.3, 0.5, 0.7}
	maxDatasets := 4
	if cfg.Size == Tiny {
		ks = []float64{0.1, 0.3, 0.6}
		maxDatasets = 2
	}
	t := &Table{
		Title:  "Figure 8: effect of the hub selection ratio k on BePI",
		Note:   "preprocessing cost falls with k; query time is best near k≈0.2–0.3",
		Header: []string{"dataset", "k", "prep time", "memory", "query time", "iters"},
	}
	datasets := Suite(cfg.Size)
	if len(datasets) > maxDatasets {
		datasets = datasets[:maxDatasets]
	}
	mcfg := cfg.methodConfig()
	for di, d := range datasets {
		seeds := QuerySeeds(d.G, cfg.Seeds, int64(di))
		for _, k := range ks {
			m := method.NewBePI(mcfg)
			m.SetHubRatio(k)
			r := RunOne(m, d, seeds)
			if r.Outcome != OK {
				t.AddRow(d.Name, fmt.Sprintf("%.2f", k), string(r.Outcome), "-", "-", "-")
				continue
			}
			t.AddRow(d.Name, fmt.Sprintf("%.2f", k),
				FmtDuration(r.PrepTime), FmtBytes(r.Memory),
				FmtDuration(r.AvgQuery), fmt.Sprintf("%.1f", r.AvgIters))
		}
	}
	return []*Table{t}, nil
}

// Fig10 reproduces the Appendix-I accuracy experiment: L2 error against the
// exact dense solution after each iteration, for BePI, power iteration and
// full-system GMRES, on a small social-network stand-in (241 nodes, like
// the Physicians dataset).
func Fig10(cfg Config) ([]*Table, error) {
	cfg = cfg.withDefaults()
	g := gen.WattsStrogatz(241, 4, 0.1, 77)
	const seedCount = 10
	seeds := QuerySeeds(g, seedCount, 10)
	maxIter := 60

	sum := map[string][]float64{
		"BePI":  make([]float64, maxIter+1),
		"Power": make([]float64, maxIter+1),
		"GMRES": make([]float64, maxIter+1),
	}
	last := map[string][]float64{}
	for name := range sum {
		last[name] = make([]float64, seedCount)
	}
	record := func(name string, si, iter int, errNorm float64) {
		if iter <= maxIter {
			sum[name][iter] += errNorm
		}
		last[name][si] = errNorm
	}

	e, err := core.Preprocess(g, core.Options{Variant: core.VariantFull, Tol: cfg.Tol, Parallelism: cfg.Parallelism})
	if err != nil {
		return nil, err
	}
	at := core.RowNormalizedAdjacencyT(g)
	h := core.BuildH(g, nil, core.DefaultC)
	maxSeen := 0
	for si, s := range seeds {
		exact, err := core.ExactDense(g, core.DefaultC, s)
		if err != nil {
			return nil, err
		}
		fill := func(name string, from int) {
			// Carry the converged error forward so curves stay comparable.
			for it := from + 1; it <= maxIter; it++ {
				sum[name][it] += last[name][si]
			}
		}
		var bepiLast int
		if _, _, err := e.QueryWithCallback(s, func(iter int, r []float64) {
			record("BePI", si, iter, vec.Dist2(r, exact))
			bepiLast = iter
		}); err != nil {
			return nil, err
		}
		fill("BePI", bepiLast)
		if bepiLast > maxSeen {
			maxSeen = bepiLast
		}

		q := make([]float64, g.N())
		q[s] = 1
		var pLast int
		if _, _, err := solver.PowerIteration(at, q, core.DefaultC, solver.PowerOptions{
			Tol: cfg.Tol, MaxIter: maxIter,
			Callback: func(iter int, r []float64) {
				record("Power", si, iter, vec.Dist2(r, exact))
				pLast = iter
			},
		}); err != nil && !errors.Is(err, solver.ErrNotConverged) {
			return nil, err
		}
		fill("Power", pLast)
		if pLast > maxSeen {
			maxSeen = pLast
		}

		cq := make([]float64, g.N())
		cq[s] = core.DefaultC
		var gLast int
		if _, _, err := solver.GMRES(h, cq, solver.GMRESOptions{
			Tol: cfg.Tol, MaxIter: maxIter,
			Probe: func(iter int, _ float64, iterate func() []float64) bool {
				record("GMRES", si, iter, vec.Dist2(iterate(), exact))
				gLast = iter
				return false
			},
		}); err != nil && !errors.Is(err, solver.ErrNotConverged) {
			return nil, err
		}
		fill("GMRES", gLast)
		if gLast > maxSeen {
			maxSeen = gLast
		}
	}
	if maxSeen > maxIter {
		maxSeen = maxIter
	}
	t := &Table{
		Title:  "Figure 10: L2 error vs iterations (241-node small-world graph)",
		Note:   fmt.Sprintf("mean over %d seeds; BePI iterations are Schur-system GMRES steps", seedCount),
		Header: []string{"iteration", "BePI", "Power", "GMRES"},
	}
	for it := 1; it <= maxSeen; it++ {
		t.AddRow(fmt.Sprintf("%d", it),
			fmt.Sprintf("%.3e", sum["BePI"][it]/seedCount),
			fmt.Sprintf("%.3e", sum["Power"][it]/seedCount),
			fmt.Sprintf("%.3e", sum["GMRES"][it]/seedCount))
	}
	return []*Table{t}, nil
}

// Fig11 reproduces the Appendix-J head-to-head against Bear on graphs small
// enough for Bear to finish.
func Fig11(cfg Config) ([]*Table, error) {
	cfg = cfg.withDefaults()
	mcfg := cfg.methodConfig()
	datasets := Suite(cfg.Size)
	if len(datasets) > 4 {
		datasets = datasets[:4]
	}
	t := &Table{
		Title:  "Figure 11: BePI vs Bear",
		Header: []string{"dataset", "prep BePI", "prep Bear", "mem BePI", "mem Bear", "query BePI", "query Bear"},
	}
	for di, d := range datasets {
		seeds := QuerySeeds(d.G, cfg.Seeds, int64(di))
		rb := RunOne(method.NewBePI(mcfg), d, seeds)
		rr := RunOne(method.NewBear(mcfg), d, seeds)
		t.AddRow(d.Name,
			rb.prepCell(), rr.prepCell(),
			rb.memCell(), rr.memCell(),
			rb.queryCell(), rr.queryCell())
	}
	return []*Table{t}, nil
}

// Fig12 reproduces the total-time comparison: preprocessing plus the full
// query workload for preprocessing methods, query workload only for
// iterative methods.
func Fig12(cfg Config) ([]*Table, error) {
	cfg = cfg.withDefaults()
	mcfg := cfg.methodConfig()
	t := &Table{
		Title:  "Figure 12: total running time",
		Note:   fmt.Sprintf("preprocessing + %d queries for preprocessing methods; %d queries for iterative ones", cfg.Seeds, cfg.Seeds),
		Header: []string{"dataset", "BePI", "GMRES", "Power", "Bear", "LU"},
	}
	for di, d := range Suite(cfg.Size) {
		seeds := QuerySeeds(d.G, cfg.Seeds, int64(di))
		row := []string{d.Name}
		for _, m := range AllMethods(mcfg) {
			r := RunOne(m, d, seeds)
			if r.Outcome != OK {
				row = append(row, string(r.Outcome))
				continue
			}
			total := r.AvgQuery * time.Duration(len(seeds))
			if m.IsPreprocessing() {
				total += r.PrepTime
			}
			row = append(row, FmtDuration(total))
		}
		t.AddRow(row...)
	}
	return []*Table{t}, nil
}
