package bench

import (
	"fmt"
	"time"

	"bepi/internal/core"
	"bepi/internal/lu"
	"bepi/internal/sparse"
)

// kernelReps returns how many times each micro-kernel is applied per
// measurement at the given suite size.
func kernelReps(s Size) int {
	switch s {
	case Full:
		return 200
	case Small:
		return 50
	default:
		return 20
	}
}

// timeKernel measures the average wall time of reps applications of f.
func timeKernel(reps int, f func()) time.Duration {
	start := time.Now()
	for i := 0; i < reps; i++ {
		f()
	}
	return time.Since(start) / time.Duration(reps)
}

// Kernels is the beyond-paper kernel A/B experiment: per dataset it
// measures the optimizations of the bandwidth-lean kernel layer in
// isolation — the compact CSR32 layout against wide CSR (index memory and
// SpMV time on the Schur complement) and one preconditioned iteration's
// kernels, S·x plus the paper's ILU(0) sweeps against the one-pass DILU
// operator the engine runs — next to the end-to-end query time.
// Config.Compact (bepi-bench -compact) selects the layout of the engine
// the queries run on, so both layouts can be compared end to end.
func Kernels(cfg Config) ([]*Table, error) {
	cfg = cfg.withDefaults()
	reps := kernelReps(cfg.Size)
	stream := sparse.StreamBandwidth()

	mem := &Table{
		Title:  "Kernel memory: wide CSR vs compact CSR32",
		Note:   "whole-engine index bytes; values are float64 in both layouts, only index widths differ",
		Header: []string{"dataset", "index wide", "index compact", "saving"},
	}
	tim := &Table{
		Title: "Kernel timings: layout, one preconditioned iteration",
		Note: fmt.Sprintf("avg of %d applications; queries avg over %d seeds; iteration kernels on the compact layout; query layout: %s; STREAM roof %s/s",
			reps, cfg.Seeds, layoutName(cfg.Compact), FmtBytes(int64(stream))),
		Header: []string{"dataset", "S·x wide", "S·x compact", "query", "S·x + ILU(0)", "one-pass DILU"},
	}
	datasets := Suite(cfg.Size)
	if len(datasets) > 3 {
		datasets = datasets[:3]
	}
	for di, d := range datasets {
		opts := core.Options{
			Variant: core.VariantFull, Tol: cfg.Tol, Parallelism: cfg.Parallelism,
			MemoryBudget: cfg.Budget.Memory, Deadline: cfg.Budget.Deadline,
			Compact: cfg.Compact,
		}
		e, err := core.Preprocess(d.G, opts)
		if err != nil {
			mem.AddRow(d.Name, classifyCell(err), "-", "-")
			tim.AddRow(d.Name, classifyCell(err), "-", "-", "-", "-")
			continue
		}

		// Memory A/B: the same engine in both layouts, restored afterwards
		// to the layout Config.Compact asked for.
		e.SetCompact(false)
		wideBytes := e.MemoryBytes()
		e.SetCompact(true)
		compBytes := e.MemoryBytes()
		e.SetCompact(cfg.Compact != core.CompactOff)
		mem.AddRow(d.Name, FmtBytes(wideBytes), FmtBytes(compBytes),
			fmt.Sprintf("%.1f%%", 100*(1-float64(compBytes)/float64(wideBytes))))

		// Explicit Schur SpMV, wide vs compact layout.
		s := e.Schur()
		c32 := sparse.Compact(s)
		x := make([]float64, s.Cols())
		for i := range x {
			x[i] = float64(i%7) - 3
		}
		y := make([]float64, s.Rows())
		spmvWide := timeKernel(reps, func() { s.MulVec(y, x) })
		spmvComp := timeKernel(reps, func() { c32.MulVec(y, x) })

		// Query path, on the layout selected by Config.Compact.
		seeds := QuerySeeds(d.G, cfg.Seeds, int64(di))
		tQuery := time.Now()
		for _, seed := range seeds {
			if _, _, err := e.Query(seed); err != nil {
				return nil, fmt.Errorf("bench: kernels query on %s: %w", d.Name, err)
			}
		}
		query := time.Since(tQuery) / time.Duration(len(seeds))

		// One preconditioned iteration's kernels: S·x then the ILU(0)
		// sweeps (the paper's form) vs the one-pass DILU operator.
		ilu, err := lu.FactorILU0(s)
		if err != nil {
			return nil, fmt.Errorf("bench: kernels ILU on %s: %w", d.Name, err)
		}
		ilu.Compact()
		dilu, err := lu.FactorDILU(s)
		if err != nil {
			return nil, fmt.Errorf("bench: kernels DILU on %s: %w", d.Name, err)
		}
		onePass := dilu.Compact().Eisenstat()
		dst := make([]float64, s.Rows())
		iterRef := timeKernel(reps, func() { c32.MulVec(y, x); ilu.Apply(dst, y) })
		iterOnePass := timeKernel(reps, func() { onePass.MulVec(dst, x) })

		tim.AddRow(d.Name,
			FmtDuration(spmvWide), FmtDuration(spmvComp),
			FmtDuration(query),
			FmtDuration(iterRef), FmtDuration(iterOnePass))
	}
	return []*Table{mem, tim}, nil
}

// layoutName renders the CompactMode selected for query-path engines.
func layoutName(m core.CompactMode) string {
	if m == core.CompactOff {
		return "wide CSR"
	}
	return "compact CSR32"
}
