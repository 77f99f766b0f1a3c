// Command bepi preprocesses graphs into RWR indexes and answers queries.
//
//	bepi preprocess -graph g.txt -index g.idx [-c 0.05] [-k 0.2] [-variant bepi]
//	bepi query      -index g.idx -seed 42 [-topk 10]
//	bepi stats      -index g.idx
//
// The graph file is a whitespace-separated "src dst" edge list ('#' and '%'
// lines are comments), or a MatrixMarket coordinate file if the path ends
// in .mtx.
package main

import (
	"flag"
	"fmt"
	"math/rand"
	"os"
	"strings"

	"bepi"
	"bepi/internal/bench"
	"bepi/internal/core"
	"bepi/internal/solver"
	"bepi/internal/vec"
)

func main() {
	if len(os.Args) < 2 {
		usage()
		os.Exit(2)
	}
	var err error
	switch os.Args[1] {
	case "preprocess":
		err = cmdPreprocess(os.Args[2:])
	case "query":
		err = cmdQuery(os.Args[2:])
	case "stats":
		err = cmdStats(os.Args[2:])
	case "verify":
		err = cmdVerify(os.Args[2:])
	case "help", "-h", "--help":
		usage()
	default:
		fmt.Fprintf(os.Stderr, "bepi: unknown command %q\n\n", os.Args[1])
		usage()
		os.Exit(2)
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "bepi: %v\n", err)
		os.Exit(1)
	}
}

func usage() {
	fmt.Fprintln(os.Stderr, `usage:
  bepi preprocess -graph <edge-list> -index <out> [-c 0.05] [-tol 1e-9] [-k 0.2] [-variant bepi|bepi-s|bepi-b] [-parallelism 0]
  bepi query      -index <idx> -seed <node> [-topk 10] [-all]
  bepi stats      -index <idx>
  bepi verify     -graph <edge-list> [-seeds 10] [-tol 1e-9]`)
}

func loadGraph(path string) (*bepi.Graph, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	if strings.HasSuffix(path, ".mtx") {
		return bepi.ReadGraphMatrixMarket(f)
	}
	return bepi.ReadGraph(f)
}

func loadIndex(path string) (*bepi.Engine, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return bepi.Load(f)
}

func cmdPreprocess(args []string) error {
	fs := flag.NewFlagSet("preprocess", flag.ExitOnError)
	graphPath := fs.String("graph", "", "edge-list file (required)")
	indexPath := fs.String("index", "", "output index file (required)")
	c := fs.Float64("c", core.DefaultC, "restart probability")
	tol := fs.Float64("tol", core.DefaultTol, "solver tolerance")
	k := fs.Float64("k", 0, "hub selection ratio in (0,1) (0 = paper default)")
	variant := fs.String("variant", "bepi", "bepi | bepi-s | bepi-b")
	parallelism := fs.Int("parallelism", 0, "worker cap for preprocessing kernels (0 = all cores, 1 = serial)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *graphPath == "" || *indexPath == "" {
		return fmt.Errorf("-graph and -index are required")
	}
	g, err := loadGraph(*graphPath)
	if err != nil {
		return fmt.Errorf("loading graph: %w", err)
	}
	opts := []bepi.Option{bepi.WithRestartProb(*c), bepi.WithTolerance(*tol), bepi.WithParallelism(*parallelism)}
	if *k > 0 {
		opts = append(opts, bepi.WithHubRatio(*k))
	}
	switch *variant {
	case "bepi":
		opts = append(opts, bepi.WithVariant(bepi.BePIFull))
	case "bepi-s":
		opts = append(opts, bepi.WithVariant(bepi.BePIS))
	case "bepi-b":
		opts = append(opts, bepi.WithVariant(bepi.BePIB))
	default:
		return fmt.Errorf("unknown variant %q", *variant)
	}
	eng, err := bepi.New(g, opts...)
	if err != nil {
		return fmt.Errorf("preprocessing: %w", err)
	}
	out, err := os.Create(*indexPath)
	if err != nil {
		return err
	}
	defer out.Close()
	if err := eng.Save(out); err != nil {
		return fmt.Errorf("writing index: %w", err)
	}
	if err := out.Close(); err != nil {
		return err
	}
	fmt.Printf("preprocessed %s: n=%s m=%s in %s, index %s (%s)\n",
		*graphPath, bench.FmtCount(g.N()), bench.FmtCount(g.M()),
		bench.FmtDuration(eng.PreprocessTime()), *indexPath,
		bench.FmtBytes(eng.MemoryBytes()))
	st := eng.Internal().PrepStats()
	fmt.Printf("phases (%d workers): reorder %s, build H %s, factor H11 %s, Schur %s, ILU %s\n",
		st.Workers, bench.FmtDuration(st.Reorder), bench.FmtDuration(st.BuildH),
		bench.FmtDuration(st.FactorH11), bench.FmtDuration(st.Schur),
		bench.FmtDuration(st.ILU))
	return nil
}

func cmdQuery(args []string) error {
	fs := flag.NewFlagSet("query", flag.ExitOnError)
	indexPath := fs.String("index", "", "index file (required)")
	seed := fs.Int("seed", -1, "seed node (required)")
	topk := fs.Int("topk", 10, "number of results")
	all := fs.Bool("all", false, "print the full score vector instead of top-k")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *indexPath == "" || *seed < 0 {
		return fmt.Errorf("-index and -seed are required")
	}
	eng, err := loadIndex(*indexPath)
	if err != nil {
		return fmt.Errorf("loading index: %w", err)
	}
	if *all {
		scores, st, err := eng.QueryWithStats(*seed)
		if err != nil {
			return err
		}
		for node, s := range scores {
			fmt.Printf("%d\t%.10f\n", node, s)
		}
		fmt.Fprintf(os.Stderr, "query: %s, %d iterations\n", bench.FmtDuration(st.Duration), st.Iterations)
		return nil
	}
	_, st, err := eng.QueryWithStats(*seed)
	if err != nil {
		return err
	}
	top, err := eng.TopK(*seed, *topk)
	if err != nil {
		return err
	}
	fmt.Printf("top-%d nodes for seed %d (query %s, %d iterations):\n",
		len(top), *seed, bench.FmtDuration(st.Duration), st.Iterations)
	for rank, r := range top {
		fmt.Printf("%3d. node %-10d %.8f\n", rank+1, r.Node, r.Score)
	}
	return nil
}

// cmdVerify cross-checks BePI's answers against plain power iteration on a
// sample of seeds — a self-contained correctness audit for adopters.
func cmdVerify(args []string) error {
	fs := flag.NewFlagSet("verify", flag.ExitOnError)
	graphPath := fs.String("graph", "", "edge-list file (required)")
	seeds := fs.Int("seeds", 10, "number of random seeds to check")
	tol := fs.Float64("tol", core.DefaultTol, "solver tolerance")
	c := fs.Float64("c", core.DefaultC, "restart probability")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *graphPath == "" {
		return fmt.Errorf("-graph is required")
	}
	g, err := loadGraph(*graphPath)
	if err != nil {
		return fmt.Errorf("loading graph: %w", err)
	}
	eng, err := bepi.New(g, bepi.WithRestartProb(*c), bepi.WithTolerance(*tol))
	if err != nil {
		return fmt.Errorf("preprocessing: %w", err)
	}
	at := core.RowNormalizedAdjacencyT(g.Internal())
	rng := rand.New(rand.NewSource(1))
	worst := 0.0
	for i := 0; i < *seeds; i++ {
		s := rng.Intn(g.N())
		got, err := eng.Query(s)
		if err != nil {
			return fmt.Errorf("seed %d: %w", s, err)
		}
		q := make([]float64, g.N())
		q[s] = 1
		want, _, err := solver.PowerIteration(at, q, *c, solver.PowerOptions{Tol: *tol / 10, MaxIter: 10000})
		if err != nil {
			return fmt.Errorf("seed %d (power): %w", s, err)
		}
		d := vec.Dist2(got, want)
		if d > worst {
			worst = d
		}
		fmt.Printf("seed %-8d L2 distance to power iteration: %.3e\n", s, d)
	}
	threshold := 100 * *tol
	if worst > threshold {
		return fmt.Errorf("worst distance %.3e exceeds %.1e", worst, threshold)
	}
	fmt.Printf("OK: %d seeds verified, worst distance %.3e (threshold %.1e)\n", *seeds, worst, threshold)
	return nil
}

func cmdStats(args []string) error {
	fs := flag.NewFlagSet("stats", flag.ExitOnError)
	indexPath := fs.String("index", "", "index file (required)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *indexPath == "" {
		return fmt.Errorf("-index is required")
	}
	eng, err := loadIndex(*indexPath)
	if err != nil {
		return fmt.Errorf("loading index: %w", err)
	}
	st := eng.Internal().PrepStats()
	opts := eng.Internal().Options()
	fmt.Printf("index: %s\n", *indexPath)
	fmt.Printf("  variant:       %s\n", opts.Variant)
	fmt.Printf("  restart prob:  %g\n", opts.C)
	fmt.Printf("  tolerance:     %g\n", opts.Tol)
	fmt.Printf("  hub ratio k:   %g\n", st.HubRatio)
	fmt.Printf("  nodes:         %s (spokes %s, hubs %s, deadends %s)\n",
		bench.FmtCount(st.N), bench.FmtCount(st.N1), bench.FmtCount(st.N2), bench.FmtCount(st.N3))
	fmt.Printf("  H11 blocks:    %s\n", bench.FmtCount(st.Blocks))
	fmt.Printf("  |S|:           %s\n", bench.FmtCount(st.SchurNNZ))
	fmt.Printf("  index size:    %s\n", bench.FmtBytes(eng.MemoryBytes()))
	if st.Total > 0 {
		fmt.Printf("  preprocessing: %s (reorder %s, build %s, factor H11 %s, Schur %s, ILU %s)\n",
			bench.FmtDuration(st.Total), bench.FmtDuration(st.Reorder),
			bench.FmtDuration(st.BuildH), bench.FmtDuration(st.FactorH11),
			bench.FmtDuration(st.Schur), bench.FmtDuration(st.ILU))
	}
	return nil
}
