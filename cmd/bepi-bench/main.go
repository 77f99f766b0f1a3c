// Command bepi-bench regenerates the tables and figures of the BePI paper's
// evaluation on synthetic stand-in datasets.
//
//	bepi-bench list                      # show available experiments
//	bepi-bench all   [-size small]       # run every experiment
//	bepi-bench fig1  [-size full] [-seeds 30] [-csv dir]
//
// Sizes: tiny (seconds), small (a minute or two), full (the EXPERIMENTS.md
// configuration; tens of minutes).
package main

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"time"

	"bepi/internal/bench"
	"bepi/internal/method"
)

func main() {
	if len(os.Args) < 2 {
		usage()
		os.Exit(2)
	}
	cmd := os.Args[1]
	if cmd == "list" {
		for _, e := range bench.Experiments() {
			fmt.Printf("%-12s %s\n", e.Name, e.Desc)
		}
		for _, e := range bench.AblationExperiments() {
			fmt.Printf("%-12s %s\n", e.Name, e.Desc)
		}
		return
	}
	if cmd == "help" || cmd == "-h" || cmd == "--help" {
		usage()
		return
	}

	fs := flag.NewFlagSet(cmd, flag.ExitOnError)
	size := fs.String("size", "small", "suite size: tiny | small | full")
	seeds := fs.Int("seeds", 0, "query seeds per dataset (0 = size default)")
	tol := fs.Float64("tol", 1e-9, "solver tolerance")
	memBudget := fs.Int64("mem-budget", 0, "preprocessing memory budget in bytes (0 = size default)")
	deadline := fs.Duration("deadline", 0, "preprocessing deadline (0 = size default)")
	parallelism := fs.Int("parallelism", 0, "worker cap for preprocessing kernels (0 = all cores, 1 = serial)")
	csvDir := fs.String("csv", "", "also write each table as CSV into this directory")
	if err := fs.Parse(os.Args[2:]); err != nil {
		os.Exit(2)
	}
	cfg := bench.Config{
		Size:        bench.Size(*size),
		Seeds:       *seeds,
		Tol:         *tol,
		Parallelism: *parallelism,
		Budget: method.Budget{
			Memory:   *memBudget,
			Deadline: *deadline,
		},
	}

	var exps []bench.Experiment
	switch {
	case cmd == "all":
		exps = bench.Experiments()
	case cmd == "ablations":
		exps = bench.AblationExperiments()
	default:
		e, ok := bench.FindExperiment(cmd)
		if !ok {
			fmt.Fprintf(os.Stderr, "bepi-bench: unknown experiment %q (try `bepi-bench list`)\n", cmd)
			os.Exit(2)
		}
		exps = []bench.Experiment{e}
	}

	for _, e := range exps {
		start := time.Now()
		tables, err := e.Run(cfg)
		if err != nil {
			fmt.Fprintf(os.Stderr, "bepi-bench: %s: %v\n", e.Name, err)
			os.Exit(1)
		}
		for i, t := range tables {
			if err := t.Fprint(os.Stdout); err != nil {
				fmt.Fprintf(os.Stderr, "bepi-bench: %v\n", err)
				os.Exit(1)
			}
			if *csvDir != "" {
				if err := writeCSV(*csvDir, e.Name, i, t); err != nil {
					fmt.Fprintf(os.Stderr, "bepi-bench: %v\n", err)
					os.Exit(1)
				}
			}
		}
		fmt.Printf("[%s completed in %s]\n\n", e.Name, bench.FmtDuration(time.Since(start)))
	}
}

func writeCSV(dir, exp string, idx int, t *bench.Table) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	name := fmt.Sprintf("%s_%d.csv", exp, idx)
	f, err := os.Create(filepath.Join(dir, name))
	if err != nil {
		return err
	}
	defer f.Close()
	if err := t.WriteCSV(f); err != nil {
		return err
	}
	return f.Close()
}

func usage() {
	var names []string
	for _, e := range bench.Experiments() {
		names = append(names, e.Name)
	}
	fmt.Fprintf(os.Stderr, `usage:
  bepi-bench list
  bepi-bench all [flags]
  bepi-bench <experiment> [flags]

experiments: %s

flags:
  -size tiny|small|full   suite size (default small)
  -seeds N                query seeds per dataset
  -tol ε                  solver tolerance (default 1e-9)
  -mem-budget BYTES       preprocessing memory budget
  -deadline DUR           preprocessing deadline (e.g. 120s)
  -parallelism N          kernel worker cap (0 = all cores, 1 = serial)
  -csv DIR                also write tables as CSV
`, strings.Join(names, " "))
}
