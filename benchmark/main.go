// Command benchmark is the repository's benchmark: five workloads that drive
// the system the way its users do — library preprocessing, library solves,
// two traffic mixes against coordinator → shard HTTP, and an update stream —
// through public functions with default configs, checking answers against an
// independent oracle.
//
//	go run ./benchmark                       all workloads, end-to-end metrics
//	go run ./benchmark -trace 1              all workloads, per-layer metrics
//	go run ./benchmark -workload serve-hot   one workload, in this process
//	go run ./benchmark -runs 10 -out A.json  ten seeds per workload, one file
//	go run ./benchmark compare A.json B.json verdict per workload × metric
//	go run ./benchmark spec                  print BENCHMARK.json
//
// With -workload the last line of standard output is the result object the
// benchmark contract asks for. README.md describes workloads and metrics.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"time"
)

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

func run(args []string, stdout, stderr io.Writer) int {
	if len(args) > 0 {
		switch args[0] {
		case "spec":
			b, err := currentSpec().marshal()
			if err != nil {
				fmt.Fprintln(stderr, "benchmark:", err)
				return 1
			}
			if _, err := stdout.Write(b); err != nil {
				return 1
			}
			return 0
		case "compare":
			return compareMain(args[1:], stdout, stderr)
		}
	}
	fs := flag.NewFlagSet("benchmark", flag.ContinueOnError)
	fs.SetOutput(stderr)
	workload := fs.String("workload", "", "run one workload in this process (default: all five, each in a fresh process)")
	seed := fs.Int64("seed", defaultSeed, fmt.Sprintf("input seed: query seeds, hot set, request mix and edge deltas derive from it; the graphs are fixed (held-out seed for later claims: %d)", heldOutSeed))
	seconds := fs.Float64("seconds", runSeconds, "how long each run measures")
	trace := fs.Int("trace", 0, "1: traced run, per-layer metrics; 0: untraced run, end-to-end metrics")
	out := fs.String("out", "", "JSON result file (default benchmark/out/result[-trace].json); a traced run writes its spans beside it")
	runs := fs.Int("runs", 1, "runs per workload, with seeds seed, seed+1, ...")
	quick := fs.Bool("quick", false, "smoke sizes: tiny graphs, one set-up per run")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if fs.NArg() > 0 || *seconds <= 0 || *runs < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintln(stderr, "benchmark: bad arguments; see -h")
		return 2
	}
	if *out == "" {
		*out = "benchmark/out/result.json"
		if *trace == 1 {
			*out = "benchmark/out/result-trace.json"
		}
	}
	c := config{
		seed:   *seed,
		window: time.Duration(*seconds * float64(time.Second)),
		trace:  *trace == 1,
		quick:  *quick,
		outDir: filepath.Dir(*out),
	}
	if *workload != "" {
		return runOne(*workload, c, *out, stdout, stderr)
	}
	return runAll(c, *runs, *out, stdout, stderr)
}

// runOne runs one workload in this process, prints its metrics, writes the
// result file and ends with the contract's result line.
func runOne(name string, c config, out string, stdout, stderr io.Writer) int {
	w, err := findWorkload(name)
	if err != nil {
		fmt.Fprintln(stderr, "benchmark:", err)
		return 2
	}
	res, err := w.run(c)
	if err != nil {
		fmt.Fprintf(stderr, "benchmark: %s: %v\n", name, err)
		return 1
	}
	res.print(stdout)
	if err := writeResults(out, []*result{res}); err != nil {
		fmt.Fprintln(stderr, "benchmark:", err)
		return 1
	}
	line, err := contractLine(res)
	if err != nil {
		fmt.Fprintf(stderr, "benchmark: %s: %v\n", name, err)
		return 1
	}
	fmt.Fprintln(stdout, line)
	return 0
}

// contractLine is the one JSON object the benchmark contract reads: an
// untraced run carries every end-to-end metric, a traced run every
// per-layer metric (0 where the workload does not have it).
func contractLine(res *result) (string, error) {
	type mv struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	obj := struct {
		Correct   bool          `json:"correct"`
		Attempted int           `json:"attempted"`
		Failed    int           `json:"failed"`
		Metrics   map[string]mv `json:"metrics"`
	}{res.Correct, res.Attempted, res.Failed, map[string]mv{}}
	if res.Trace {
		for _, d := range perLayer {
			obj.Metrics[d.Name] = mv{res.Metrics[d.Name].Value, d.Unit}
		}
	} else {
		for _, d := range endToEnd {
			m, ok := res.Metrics[d.Name]
			if !ok {
				return "", fmt.Errorf("end-to-end metric %s was not measured", d.Name)
			}
			obj.Metrics[d.Name] = mv{m.Value, d.Unit}
		}
	}
	b, err := json.Marshal(obj)
	return string(b), err
}

// runAll runs every workload runs times, each run in a fresh process so
// that peak RSS and warm-up state belong to that workload alone.
func runAll(c config, runs int, out string, stdout, stderr io.Writer) int {
	exe, err := os.Executable()
	if err != nil {
		fmt.Fprintln(stderr, "benchmark:", err)
		return 1
	}
	var all []*result
	code := 0
	for r := 0; r < runs; r++ {
		for _, w := range workloads {
			tmp := filepath.Join(c.outDir, fmt.Sprintf("run-%s-seed%d.json", w.name, c.seed+int64(r)))
			tr := "0"
			if c.trace {
				tr = "1"
			}
			args := []string{"-workload", w.name, "-seed", fmt.Sprint(c.seed + int64(r)),
				"-seconds", fmt.Sprint(c.window.Seconds()), "-trace", tr, "-out", tmp}
			if c.quick {
				args = append(args, "-quick")
			}
			cmd := exec.Command(exe, args...)
			cmd.Stdout, cmd.Stderr = stdout, stderr
			if err := cmd.Run(); err != nil {
				fmt.Fprintf(stderr, "benchmark: %s: %v\n", w.name, err)
				code = 1
				continue
			}
			rs, err := readResults(tmp)
			_ = os.Remove(tmp) // a scratch file; a leftover is harmless
			if err != nil {
				fmt.Fprintln(stderr, "benchmark:", err)
				code = 1
				continue
			}
			all = append(all, rs...)
		}
	}
	if err := writeResults(out, all); err != nil {
		fmt.Fprintln(stderr, "benchmark:", err)
		return 1
	}
	summary(stdout, all, c.trace)
	fmt.Fprintf(stdout, "results written to %s\n", out)
	for _, r := range all {
		if !r.Correct {
			code = 1
		}
	}
	return code
}

// summary prints, per workload, the median of every end-to-end metric (or,
// for traced runs, every per-layer metric) across the runs and — given
// enough runs — its spread (interquartile range over median), the steadiness
// the contract's bounds are judged against.
func summary(w io.Writer, all []*result, trace bool) {
	defs := append(endToEnd[:len(endToEnd):len(endToEnd)], demoted...)
	if trace {
		defs = perLayer
	}
	fmt.Fprintf(w, "\n%-16s %-28s %14s %-6s %5s %8s\n", "workload", "metric", "median", "unit", "runs", "spread")
	for _, wl := range workloads {
		for _, d := range defs {
			var xs []float64
			for _, r := range all {
				if m, ok := r.Metrics[d.Name]; ok && r.Workload == wl.name {
					xs = append(xs, m.Value)
				}
			}
			if len(xs) == 0 {
				continue
			}
			sp := "-"
			if len(xs) >= 4 {
				sp = fmt.Sprintf("%.1f%%", 100*spread(xs))
			}
			fmt.Fprintf(w, "%-16s %-28s %14.6g %-6s %5d %8s\n", wl.name, d.Name, median(sorted(xs)), d.Unit, len(xs), sp)
		}
	}
}
