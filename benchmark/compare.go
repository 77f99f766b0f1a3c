package main

import (
	"fmt"
	"io"
	"math"
	"slices"
	"strings"
)

// compare judges run set B (the change) against run set A (the parent) with
// the bounds BENCHMARK.json fixes, one row per workload × metric:
//
//	ok          B's median is no worse than A's by more than the bound
//	regressed   it is
//	unresolved  either side's run-to-run spread is wider than the bound, so
//	            the medians cannot settle it
//	-           the metric has no bound: the row is there to be read
//
// End-to-end metrics — the bounded ones and the demoted ones that
// BENCHMARK.json lists under per_layer, told apart from layer.metric names by
// having no dot — are read from untraced runs, per-layer metrics from traced
// ones. Of the unbounded rows, slo_rate_rps is quantised to the ladder and
// may drop one step, error_share must be 0, and rows that repeat exactly on
// one seed — every *_count row, iteration counts — are compared seed by seed
// and may not get worse at all. Other per-layer rows are not printed.

const ladderStep = 2.0 // ratio between adjacent serve-hot rates

type verdict struct {
	workload, metric, unit string
	a, b                   float64 // medians
	change                 float64 // how much worse B is, as a share of A
	limit                  string
	status                 string
}

func compareMain(args []string, stdout, stderr io.Writer) int {
	if len(args) != 2 {
		fmt.Fprintln(stderr, "usage: benchmark compare A.json B.json")
		return 2
	}
	a, err := readResults(args[0])
	if err != nil {
		fmt.Fprintln(stderr, "benchmark:", err)
		return 1
	}
	b, err := readResults(args[1])
	if err != nil {
		fmt.Fprintln(stderr, "benchmark:", err)
		return 1
	}
	rows := compare(currentSpec(), a, b)
	bad := 0
	fmt.Fprintf(stdout, "%-16s %-28s %14s %14s %-6s %8s %-9s %s\n", "workload", "metric", "A median", "B median", "unit", "worse", "limit", "verdict")
	for _, v := range rows {
		fmt.Fprintf(stdout, "%-16s %-28s %14.6g %14.6g %-6s %7.1f%% %-9s %s\n",
			v.workload, v.metric, v.a, v.b, v.unit, 100*v.change, v.limit, v.status)
		if v.status == "regressed" {
			bad++
		}
	}
	if bad > 0 {
		fmt.Fprintf(stdout, "%d regressed\n", bad)
		return 1
	}
	fmt.Fprintln(stdout, "no regression")
	return 0
}

// exactRow reports whether a metric repeats exactly between two runs of one
// seed, so that any worsening is a change of the code.
func exactRow(name, unit string) bool {
	return strings.HasSuffix(name, "_count") || unit == "iters"
}

// valuesOf collects one metric of one workload from the traced or the
// untraced runs of a set.
func valuesOf(rs []*result, workload, metric string, traced bool) (xs []float64, bySeed map[int64]float64) {
	bySeed = make(map[int64]float64)
	for _, r := range rs {
		if m, ok := r.Metrics[metric]; ok && r.Workload == workload && r.Trace == traced {
			xs = append(xs, m.Value)
			bySeed[r.Seed] = m.Value
		}
	}
	return xs, bySeed
}

func compare(spec benchmarkSpec, a, b []*result) []verdict {
	var out []verdict
	// bound < 0 marks a per_layer row, which has none.
	judge := func(wl, name, unit, better string, bound float64) {
		traced := strings.Contains(name, ".")
		xa, sa := valuesOf(a, wl, name, traced)
		xb, sb := valuesOf(b, wl, name, traced)
		if len(xa) == 0 || len(xb) == 0 {
			return
		}
		worse := func(va, vb float64) float64 { // how much worse vb is than va, in the metric's unit
			if better == "higher" {
				return va - vb
			}
			return vb - va
		}
		v := verdict{workload: wl, metric: name, unit: unit, a: median(sorted(xa)), b: median(sorted(xb)), status: "ok"}
		if v.a != 0 {
			v.change = worse(v.a, v.b) / math.Abs(v.a)
		}
		switch {
		case bound >= 0:
			v.limit = fmt.Sprintf("%.3g%%", 100*bound)
			switch {
			case len(xa) >= 4 && spread(xa) > bound, len(xb) >= 4 && spread(xb) > bound:
				v.status = "unresolved"
			case v.change > bound:
				v.status = "regressed"
			}
		case exactRow(name, unit):
			v.limit = "exact"
			for seed, va := range sa {
				if vb, ok := sb[seed]; ok && worse(va, vb) > 0 {
					v.status = "regressed"
				}
			}
		case name == "slo_rate_rps":
			v.limit = "1 step"
			if v.b < v.a/ladderStep {
				v.status = "regressed"
			}
		case name == "error_share":
			v.limit = "0"
			if slices.Max(xb) > 0 {
				v.status = "regressed"
			}
		case !traced:
			v.limit, v.status = "none", "-"
		default:
			return // an unbounded layer.metric row: nothing to judge
		}
		out = append(out, v)
	}
	for _, wl := range spec.Workloads {
		for _, d := range spec.EndToEnd {
			judge(wl.Name, d.Name, d.Unit, d.Better, d.Bound)
		}
		for _, d := range spec.PerLayer {
			judge(wl.Name, d.Name, d.Unit, d.Better, -1)
		}
	}
	return out
}
