package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"sort"
	"strconv"
	"strings"
	"time"
)

// metric is one named measurement. N is the sample count behind a timing;
// Note says how the number was obtained when it was not timed from outside
// ("reported" by the program, "computed" from array sizes) or flags it.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
	N     int     `json:"n,omitempty"`
	Note  string  `json:"note,omitempty"`
}

type metrics map[string]metric

func (m metrics) set(name string, v float64, unit string) { m[name] = metric{Value: v, Unit: unit} }

func (m metrics) setN(name string, v float64, unit string, n int) {
	m[name] = metric{Value: v, Unit: unit, N: n}
}

func (m metrics) note(name, note string) {
	x := m[name]
	if x.Note != "" {
		note = x.Note + "; " + note
	}
	x.Note = note
	m[name] = x
}

// latency sets <prefix>_p50_ms, and <prefix>_p95_ms / <prefix>_p99_ms when
// enough samples lie beyond them.
func (m metrics) latency(prefix string, samplesMS []float64) {
	s := sorted(samplesMS)
	m.setN(prefix+"_p50_ms", median(s), "ms", len(s))
	for _, p := range []struct {
		name string
		p    float64
	}{{"_p95_ms", 0.95}, {"_p99_ms", 0.99}} {
		if v, ok := percentile(s, p.p); ok {
			m.setN(prefix+p.name, v, "ms", len(s))
		}
	}
}

// result is what one run of one workload produces; a result file holds a
// list of them.
type result struct {
	Workload     string         `json:"workload"`
	Seed         int64          `json:"seed"`
	Seconds      float64        `json:"seconds"`
	Trace        bool           `json:"trace"`
	WorkloadHash string         `json:"workload_hash"`
	Correct      bool           `json:"correct"`
	Attempted    int            `json:"attempted"`
	Failed       int            `json:"failed"`
	Errors       []string       `json:"errors,omitempty"` // first few failures
	Metrics      metrics        `json:"metrics"`
	Waterfall    []waterfallRow `json:"waterfall,omitempty"`
	Ladder       []ladderRung   `json:"ladder,omitempty"`
	Steps        []rateStep     `json:"rate_steps,omitempty"`
}

// fail counts one failed op and keeps the first few messages.
func (r *result) fail(err error) {
	r.Failed++
	if len(r.Errors) < 8 {
		r.Errors = append(r.Errors, err.Error())
	}
}

// account adds a batch of op results to attempted/failed.
func (r *result) account(ops []opResult) {
	for _, o := range ops {
		r.Attempted++
		switch {
		case !o.Sent:
			r.fail(fmt.Errorf("op %d unsent by the deadline", o.Index))
		case o.Err != nil:
			r.fail(o.Err)
		}
	}
}

// finish derives error_share and correctness.
func (r *result) finish() {
	share := 0.0
	if r.Attempted > 0 {
		share = float64(r.Failed) / float64(r.Attempted)
	}
	r.Metrics.setN("error_share", share, "ratio", r.Attempted)
	r.Correct = r.Failed == 0 && r.Attempted > 0
}

// print writes the human-readable metric list: every metric by name with
// its unit and sample count.
func (r *result) print(w io.Writer) {
	fmt.Fprintf(w, "== %s  seed=%d  trace=%v  hash=%s  attempted=%d failed=%d correct=%v\n",
		r.Workload, r.Seed, r.Trace, r.WorkloadHash, r.Attempted, r.Failed, r.Correct)
	names := make([]string, 0, len(r.Metrics))
	for n := range r.Metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		m := r.Metrics[n]
		line := fmt.Sprintf("  %-34s %14.6g %-6s", n, m.Value, m.Unit)
		if m.N > 0 {
			line += fmt.Sprintf(" n=%d", m.N)
		}
		if m.Note != "" {
			line += "  (" + m.Note + ")"
		}
		fmt.Fprintln(w, strings.TrimRight(line, " "))
	}
	for _, st := range r.Steps {
		fmt.Fprintf(w, "  rate %6.0f rps: p50 %.3f ms  p95 %.3f ms  sent %d  failed %d  late_p99 %.3f ms  backlog=%v  trusted=%v\n",
			st.RPS, st.P50MS, st.P95MS, st.Sent, st.Failed, st.LateP99MS, st.Backlog, st.Trusted)
	}
	if len(r.Ladder) > 0 {
		fmt.Fprintln(w, "  boundary ladder (single client, same seeds at every rung; self = rung − rung below):")
		for _, l := range r.Ladder {
			fmt.Fprintf(w, "    %-28s median %9.3f ms  self %9.3f ms  n=%d\n", l.Boundary, l.MedianMS, l.SelfMS, l.N)
		}
	}
	if len(r.Waterfall) > 0 {
		fmt.Fprintln(w, "  waterfall (median self time per layer; rows sum to the client span):")
		for _, row := range r.Waterfall {
			fmt.Fprintf(w, "    %-28s %9.3f ms  %5.1f%%\n", row.Layer, row.MS, 100*row.Share)
		}
	}
	for _, e := range r.Errors {
		fmt.Fprintf(w, "  FAILED: %s\n", e)
	}
}

// resultFile is the JSON result file: every run of an invocation.
type resultFile struct {
	Runs []*result `json:"runs"`
}

func writeResults(path string, runs []*result) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	b, err := json.MarshalIndent(resultFile{Runs: runs}, "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, b, 0o644)
}

func readResults(path string) ([]*result, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var f resultFile
	if err := json.Unmarshal(b, &f); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return f.Runs, nil
}

// peakRSSMB reads the process's peak resident set (VmHWM) in MB; 0 where
// /proc is unavailable.
func peakRSSMB() float64 {
	f, err := os.Open("/proc/self/status")
	if err != nil {
		return 0
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if rest, ok := strings.CutPrefix(sc.Text(), "VmHWM:"); ok {
			kb, _ := strconv.ParseFloat(strings.TrimSpace(strings.TrimSuffix(strings.TrimSpace(rest), "kB")), 64)
			return kb / 1024
		}
	}
	return 0
}

// startWindow ends set-up: it records the process's peak RSS so far as
// loadgen.setup_peak_rss_mb, returns set-up's garbage to the OS and restarts
// the kernel's high-water mark, so that peak_rss_mb is the measured window's
// own peak. Across three set-ups the whole-process peak depends on when the
// collector happened to run (it was bimodal, 205 or 255 MB, on batch-solve).
func (m metrics) startWindow() {
	m.set("loadgen.setup_peak_rss_mb", peakRSSMB(), "MB")
	debug.FreeOSMemory()
	if err := os.WriteFile("/proc/self/clear_refs", []byte("5"), 0); err != nil {
		m.note("loadgen.setup_peak_rss_mb", "high-water mark not reset ("+err.Error()+"): peak_rss_mb is the whole process's")
	}
}

// endWindow records the window's peak RSS.
func (m metrics) endWindow() { m.set("peak_rss_mb", peakRSSMB(), "MB") }

// medianSetup runs setup n times, tearing down all but the last result, and
// returns the last result with the median set-up time. A run sets up
// several times because one set-up is a single noisy sample.
func medianSetup[T any](n int, setup func() (T, error), teardown func(T)) (T, time.Duration, error) {
	var last T
	times := make([]float64, 0, n)
	for i := 0; i < n; i++ {
		if i > 0 {
			teardown(last)
			var zero T
			last = zero
			runtime.GC() // drop the discarded set-up so peak RSS stays that of one
		}
		t0 := time.Now()
		v, err := setup()
		if err != nil {
			return last, 0, err
		}
		times = append(times, time.Since(t0).Seconds())
		last = v
	}
	return last, time.Duration(median(sorted(times)) * float64(time.Second)), nil
}
