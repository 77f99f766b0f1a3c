package obs

import (
	"fmt"
	"io"
	"math"
	"sort"
	"strconv"
	"strings"
)

// PromWriter emits the Prometheus text exposition format (version 0.0.4).
// It tracks family names and rejects duplicates, so an exposition
// assembled from several subsystems cannot silently emit a family twice —
// the failure mode Prometheus itself rejects at scrape time.
type PromWriter struct {
	w    io.Writer
	seen map[string]bool
	err  error
}

// NewPromWriter wraps w. Check Err after writing every family.
func NewPromWriter(w io.Writer) *PromWriter {
	return &PromWriter{w: w, seen: make(map[string]bool)}
}

// Err returns the first error encountered (I/O, invalid name, or duplicate
// family).
func (p *PromWriter) Err() error { return p.err }

// validName reports whether name matches [a-zA-Z_:][a-zA-Z0-9_:]*.
func validName(name string) bool {
	if name == "" {
		return false
	}
	for i, r := range name {
		switch {
		case r >= 'a' && r <= 'z', r >= 'A' && r <= 'Z', r == '_', r == ':':
		case r >= '0' && r <= '9':
			if i == 0 {
				return false
			}
		default:
			return false
		}
	}
	return true
}

func (p *PromWriter) family(name string, kind Kind, help string) bool {
	if p.err != nil {
		return false
	}
	if !validName(name) {
		p.err = fmt.Errorf("obs: invalid metric name %q", name)
		return false
	}
	if p.seen[name] {
		p.err = fmt.Errorf("obs: duplicate metric family %q", name)
		return false
	}
	p.seen[name] = true
	_, p.err = fmt.Fprintf(p.w, "# HELP %s %s\n# TYPE %s %s\n",
		name, strings.ReplaceAll(help, "\n", " "), name, kind)
	return p.err == nil
}

func promFloat(v float64) string {
	switch {
	case math.IsInf(v, 1):
		return "+Inf"
	case math.IsInf(v, -1):
		return "-Inf"
	case math.IsNaN(v):
		return "NaN"
	}
	return strconv.FormatFloat(v, 'g', -1, 64)
}

func (p *PromWriter) sample(name, labels string, v float64) {
	if p.err != nil {
		return
	}
	if labels != "" {
		labels = "{" + labels + "}"
	}
	_, p.err = fmt.Fprintf(p.w, "%s%s %s\n", name, labels, promFloat(v))
}

// vec writes one family with a sample per value of the given label, in
// sorted label order for a reproducible exposition.
func (p *PromWriter) vec(name string, kind Kind, help, label string, vals map[string]float64) {
	if !p.family(name, kind, help) {
		return
	}
	keys := make([]string, 0, len(vals))
	for k := range vals {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		p.sample(name, fmt.Sprintf("%s=%q", label, k), vals[k])
	}
}

// buildInfo writes the bepi_build_info gauge: one constant-1 sample whose
// labels carry the build identity (the `foo_build_info` idiom).
func (p *PromWriter) buildInfo(b BuildInfo) {
	const name = "bepi_build_info"
	if p.family(name, KindGauge, "Build identity; the values are in the labels.") {
		p.sample(name, fmt.Sprintf("go_version=%q,version=%q", b.GoVersion, b.Version), 1)
	}
}

// Histogram writes a snapshot as a Prometheus histogram family: cumulative
// `le` buckets, then _sum and _count.
func (p *PromWriter) Histogram(name, help string, s HistSnapshot) {
	if !p.family(name, KindHistogram, help) {
		return
	}
	var cum uint64
	for i, b := range s.Bounds {
		cum += s.Counts[i]
		p.sample(name+"_bucket", fmt.Sprintf("le=%q", promFloat(b)), float64(cum))
	}
	p.sample(name+"_bucket", `le="+Inf"`, float64(s.Count))
	p.sample(name+"_sum", "", s.Sum)
	p.sample(name+"_count", "", float64(s.Count))
}
