package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"sync"
	"time"
)

// span is one timed interval at a layer boundary. All spans of one request
// share Req. Spans are recorded only by benchmark code, around the calls
// into each layer; the program itself is not instrumented.
type span struct {
	Req   uint64 `json:"req"`
	Layer string `json:"layer"`
	Start int64  `json:"start_ns"` // since the recorder's epoch
	End   int64  `json:"end_ns"`
	// Reported marks a duration the program reported about itself (a
	// response field) rather than one timed from outside: it has a length
	// (Start is 0) but no position.
	Reported bool `json:"reported,omitempty"`
}

func (s span) dur() int64 { return s.End - s.Start }

// recorder keeps spans in memory until the benchmark ends. A nil recorder
// records nothing, so untraced runs pay nothing.
type recorder struct {
	mu    sync.Mutex
	epoch time.Time
	spans []span
}

func newRecorder() *recorder { return &recorder{epoch: time.Now()} }

func (r *recorder) add(req uint64, layer string, start, end time.Time) {
	if r == nil {
		return
	}
	s := span{Req: req, Layer: layer, Start: start.Sub(r.epoch).Nanoseconds(), End: end.Sub(r.epoch).Nanoseconds()}
	r.mu.Lock()
	r.spans = append(r.spans, s)
	r.mu.Unlock()
}

// addReported records a duration the program reported for one of its layers.
func (r *recorder) addReported(req uint64, layer string, d time.Duration) {
	if r == nil {
		return
	}
	r.mu.Lock()
	r.spans = append(r.spans, span{Req: req, Layer: layer, End: d.Nanoseconds(), Reported: true})
	r.mu.Unlock()
}

// byRequest groups the recorded spans by request id.
func (r *recorder) byRequest() map[uint64][]span {
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make(map[uint64][]span)
	for _, s := range r.spans {
		out[s.Req] = append(out[s.Req], s)
	}
	return out
}

// write dumps every span as JSON.
func (r *recorder) write(path string) error {
	r.mu.Lock()
	defer r.mu.Unlock()
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	b, err := json.Marshal(r.spans)
	if err != nil {
		return err
	}
	return os.WriteFile(path, b, 0o644)
}

// layerDef places one layer of a waterfall under its parent layer. A
// waterfall is a list of them, the root (parent "") first and every parent
// before its children: the nesting each workload records is fixed, so it is
// declared, not inferred from the spans.
type layerDef struct{ name, parent string }

// selfTimes computes, for the spans of one request, each declared layer's
// span time (its spans' summed duration) and self time: span time minus the
// span time of its child layers. The self times sum to the root's span time.
// ok is false when the request has no root span. Spans of layers the
// waterfall does not declare are not counted.
func selfTimes(spans []span, layers []layerDef) (total, self map[string]int64, ok bool) {
	total = make(map[string]int64, len(layers))
	self = make(map[string]int64, len(layers))
	for _, l := range layers {
		for _, s := range spans {
			if s.Layer == l.name {
				total[l.name] += s.dur()
				ok = ok || l.parent == ""
			}
		}
		self[l.name] += total[l.name]
		if l.parent != "" {
			self[l.parent] -= total[l.name]
		}
	}
	return total, self, ok
}

// waterfallRow is one line of a per-layer latency breakdown.
type waterfallRow struct {
	Layer string  `json:"layer"`
	MS    float64 `json:"ms"`    // median self time across requests
	Share float64 `json:"share"` // of the root span's median
}

// layerTimes holds, per request, one layer's self time and span duration in
// milliseconds.
type layerTimes struct{ self, total []float64 }

// aggregate computes the per-request self times and span times of every
// layer, plus the root span durations, over the requests that have a root.
func aggregate(reqs map[uint64][]span, defs []layerDef) (layers map[string]*layerTimes, roots []float64) {
	layers = make(map[string]*layerTimes, len(defs))
	for _, d := range defs {
		layers[d.name] = &layerTimes{}
	}
	for _, spans := range reqs {
		total, self, ok := selfTimes(spans, defs)
		if !ok {
			continue
		}
		roots = append(roots, float64(total[defs[0].name])/1e6)
		for l, lt := range layers {
			lt.self = append(lt.self, float64(self[l])/1e6)
			lt.total = append(lt.total, float64(total[l])/1e6)
		}
	}
	return layers, roots
}

// waterfall turns aggregated self times into rows in the declared order: the
// median self time of each layer, plus an "unattributed" row so that the
// rows sum to the median root span. Per request the self times sum to the
// root exactly, so unattributed is what the medians fail to add up to.
func waterfall(layers map[string]*layerTimes, roots []float64, defs []layerDef) (rows []waterfallRow, rootMS float64) {
	rootMS = median(sorted(roots))
	rest := rootMS
	for _, d := range defs {
		m := median(sorted(layers[d.name].self))
		rows = append(rows, waterfallRow{Layer: d.name, MS: m})
		rest -= m
	}
	rows = append(rows, waterfallRow{Layer: "unattributed", MS: rest})
	if rootMS > 0 {
		for i := range rows {
			rows[i].Share = rows[i].MS / rootMS
		}
	}
	return rows, rootMS
}

// unattributedShare is |unattributed| as a share of the root span.
func unattributedShare(rows []waterfallRow) float64 {
	for _, r := range rows {
		if r.Layer == "unattributed" {
			if r.Share < 0 {
				return -r.Share
			}
			return r.Share
		}
	}
	return 0
}

// waterfallInto computes the waterfall of everything rec holds and records
// its root span and unattributed share as metrics.
func waterfallInto(m metrics, rec *recorder, defs []layerDef) ([]waterfallRow, map[string]*layerTimes) {
	layers, roots := aggregate(rec.byRequest(), defs)
	rows, rootMS := waterfall(layers, roots, defs)
	m.setN("trace.root_span_ms", rootMS, "ms", len(roots))
	m.set("trace.unattributed_share", unattributedShare(rows), "ratio")
	return rows, layers
}
