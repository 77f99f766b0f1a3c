package obs

import (
	"math"
	"net/http"
	"runtime"
	"sort"
	"strings"
	"time"
)

// Kind is a metric family's Prometheus type.
type Kind string

// The three family types the tiers export.
const (
	KindCounter   Kind = "counter"
	KindGauge     Kind = "gauge"
	KindHistogram Kind = "histogram"
)

// Metric is one row of a tier's metric table, the one place a metric is
// declared. Every view is derived from the rows:
//
//   - ServeProm: one family per row with a Name, in row order;
//   - JSON: one value per row with a JSON path. A path ending in "_ms"
//     carries the row's seconds as milliseconds. A labelled row expands
//     its label values into keys where the path says "{}" (prep.{}_ms) or
//     into an array of objects, one per label value, where it says "[]"
//     (fleet.shards[].p50_ms; the element carries the value under the
//     label's name). A histogram row is its count and p50/p90/p99, in
//     milliseconds ("p50_ms") when the family is in seconds;
//   - Snapshot: a counter per scalar row with a Snap key (a key ending in
//     "_ns" carries the row's seconds as nanoseconds), a histogram per
//     histogram row with one.
//
// A row has one value source: Value for a single sample, Vec for a
// labelled family, Hist for a histogram. A nil source means the metric is
// not collected here: the exposition leaves the family out, JSON reads it
// as zero, the snapshot carries a zero counter and no histogram.
type Metric struct {
	Name  string // Prometheus family name; "" keeps the row out of the exposition
	Kind  Kind
	Help  string
	Label string // the label of a labelled family
	JSON  string // dotted path in the /metrics JSON; "" keeps the row out of it
	Snap  string // key in /metrics/snapshot; "" keeps the row out of it

	Value func() float64
	Vec   func() map[string]float64
	Hist  func() HistSnapshot
}

// Val is the value source of a row whose value was read when its table was
// built.
func Val[T int | int64 | uint64 | float64](v T) func() float64 {
	return func() float64 { return float64(v) }
}

// ServeProm writes a tier's whole Prometheus exposition: build identity,
// the rows in order, then Go runtime health. An exposition the writer
// rejects (a duplicate or invalid family name) ends in an error line the
// scraper's parse failure points at; the status is already sent.
func ServeProm(w http.ResponseWriter, b BuildInfo, rows []Metric) {
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	p := NewPromWriter(w)
	p.buildInfo(b)
	p.rows(rows)
	p.rows(goStats())
	if err := p.Err(); err != nil {
		http.Error(w, "exposition error: "+err.Error(), http.StatusInternalServerError)
	}
}

func (p *PromWriter) rows(rows []Metric) {
	for _, m := range rows {
		switch {
		case m.Name == "":
		case m.Kind == KindHistogram:
			if m.Hist != nil {
				p.Histogram(m.Name, m.Help, m.Hist())
			}
		case m.Label != "":
			if m.Vec != nil {
				p.vec(m.Name, m.Kind, m.Help, m.Label, m.Vec())
			}
		case m.Value != nil:
			if p.family(m.Name, m.Kind, m.Help) {
				p.sample(m.Name, "", m.Value())
			}
		}
	}
}

// goStats is Go runtime health: goroutines, heap, GC activity.
func goStats() []Metric {
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return []Metric{
		{Name: "go_goroutines", Kind: KindGauge, Help: "Number of goroutines.", Value: Val(runtime.NumGoroutine())},
		{Name: "go_mem_heap_alloc_bytes", Kind: KindGauge, Help: "Bytes of allocated heap objects.", Value: Val(m.HeapAlloc)},
		{Name: "go_mem_heap_sys_bytes", Kind: KindGauge, Help: "Heap memory obtained from the OS.", Value: Val(m.HeapSys)},
		{Name: "go_mem_heap_objects", Kind: KindGauge, Help: "Number of allocated heap objects.", Value: Val(m.HeapObjects)},
		{Name: "go_mem_alloc_bytes_total", Kind: KindCounter, Help: "Cumulative bytes allocated.", Value: Val(m.TotalAlloc)},
		{Name: "go_gc_cycles_total", Kind: KindCounter, Help: "Completed GC cycles.", Value: Val(uint64(m.NumGC))},
		{Name: "go_gc_pause_seconds_total", Kind: KindCounter, Help: "Cumulative GC stop-the-world pause.", Value: Val(float64(m.PauseTotalNs) / 1e9)},
		{Name: "go_gc_next_target_bytes", Kind: KindGauge, Help: "Heap size at which the next GC runs.", Value: Val(m.NextGC)},
		{Name: "go_maxprocs", Kind: KindGauge, Help: "GOMAXPROCS.", Value: Val(runtime.GOMAXPROCS(0))},
	}
}

// JSON derives a tier's /metrics JSON document from its rows.
func JSON(rows []Metric) map[string]any {
	doc := map[string]any{}
	for _, m := range rows {
		switch {
		case m.JSON == "":
		case m.Kind == KindHistogram:
			var s HistSnapshot
			if m.Hist != nil {
				s = m.Hist()
			}
			unit, scale := "", 1.0
			if strings.HasSuffix(m.Name, "_seconds") {
				unit, scale = "_ms", 1e3
			}
			SetJSON(doc, m.JSON, map[string]any{
				"count":      s.Count,
				"p50" + unit: s.Quantile(0.50) * scale,
				"p90" + unit: s.Quantile(0.90) * scale,
				"p99" + unit: s.Quantile(0.99) * scale,
			})
		case m.Label != "":
			if m.Vec == nil {
				continue
			}
			arr, key, isArray := strings.Cut(m.JSON, "[].")
			for lv, v := range m.Vec() {
				if isArray {
					setElem(doc, arr, m.Label, lv, key, v)
				} else {
					path := strings.ReplaceAll(m.JSON, "{}", lv)
					SetJSON(doc, path, inUnit(path, v))
				}
			}
		default:
			var v float64
			if m.Value != nil {
				v = m.Value()
			}
			SetJSON(doc, m.JSON, inUnit(m.JSON, v))
		}
	}
	return doc
}

// inUnit scales a value in seconds to what its key says: a key ending in
// "_ms" holds milliseconds, one ending in "_ns" nanoseconds.
func inUnit(key string, v float64) float64 {
	switch {
	case strings.HasSuffix(key, "_ms"):
		return v * 1e3
	case strings.HasSuffix(key, "_ns"):
		return v * 1e9
	}
	return v
}

// SetJSON stores v at a dotted path of doc, creating the objects on the
// way. The tiers add their non-metric JSON (replica lists, ring members)
// through it.
func SetJSON(doc map[string]any, path string, v any) {
	dir, key := splitPath(path)
	object(doc, dir)[key] = v
}

// setElem stores v under key in the element of the array at path whose
// label is lv, keeping the elements in label order.
func setElem(doc map[string]any, path, label, lv, key string, v float64) {
	dir, name := splitPath(path)
	parent := object(doc, dir)
	arr, _ := parent[name].([]map[string]any)
	i := sort.Search(len(arr), func(i int) bool { return arr[i][label].(string) >= lv })
	if i == len(arr) || arr[i][label] != lv {
		arr = append(arr, nil)
		copy(arr[i+1:], arr[i:])
		arr[i] = map[string]any{label: lv}
	}
	arr[i][key] = inUnit(key, v)
	parent[name] = arr
}

// object returns the object at a dotted path of doc ("" is doc itself),
// creating it and the objects on the way.
func object(doc map[string]any, path string) map[string]any {
	if path == "" {
		return doc
	}
	for _, seg := range strings.Split(path, ".") {
		next, _ := doc[seg].(map[string]any)
		if next == nil {
			next = map[string]any{}
			doc[seg] = next
		}
		doc = next
	}
	return doc
}

func splitPath(path string) (dir, key string) {
	i := strings.LastIndexByte(path, '.')
	if i < 0 {
		return "", path
	}
	return path[:i], path[i+1:]
}

// Snapshot derives a tier's mergeable /metrics/snapshot from its rows.
func Snapshot(b BuildInfo, rows []Metric) MetricsSnapshot {
	s := MetricsSnapshot{
		TakenAt:    time.Now(),
		Histograms: map[string]HistSnapshot{},
		Counters:   map[string]int64{},
		Build:      b,
	}
	for _, m := range rows {
		switch {
		case m.Snap == "":
		case m.Kind == KindHistogram:
			if m.Hist != nil {
				s.Histograms[m.Snap] = m.Hist()
			}
		default:
			var v float64
			if m.Value != nil {
				v = m.Value()
			}
			s.Counters[m.Snap] = int64(math.Round(inUnit(m.Snap, v)))
		}
	}
	return s
}

// Counter reads a snapshot counter back in the unit of the row that
// exported it: seconds for a key ending in "_ns".
func (s MetricsSnapshot) Counter(key string) float64 {
	return float64(s.Counters[key]) / inUnit(key, 1)
}

// The snapshot counters a coordinator reads back as fleet sums.
const (
	SnapKernelBytes  = "kernel_bytes"
	SnapKernelNanos  = "kernel_seconds_ns"
	SnapDeltaApplied = "delta_applied"
)

// The rows below are the families both serving tiers export, so one scrape
// config and one dashboard fit a shard and a coordinator alike.

// RingMembers counts the replicas on the consistent-hash ring: the healthy
// ones at a coordinator, 1 on a standalone shard.
func RingMembers(v func() float64) Metric {
	return Metric{Name: "bepi_ring_members", Kind: KindGauge, Value: v,
		Help: "Replicas on the consistent-hash ring (the healthy ones at a coordinator, 1 for a standalone shard)."}
}

// ShardHealthy is 1 for each shard that serves: every replica on the ring
// at a coordinator, "local" on a shard.
func ShardHealthy(v func() map[string]float64) Metric {
	return Metric{Name: "bepi_shard_healthy", Kind: KindGauge, Label: "shard", Vec: v,
		Help: "1 when the shard is serving (per replica on the ring at a coordinator)."}
}

// DeltaApplied counts the rebuilds the delta path absorbed; a coordinator
// reports the fleet's sum.
func DeltaApplied(v func() float64) Metric {
	return Metric{Name: "bepi_delta_applied_total", Kind: KindCounter, Snap: SnapDeltaApplied, Value: v,
		Help: "Rebuilds absorbed incrementally by the delta path (spoke or hub mode), summed over the fleet at a coordinator."}
}

// Kernel is the solve-kernel bandwidth group under the JSON object at: the
// bytes and seconds the observed kernels streamed (the first two rows, a
// shard's own counters), their ratio, the host's STREAM roof it is judged
// against, and the ratio as a percentage of the roof.
func Kernel(at string, bytes, seconds, roof func() float64) []Metric {
	achieved := func() float64 {
		if s := seconds(); s > 0 {
			return bytes() / s
		}
		return 0
	}
	pct := func() float64 {
		if r := roof(); r > 0 {
			return 100 * achieved() / r
		}
		return 0
	}
	return []Metric{
		{Name: "bepi_kernel_bytes_total", Kind: KindCounter, JSON: at + ".bytes", Snap: SnapKernelBytes, Value: bytes,
			Help: "Bytes streamed by the observed solve kernels."},
		{Name: "bepi_kernel_seconds_total", Kind: KindCounter, JSON: at + ".seconds", Snap: SnapKernelNanos, Value: seconds,
			Help: "Wall seconds spent in the observed solve kernels."},
		{Name: "bepi_kernel_achieved_bytes_per_second", Kind: KindGauge, JSON: at + ".achieved_bytes_per_second", Value: achieved,
			Help: "Achieved memory bandwidth of the observed solve kernels: cumulative bytes over seconds (summed over the fleet at a coordinator)."},
		{Name: "bepi_stream_bytes_per_second", Kind: KindGauge, JSON: at + ".stream_bytes_per_second", Value: roof,
			Help: "Measured STREAM-triad memory-bandwidth roof of this host."},
		{JSON: at + ".pct_of_stream", Value: pct},
	}
}
