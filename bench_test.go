// Benchmarks mirroring the paper's evaluation. There is one benchmark per
// table/figure (running the corresponding harness experiment at tiny size),
// plus per-phase micro-benchmarks for the costs those figures decompose
// into. Run the real experiments at full scale with:
//
//	go run ./cmd/bepi-bench all -size full
package bepi_test

import (
	"bytes"
	"io"
	"slices"
	"testing"
	"time"

	"bepi"
	"bepi/internal/bench"
	"bepi/internal/core"
	"bepi/internal/gen"
	"bepi/internal/graph"
	"bepi/internal/method"
)

// benchExperiment runs one harness experiment per b.N iteration.
func benchExperiment(b *testing.B, name string) {
	b.Helper()
	exp, ok := bench.FindExperiment(name)
	if !ok {
		b.Fatalf("experiment %q not found", name)
	}
	cfg := bench.Config{Size: bench.Tiny, Seeds: 2}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tables, err := exp.Run(cfg)
		if err != nil {
			b.Fatal(err)
		}
		for _, t := range tables {
			if err := t.Fprint(io.Discard); err != nil {
				b.Fatal(err)
			}
		}
	}
}

func BenchmarkTable2DatasetStats(b *testing.B)        { benchExperiment(b, "table2") }
func BenchmarkFig1OverallComparison(b *testing.B)     { benchExperiment(b, "fig1") }
func BenchmarkTable3SchurSparsification(b *testing.B) { benchExperiment(b, "table3") }
func BenchmarkTable4PreconditionerIters(b *testing.B) { benchExperiment(b, "table4") }
func BenchmarkFig4HubRatioTradeoff(b *testing.B)      { benchExperiment(b, "fig4") }
func BenchmarkFig5Scalability(b *testing.B)           { benchExperiment(b, "fig5") }
func BenchmarkFig6Ablation(b *testing.B)              { benchExperiment(b, "fig6") }
func BenchmarkFig7EigenClustering(b *testing.B)       { benchExperiment(b, "fig7") }
func BenchmarkFig8HubRatioSweep(b *testing.B)         { benchExperiment(b, "fig8") }
func BenchmarkFig10AccuracyCurves(b *testing.B)       { benchExperiment(b, "fig10") }
func BenchmarkFig11VsBear(b *testing.B)               { benchExperiment(b, "fig11") }
func BenchmarkFig12TotalTime(b *testing.B)            { benchExperiment(b, "fig12") }

// --- per-phase micro-benchmarks -----------------------------------------

func benchGraph() *bepi.Graph { return bepi.RMAT(11, 8, 77) }

// BenchmarkPreprocess* decompose Figure 1(a): the one-time cost per method.

func BenchmarkPreprocessBePI(b *testing.B) {
	g := benchGraph()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		eng, err := bepi.New(g)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(float64(eng.MemoryBytes()), "index-B")
	}
}

// benchDelta is a batch of size edge ops over the given sources, dealt round
// robin — the first half inserts toward hubs (which a source of either kind
// may point at without breaking the ordering), the second half deletes of
// edges the graph has — with the graph the batch leads to.
func benchDelta(b testing.TB, g *bepi.Graph, eng *bepi.Engine, sources []int, size int) (*graph.Graph, []core.EdgeDelta) {
	b.Helper()
	ord := eng.Internal().Ordering()
	var ops []core.EdgeDelta
	var add, del []graph.Edge
	for k := 0; k < size; k++ {
		u := sources[k%len(sources)]
		if k < size/2 {
			for p := ord.N1; p < ord.N1+ord.N2; p++ {
				v := ord.Inv[p]
				if v != u && !g.HasEdge(u, v) && !slices.Contains(add, graph.Edge{Src: u, Dst: v}) {
					add = append(add, graph.Edge{Src: u, Dst: v})
					ops = append(ops, core.EdgeDelta{Src: u, Dst: v, Insert: true})
					break
				}
			}
			continue
		}
		for _, v := range g.OutNeighbors(u) {
			if !slices.Contains(del, graph.Edge{Src: u, Dst: v}) {
				del = append(del, graph.Edge{Src: u, Dst: v})
				ops = append(ops, core.EdgeDelta{Src: u, Dst: v})
				break
			}
		}
	}
	if len(ops) != size {
		b.Fatalf("fixture yields %d of %d ops", len(ops), size)
	}
	gNew, err := g.Internal().WithEdgeDeltas(g.N(), add, del)
	if err != nil {
		b.Fatal(err)
	}
	return gNew, ops
}

// topHubs returns the engine's two hubs of the highest out-degree, the
// sources of the hub-4op delta.
func topHubs(g *bepi.Graph, eng *bepi.Engine) []int {
	ord := eng.Internal().Ordering()
	hubs := slices.Clone(ord.Inv[ord.N1 : ord.N1+ord.N2])
	slices.SortStableFunc(hubs, func(u, v int) int { return g.OutDegree(v) - g.OutDegree(u) })
	return hubs[:2]
}

// spreadSpokes returns up to 32 spokes of out-degree at least two, spread
// over the spoke range: the sources of the spoke-batch delta.
func spreadSpokes(g *bepi.Graph, eng *bepi.Engine) []int {
	ord := eng.Internal().Ordering()
	var spokes []int
	for p := 0; p < ord.N1 && len(spokes) < 32; p += max(1, ord.N1/64) {
		if u := ord.Inv[p]; g.OutDegree(u) >= 2 {
			spokes = append(spokes, u)
		}
	}
	return spokes
}

// BenchmarkApplyDelta is what a Dynamic flush spends in core.ApplyDelta on
// the scale-12 fixture: a 4-op batch on its two highest-out-degree hubs
// and a 64-op batch spread over 32 spokes, each absorbed by the engine
// bepi.New built and by the same index loaded from its file. index-B is the
// patched engine's MemoryBytes(). The built and the loaded lines agree — in
// index-B exactly — because where an index came from is not part of it.
func BenchmarkApplyDelta(b *testing.B) {
	g := costFixture(b)
	built, err := bepi.New(g)
	if err != nil {
		b.Fatal(err)
	}
	var index bytes.Buffer
	if err := built.Save(&index); err != nil {
		b.Fatal(err)
	}
	loaded, err := bepi.Load(&index)
	if err != nil {
		b.Fatal(err)
	}
	for _, batch := range []struct {
		name    string
		sources []int
		size    int
		class   core.DeltaClass
	}{
		{"hub-4op", topHubs(g, built), 4, core.DeltaHub},
		{"spoke-batch", spreadSpokes(g, built), 64, core.DeltaSpoke},
	} {
		gNew, ops := benchDelta(b, g, built, batch.sources, batch.size)
		for _, from := range []struct {
			name string
			eng  *bepi.Engine
		}{{"built", built}, {"loaded", loaded}} {
			b.Run(batch.name+"/"+from.name, func(b *testing.B) {
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					ne, st, err := from.eng.Internal().ApplyDelta(gNew, ops)
					if err != nil || st.Class != batch.class {
						b.Fatalf("class %v, want %v: %v", st.Class, batch.class, err)
					}
					b.ReportMetric(float64(ne.MemoryBytes()), "index-B")
				}
			})
		}
	}
}

// BenchmarkDynamicFlush is what a Dynamic's writer pays per flush of a 4-op
// batch on the two highest-out-degree hubs of the scale-13 hybrid graph: the
// delta rebuild, then the new engine's top-k calibration. Iterations
// alternate the batch and its inverse, so every flush is a delta-hub
// rebuild of the same size; calibrate-ms is the calibration's share of one.
func BenchmarkDynamicFlush(b *testing.B) {
	g := publicGraph(b, gen.Hybrid(gen.DefaultHybrid(13, 14, 1)))
	d, err := bepi.NewDynamic(g)
	if err != nil {
		b.Fatal(err)
	}
	_, ops := benchDelta(b, g, d.Engine(), topHubs(g, d.Engine()), 4)
	var calibration time.Duration
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, op := range ops {
			if op.Insert != (i%2 == 1) {
				err = d.AddEdge(op.Src, op.Dst)
			} else {
				err = d.RemoveEdge(op.Src, op.Dst)
			}
			if err != nil {
				b.Fatal(err)
			}
		}
		if err := d.Flush(); err != nil {
			b.Fatal(err)
		}
		st := d.LastRebuild().Status()
		if st.Mode != bepi.RebuildModeDeltaHub {
			b.Fatalf("flush %d took mode %s, want %s", i, st.Mode, bepi.RebuildModeDeltaHub)
		}
		calibration += st.Calibration
	}
	b.ReportMetric(float64(calibration.Microseconds())/1000/float64(b.N), "calibrate-ms")
}

func BenchmarkPreprocessBear(b *testing.B) {
	g := benchGraph()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m := method.NewBear(method.Config{})
		if err := m.Preprocess(g.Internal()); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkPreprocessLU(b *testing.B) {
	g := benchGraph()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m := method.NewLU(method.Config{})
		if err := m.Preprocess(g.Internal()); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkQuery* decompose Figure 1(c): per-query cost once preprocessed.

func benchQueryMethod(b *testing.B, m method.Method) {
	b.Helper()
	g := benchGraph()
	if err := m.Preprocess(g.Internal()); err != nil {
		b.Fatal(err)
	}
	seeds := bench.QuerySeeds(g.Internal(), 16, 3)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := m.Query(seeds[i%len(seeds)]); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkQueryBePI(b *testing.B)  { benchQueryMethod(b, method.NewBePI(method.Config{})) }
func BenchmarkQueryBePIS(b *testing.B) { benchQueryMethod(b, method.NewBePIS(method.Config{})) }
func BenchmarkQueryBePIB(b *testing.B) { benchQueryMethod(b, method.NewBePIB(method.Config{})) }
func BenchmarkQueryGMRES(b *testing.B) { benchQueryMethod(b, method.NewFullGMRES(method.Config{})) }
func BenchmarkQueryPower(b *testing.B) { benchQueryMethod(b, method.NewPower(method.Config{})) }
func BenchmarkQueryBear(b *testing.B)  { benchQueryMethod(b, method.NewBear(method.Config{})) }
func BenchmarkQueryLU(b *testing.B)    { benchQueryMethod(b, method.NewLU(method.Config{})) }

// BenchmarkTopK measures the ranking path used by applications.
func BenchmarkTopK(b *testing.B) {
	g := benchGraph()
	eng, err := bepi.New(g)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := eng.TopK(i%g.N(), 10); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkSaveLoad measures index persistence round trips: Save into a
// buffer, Load back (which reads the DILU preconditioner's pivots from the
// file). It reports the saved file's size (file-B) beside the index it
// loads into (index-B).
func BenchmarkSaveLoad(b *testing.B) {
	g := benchGraph()
	eng, err := bepi.New(g)
	if err != nil {
		b.Fatal(err)
	}
	var buf bytes.Buffer
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		buf.Reset()
		if err := eng.Save(&buf); err != nil {
			b.Fatal(err)
		}
		b.SetBytes(int64(buf.Len()))
		if _, err := bepi.Load(bytes.NewReader(buf.Bytes())); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(buf.Len()), "file-B")
	b.ReportMetric(float64(eng.MemoryBytes()), "index-B")
}
