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
	"testing"

	"bepi"
	"bepi/internal/bench"
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
// buffer, Load back (which recomputes the DILU preconditioner's pivots).
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
}
