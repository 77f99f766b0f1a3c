package bepi_test

import (
	"bytes"
	"io"
	"math"
	"runtime"
	"testing"

	"bepi"
	"bepi/internal/core"
	"bepi/internal/gen"
	"bepi/internal/graph"
)

// Deterministic cost proxies of the index write path. Wall-clock claims
// about bepi.New / Save / Load are made by the repository benchmark; what CI
// can gate on exactly is what those calls allocate, which repeats to within
// a few objects from run to run. The budgets are the measured values plus
// 10%, in bytes on this fixture. They used to be multiples of the engine's
// own MemoryBytes(), and twice in a row a change that shrank the index —
// S stored once (2 315 664 → 1 591 584 B here), then H22 no longer retained
// (→ 1 084 296 B) — "failed" a ratio while allocating no more than before:
// New 10.81 → 10.04 → 9.86 MB, Load 3.22 → 2.45 → 2.45 MB at two workers
// (EXPERIMENTS.md). A ratio to the index size gates the index size, which
// TestIndexBytesDoNotPayForTheDiagonal below pins to the byte anyway; bytes
// gate what the calls allocate. Before the linear-time builders and the
// chunked codec, on this graph: Save one heap object per written word (about
// 148 000), Load 4.0 × and New 9.9 × the MemoryBytes() of the time.

// costFixture is a scale-12 hybrid graph (n = 4096, m ≈ 60 k).
func costFixture(t testing.TB) *bepi.Graph {
	t.Helper()
	return publicGraph(t, gen.Hybrid(gen.DefaultHybrid(12, 14, 1)))
}

// publicGraph wraps an internal graph as a bepi.Graph.
func publicGraph(t testing.TB, gi *graph.Graph) *bepi.Graph {
	t.Helper()
	ie := gi.Edges()
	edges := make([]bepi.Edge, len(ie))
	for i, e := range ie {
		edges[i] = bepi.Edge{Src: e.Src, Dst: e.Dst}
	}
	g, err := bepi.NewGraph(gi.N(), edges)
	if err != nil {
		t.Fatal(err)
	}
	return g
}

// allocated runs f and returns the heap objects and bytes it allocated: the
// smallest of five runs, so that the codec's chunk pool coming up empty (a
// GC, or the race detector, which makes sync.Pool drop a quarter of what it
// is handed) or a runtime-internal allocation does not count against the
// budget.
func allocated(f func()) (objects, bytes uint64) {
	objects, bytes = ^uint64(0), ^uint64(0)
	var before, after runtime.MemStats
	for run := 0; run < 5; run++ {
		runtime.GC()
		runtime.ReadMemStats(&before)
		f()
		runtime.ReadMemStats(&after)
		objects = min(objects, after.Mallocs-before.Mallocs)
		bytes = min(bytes, after.TotalAlloc-before.TotalAlloc)
	}
	return objects, bytes
}

func TestPreprocessingAllocBudget(t *testing.T) {
	g := costFixture(t)
	var eng *bepi.Engine
	var err error
	_, newBytes := allocated(func() {
		if eng, err = bepi.New(g); err != nil {
			t.Fatal(err)
		}
	})
	mem := eng.MemoryBytes()

	saveObjects, saveBytes := allocated(func() {
		if err := eng.Save(io.Discard); err != nil {
			t.Fatal(err)
		}
	})

	var index bytes.Buffer
	if err := eng.Save(&index); err != nil {
		t.Fatal(err)
	}
	raw := index.Bytes()
	// A bytes.Buffer is told the file's length before the first chunk
	// arrives, so it holds the file in one allocation of about its size,
	// with less than a chunk to spare; grown by doubling under 64 KiB chunks
	// it allocated about three times the file (29 MB for the 9.1 MB file of
	// the repository benchmark's index-build).
	if slack := index.Cap() - index.Len(); slack >= 64<<10 {
		t.Errorf("saving a %d-byte file left a buffer of %d B capacity", index.Len(), index.Cap())
	}
	var sink growSink
	if err := eng.Save(&sink); err != nil {
		t.Fatal(err)
	}
	if len(sink.grows) != 1 || sink.grows[0] != sink.Len() || sink.writtenBefore != 0 {
		t.Errorf("saving %d B: Grow calls %v, the first after %d B written; want one, for the file's length, before any",
			sink.Len(), sink.grows, sink.writtenBefore)
	}

	_, loadBytes := allocated(func() {
		if _, err := bepi.Load(bytes.NewReader(raw)); err != nil {
			t.Fatal(err)
		}
	})

	t.Logf("MemoryBytes %d, file %d B; New %d B, Save %d objects / %d B, Load %d B",
		mem, len(raw), newBytes, saveObjects, saveBytes, loadBytes)

	// Save streams through one pooled chunk — S's section too, out of the
	// DILU factors: a return to a write, an error check or a heap object per
	// word shows up as ~148 000 objects here, a wide copy of S as 1.2 MB.
	if saveObjects > 100 {
		t.Errorf("Save allocated %d objects, budget 100", saveObjects)
	}
	if saveBytes > 512<<10 {
		t.Errorf("Save allocated %d bytes, budget 512 KiB (it copies no array)", saveBytes)
	}
	// Load allocates every array once at its declared size and served
	// width — the file is the index — plus the bitmaps of S's weight-valued
	// entries and the one byte per node the permutation check marks:
	// append-doubling the arrays, a wide copy of S, a second copy of S, a
	// transient array for S's written values or an inverse permutation push
	// it back up.
	// poolSlack: under the race detector the codec's pool comes up empty for
	// up to four of Load's array reads in the best of five runs (64 KiB
	// each), which the 10% margin (245 KB) would not absorb.
	if loadBytes > loadBudget+poolSlack {
		t.Errorf("Load allocated %d B, budget %d B + %d B", loadBytes, loadBudget, poolSlack)
	}
	// The saved file is the index in the layout it is served from, less the
	// values of S that are their column's weight — a bit each — and with
	// S's pivots, so that loading derives nothing.
	if int64(len(raw)) > mem {
		t.Errorf("the saved file takes %d B, the index it loads into %d B", len(raw), mem)
	}
	f, nnzL, n2 := weightValuedEntries(eng.Internal(), gen.Hybrid(gen.DefaultHybrid(12, 14, 1)))
	nnz := int64(eng.Internal().ILU().NNZ())
	bitmaps := (nnzL+7)/8 + (nnz-nnzL+7)/8
	t.Logf("S: %d of %d entries weight-valued, %d hubs", f, nnz, n2)
	if want := fileBytesV5Fixture - 8*f + bitmaps + 8*n2; int64(len(raw)) != want {
		t.Errorf("the saved file takes %d B, want %d: the version-5 file's %d B − 8 · %d weight-valued entries of S + %d B of bitmaps + 8 · %d pivots",
			len(raw), want, fileBytesV5Fixture, f, bitmaps, n2)
	}
	// New: no edge-pair list, no H, no triplet list — H's blocks are built
	// from the graph and S's columns scattered from fixed-size shards
	// straight into its DILU triangles, and SlashBurn runs on a 32-bit
	// undirected view. A wide copy of H or of S, a regrown shard, a return
	// to triplets or a 64-bit view pushes it back up.
	if newBytes > newBudget {
		t.Errorf("New allocated %d B, budget %d B", newBytes, newBudget)
	}
}

// weightValuedEntries counts, worked out from the graph and the engine's
// ordering rather than from the file, the off-diagonal entries of S whose
// Float64bits are those of their column's weight: −(1−c)/outdeg of the
// column's hub when it has an out-neighbour outside the hubs, 0 otherwise.
// It also returns S's strictly lower entry count and its order n2.
func weightValuedEntries(e *core.Engine, g *graph.Graph) (weightValued, nnzL, n2 int64) {
	ord := e.Ordering()
	c := e.Options().C
	w := make([]float64, ord.N2)
	for j := range w {
		u := ord.Inv[ord.N1+j]
		for _, v := range g.OutNeighbors(u) {
			if p := ord.Perm[v]; p < ord.N1 || p >= ord.N1+ord.N2 {
				w[j] = -(1 - c) / float64(g.OutDegree(u))
				break
			}
		}
	}
	s := e.Schur()
	col, val := s.ColIdx(), s.Values()
	for i := 0; i < s.Rows(); i++ {
		lo, hi := s.RowRange(i)
		for p := lo; p < hi; p++ {
			if col[p] < i {
				nnzL++
			}
			if j := col[p]; j != i && math.Float64bits(val[p]) == math.Float64bits(w[j]) {
				weightValued++
			}
		}
	}
	return weightValued, nnzL, int64(ord.N2)
}

// TestApplyDeltaAllocBudget pins what BenchmarkApplyDelta's two deltas
// allocate on the fixture: the sources' columns of H rebuilt and spliced
// into the patterns, the recomputed columns of S, and the new S — its
// triangles spliced row by row from the old ones, 10 bytes an entry, and
// the pivots. A return to patching a wide copy of S (16 bytes an entry,
// then copied again by the edits and once more by the factorization) shows
// up in the hub-4op delta as three times its budget; a return to patching
// H's patterns through a wide copy shows up in the spoke-batch delta, whose
// 32 sources span H21 and H31.
func TestApplyDeltaAllocBudget(t *testing.T) {
	g := costFixture(t)
	eng, err := bepi.New(g)
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		name    string
		sources []int
		size    int
		class   core.DeltaClass
		budget  uint64
	}{
		{"hub-4op", topHubs(g, eng), 4, core.DeltaHub, applyDeltaBudget},
		{"spoke-batch", spreadSpokes(g, eng), 64, core.DeltaSpoke, applyDeltaSpokeBudget},
	} {
		gNew, ops := benchDelta(t, g, eng, c.sources, c.size)
		_, deltaBytes := allocated(func() {
			if _, st, err := eng.Internal().ApplyDelta(gNew, ops); err != nil || st.Class != c.class {
				t.Fatalf("%s: class %v, want %v: %v", c.name, st.Class, c.class, err)
			}
		})
		t.Logf("ApplyDelta %s: %d B, MemoryBytes %d B", c.name, deltaBytes, eng.MemoryBytes())
		if deltaBytes > c.budget {
			t.Errorf("ApplyDelta %s allocated %d B, budget %d B", c.name, deltaBytes, c.budget)
		}
	}
}

// growSink is a bytes.Buffer that records the Grow calls a Save makes, and
// how many bytes had arrived before the first.
type growSink struct {
	bytes.Buffer
	grows         []int
	writtenBefore int
}

func (s *growSink) Grow(n int) {
	if len(s.grows) == 0 {
		s.writtenBefore = s.Len()
	}
	s.grows = append(s.grows, n)
	s.Buffer.Grow(n)
}

const (
	poolSlack             = 4 * 64 << 10
	loadBudget            = 906_000   // measured 834 904 with S's bitmaps and without the pivot recurrence's cursors, 833 240 with the cursors and no bitmaps (904 544 widening the permutation to ints and inverting it, 1 059 184 with 32-bit columns, 1 194 400 with the H blocks' values, 2 447 824 reading the wide version-1 layout)
	applyDeltaBudget      = 1_117_000 // measured 1 015 048 (2 979 844 patching a wide copy of S with edits and factoring it again)
	applyDeltaSpokeBudget = 2_057_000 // measured 1 870 384 (2 067 512 patching H's patterns through a wide copy with edits)
	newBudget             = 2_975_000 // measured 2 704 448 at two workers (3 524 112 with SlashBurn on a merged 64-bit undirected view; 9 741 072 building the full H, partitioning it and summing S from triplets; 9 879 216 with 32-bit columns)
)

// TestIndexBytesDoNotPayForTheDiagonal pins the preconditioner's share of
// index_bytes on the fixture at or below what the level-ordered ILU(0)
// factors of the commit before occupied (iluBytesBefore): the natural-order
// DILU factors drop the level schedule's order and bounds arrays and add
// the one diagonal D_S; storing K beside it, or the pivots a second time
// (8·n2 bytes either way), would put it above. The factors are also the
// engine's only copy of S, so the whole index is pinned to the byte: 2 315 664
// B with S held twice, 1 591 584 B with S held once and H22 retained by built
// engines, 1 084 296 B for the index a built, a loaded and a patched engine
// share, 948 384 B once H12/H21/H31/H32 kept their structure and one
// weight per non-deadend node instead of a value per entry, 789 552 B once
// S's triangles and the H patterns held 16-bit columns, 740 400 B now that
// the permutation is 4 bytes per node and its inverse is not held.
func TestIndexBytesDoNotPayForTheDiagonal(t *testing.T) {
	eng, err := bepi.New(costFixture(t))
	if err != nil {
		t.Fatal(err)
	}
	f := eng.Internal().ILU()
	nnz, n2 := int64(f.NNZ()), int64(f.N())
	if want := 10*nnz + 2*4*(n2+1) + 8*n2; f.MemoryBytes() != want {
		t.Errorf("factors occupy %d B, want 10·nnz + two row-pointer arrays + D_S = %d B", f.MemoryBytes(), want)
	}
	if f.MemoryBytes() > iluBytesBefore {
		t.Errorf("factors occupy %d B, the commit before %d B", f.MemoryBytes(), iluBytesBefore)
	}
	if got := eng.Internal().MemoryBytes(); got != indexBytesFixture {
		t.Errorf("index occupies %d B, pinned %d B (with a second copy of S: %d B; with 16 bytes per node for the permutation and its inverse: 789552 B)",
			got, indexBytesFixture, indexBytesFixture+10*nnz+4*(n2+1))
	}
}

// liveHeap is the heap still reachable after two collections.
func liveHeap() uint64 {
	runtime.GC()
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.HeapAlloc
}

// TestMemoryBytesMatchesRetainedHeap holds the counter index_bytes reports
// against the heap: the live heap with one built engine reachable, minus
// the live heap once it is dropped, is within 5% (+ 64 KiB for what no
// array accounts for: the block LU's per-block headers, stats, the structs
// themselves) of MemoryBytes() — for full BePI and for BePI-S, which hold S
// the same way, as its DILU factors, and read it through different
// operators. The smallest of three attempts is judged, so that garbage
// another goroutine leaves between the two readings does not count. A retained array MemoryBytes() does not
// count fails the upper bound; a counted one that is not retained, the
// lower.
func TestMemoryBytesMatchesRetainedHeap(t *testing.T) {
	g := costFixture(t)
	for _, variant := range []bepi.Variant{bepi.BePIFull, bepi.BePIS} {
		var mem int64
		retained := int64(1) << 62
		for attempt := 0; attempt < 3; attempt++ {
			eng, err := bepi.New(g, bepi.WithVariant(variant))
			if err != nil {
				t.Fatal(err)
			}
			with := liveHeap()
			mem = eng.MemoryBytes()
			eng = nil
			retained = min(retained, int64(with)-int64(liveHeap()))
		}
		t.Logf("%v: MemoryBytes %d B, retained heap %d B (%.3f ×)", variant, mem, retained, float64(retained)/float64(mem))
		if lo, hi := int64(0.95*float64(mem))-64<<10, int64(1.05*float64(mem))+64<<10; retained < lo || retained > hi {
			t.Errorf("%v: an engine retains %d B of heap, MemoryBytes() says %d B (accepted %d–%d)", variant, retained, mem, lo, hi)
		}
	}
}

// TestQueryAllocBudget pins what one library query allocates once the
// engine holds an idle workspace: the score vector it returns (8·n bytes),
// and nothing else — the Krylov basis and bookkeeping, the
// block-elimination temporaries and the query vector come from the
// recycled workspace. The worst of eight seeds with a real solve is judged;
// budgets are the measured values plus one object and 1 232 B.
func TestQueryAllocBudget(t *testing.T) {
	g := costFixture(t)
	eng, err := bepi.New(g)
	if err != nil {
		t.Fatal(err)
	}
	var worstObjects, worstBytes uint64
	for seed, seen := 100, 0; seen < 8; seed++ {
		if _, st, err := eng.QueryWithStats(seed); err != nil {
			t.Fatal(err)
		} else if st.Iterations == 0 {
			continue // a dead end: nothing is solved
		}
		seen++
		objects, bytes := allocated(func() {
			if _, err := eng.Query(seed); err != nil {
				t.Fatal(err)
			}
		})
		worstObjects, worstBytes = max(worstObjects, objects), max(worstBytes, bytes)
	}
	t.Logf("%d objects, %d B per query (score vector %d B)", worstObjects, worstBytes, 8*g.N())
	if worstObjects > queryObjectBudget {
		t.Errorf("a query allocated %d objects, budget %d", worstObjects, queryObjectBudget)
	}
	if worstBytes > queryByteBudget {
		t.Errorf("a query allocated %d B, budget %d B", worstBytes, queryByteBudget)
	}
}

// TestTopKBoundedAllocBudget is TestQueryAllocBudget for a warm,
// early-stopped bounded top-k read on the same fixture, the path
// Dynamic.TopK takes: the answer is ranked from the resolving gap check's
// candidates, so the read allocates its k-entry result and no n-length
// score vector, and the search's state lives in the pooled workspace.
func TestTopKBoundedAllocBudget(t *testing.T) {
	g := costFixture(t)
	eng, err := bepi.New(g)
	if err != nil {
		t.Fatal(err)
	}
	if err := eng.CalibrateBound(); err != nil {
		t.Fatal(err)
	}
	const k = 10
	var worstObjects, worstBytes uint64
	seen := 0
	for seed := 100; seed < g.N() && seen < 8; seed++ {
		if _, early, err := eng.TopKBounded(seed, k); err != nil {
			t.Fatal(err)
		} else if !early {
			continue
		}
		seen++
		objects, bytes := allocated(func() {
			if _, _, err := eng.TopKBounded(seed, k); err != nil {
				t.Fatal(err)
			}
		})
		worstObjects, worstBytes = max(worstObjects, objects), max(worstBytes, bytes)
	}
	if seen == 0 {
		t.Fatal("no bounded read stopped early on the fixture")
	}
	t.Logf("%d objects, %d B per early-stopped top-%d read (score vector %d B)", worstObjects, worstBytes, k, 8*g.N())
	if worstObjects > topKObjectBudget {
		t.Errorf("a bounded read allocated %d objects, budget %d", worstObjects, topKObjectBudget)
	}
	if worstBytes > topKByteBudget {
		t.Errorf("a bounded read allocated %d B, budget %d B", worstBytes, topKByteBudget)
	}
}

const (
	// fileBytesV5Fixture is the fixture's index saved in format version 5:
	// every value of S written, its pivots not.
	fileBytesV5Fixture = 728176
	indexBytesFixture  = 740400
	iluBytesBefore     = 743892 // level-ordered ILU(0) factors, compact; now 623 266
	queryObjectBudget  = 2      // measured 1; 22 while GMRES allocated its bookkeeping per solve
	queryByteBudget    = 34000  // measured 32 768; 107 224 while GMRES allocated its bookkeeping per solve
	topKObjectBudget   = 1      // the result; 24 objects, 34 096 B while the read unpermuted a score vector
	topKByteBudget     = 160    // the result's 10 entries
)
