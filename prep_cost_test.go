package bepi_test

import (
	"bytes"
	"io"
	"runtime"
	"testing"

	"bepi"
	"bepi/internal/gen"
)

// Deterministic cost proxies of the index write path. Wall-clock claims
// about bepi.New / Save / Load are made by the repository benchmark; what CI
// can gate on exactly is what those calls allocate, which repeats to within
// a few objects from run to run. The budgets are the values measured when
// the linear-time builders and the chunked codec landed, plus 10%, stated
// against the engine's own MemoryBytes() so that they survive a change of
// the fixture. The commit before measured, on this graph: Save one heap
// object per written word (about 148 000), Load 4.0 × and New 9.9 ×
// MemoryBytes().

// costFixture is a scale-12 hybrid graph (n = 4096, m ≈ 60 k).
func costFixture(t testing.TB) *bepi.Graph {
	t.Helper()
	gi := gen.Hybrid(gen.DefaultHybrid(12, 14, 1))
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
	mem := float64(eng.MemoryBytes())

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
	_, loadBytes := allocated(func() {
		if _, err := bepi.Load(bytes.NewReader(raw)); err != nil {
			t.Fatal(err)
		}
	})

	t.Logf("MemoryBytes %.0f, file %d B; New %.2f ×, Save %d objects / %d B, Load %.2f ×",
		mem, len(raw), float64(newBytes)/mem, saveObjects, saveBytes, float64(loadBytes)/mem)

	// Save streams through one pooled chunk: a return to a write, an error
	// check or a heap object per word shows up as ~148 000 objects here.
	if saveObjects > 100 {
		t.Errorf("Save allocated %d objects, budget 100", saveObjects)
	}
	if saveBytes > 512<<10 {
		t.Errorf("Save allocated %d bytes, budget 512 KiB (it copies no array)", saveBytes)
	}
	// Load allocates every array once at its declared size, then the narrowed
	// index copies and the DILU factors; append-doubling the arrays or
	// widening copies push it back towards 4 ×.
	if ratio := float64(loadBytes) / mem; ratio > loadBudget {
		t.Errorf("Load allocated %.2f × MemoryBytes(), budget %.2f ×", ratio, loadBudget)
	}
	// New: no edge-pair list, no triplet list for H, blocks counted before
	// they are filled. What remains is dominated by the Schur complement's
	// triplet shards, which this budget deliberately leaves room for.
	if ratio := float64(newBytes) / mem; ratio > newBudget {
		t.Errorf("New allocated %.2f × MemoryBytes(), budget %.2f ×", ratio, newBudget)
	}
}

const (
	loadBudget = 1.76 // measured 1.60
	newBudget  = 5.37 // measured 4.88 (3.84 serial)
)

// TestIndexBytesDoNotPayForTheDiagonal pins the preconditioner's share of
// index_bytes on the fixture at or below what the level-ordered ILU(0)
// factors of the commit before occupied (iluBytesBefore): the natural-order
// DILU factors drop the level schedule's order and bounds arrays and add
// the one diagonal K; storing the pivots a second time (8·n2 bytes) would
// put it above.
func TestIndexBytesDoNotPayForTheDiagonal(t *testing.T) {
	eng, err := bepi.New(costFixture(t))
	if err != nil {
		t.Fatal(err)
	}
	f := eng.Internal().ILU()
	nnz, n2 := int64(f.NNZ()), int64(f.N())
	if want := 12*nnz + 2*4*(n2+1) + 8*n2; f.MemoryBytes() != want {
		t.Errorf("factors occupy %d B, want 12·nnz + two row-pointer arrays + K = %d B", f.MemoryBytes(), want)
	}
	if f.MemoryBytes() > iluBytesBefore {
		t.Errorf("factors occupy %d B, the commit before %d B", f.MemoryBytes(), iluBytesBefore)
	}
}

// TestQueryAllocBudget pins what one library query allocates once the
// engine holds an idle workspace: the score vector it returns (8·n bytes),
// GMRES's per-solve Hessenberg bookkeeping, and a handful of result slices
// — not the Krylov basis, the block-elimination temporaries or the query
// vector, which come from the recycled workspace. The worst of eight seeds
// with a real solve is judged; budgets are the measured values plus 10%.
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

const (
	iluBytesBefore    = 743892 // level-ordered ILU(0) factors, compact; now 742 900
	queryObjectBudget = 29     // measured 26; the commit before averaged 105
	queryByteBudget   = 118000 // measured 107 280; the commit before averaged 385 007
)
