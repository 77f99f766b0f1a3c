package core

import (
	"bytes"
	"math"
	"sync"
	"testing"

	"bepi/internal/gen"
)

// bitsEqual compares two score vectors under Float64bits — the contract
// the compact layout makes with the wide one.
func bitsEqual(a, b []float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if math.Float64bits(a[i]) != math.Float64bits(b[i]) {
			return false
		}
	}
	return true
}

// TestCompactEngineBitIdenticalQueries is the acceptance test for the
// compact layout on the query path: an engine built with CompactAuto (the
// default) must produce bit-identical score vectors, identical top-k, and
// Float64bits-equal residuals to one built with CompactOff, while its
// index MemoryBytes drop.
func TestCompactEngineBitIdenticalQueries(t *testing.T) {
	g := gen.RMAT(gen.DefaultRMAT(10, 8, 21))
	for _, variant := range []Variant{VariantFull, VariantS} {
		wide, err := Preprocess(g, Options{Variant: variant, Compact: CompactOff})
		if err != nil {
			t.Fatal(err)
		}
		comp, err := Preprocess(g, Options{Variant: variant})
		if err != nil {
			t.Fatal(err)
		}
		if wide.Compacted() {
			t.Fatal("CompactOff engine reports compacted")
		}
		if !comp.Compacted() {
			t.Fatal("default (CompactAuto) engine is not compacted")
		}
		if cb, wb := comp.MemoryBytes(), wide.MemoryBytes(); cb >= wb {
			t.Fatalf("%v: compact MemoryBytes %d not below wide %d", variant, cb, wb)
		}
		// The Schur complement must round-trip exactly.
		if !comp.Schur().Equal(wide.Schur()) {
			t.Fatalf("%v: compact Schur differs", variant)
		}
		for _, seed := range []int{0, 7, g.N() - 1} {
			rw, sw, err := wide.Query(seed)
			if err != nil {
				t.Fatal(err)
			}
			rc, sc, err := comp.Query(seed)
			if err != nil {
				t.Fatal(err)
			}
			if !bitsEqual(rw, rc) {
				t.Fatalf("%v seed %d: compact scores differ from wide", variant, seed)
			}
			if math.Float64bits(sw.Residual) != math.Float64bits(sc.Residual) ||
				sw.Iterations != sc.Iterations {
				t.Fatalf("%v seed %d: solve stats differ: %v/%d vs %v/%d",
					variant, seed, sw.Residual, sw.Iterations, sc.Residual, sc.Iterations)
			}
			tw := RankTopK(rw, 10, seed)
			tc := RankTopK(rc, 10, seed)
			for i := range tw {
				if tw[i] != tc[i] {
					t.Fatalf("%v seed %d: top-k differs at %d: %+v vs %+v", variant, seed, i, tw[i], tc[i])
				}
			}
		}
	}
}

// TestCompactIndexBytesHalved pins the ≈2× index-footprint cut: with the
// float64 values shared between layouts, the index bytes (everything
// except values, LU factor payloads, and the permutation) must halve.
func TestCompactIndexBytesHalved(t *testing.T) {
	g := gen.RMAT(gen.DefaultRMAT(10, 8, 22))
	wide, err := Preprocess(g, Options{Compact: CompactOff})
	if err != nil {
		t.Fatal(err)
	}
	comp, err := Preprocess(g, Options{})
	if err != nil {
		t.Fatal(err)
	}
	// Per stored matrix: wide spends 8 bytes/entry on columns and 8/row on
	// pointers, compact exactly half of each (dims here are far below the
	// int32 cutover). The DILU values and diagonal are width-independent.
	wideMats := []mat{wide.h12, wide.h21, wide.h31, wide.h32, wide.schur}
	compMats := []mat{comp.h12, comp.h21, comp.h31, comp.h32, comp.schur}
	for i := range wideMats {
		wm, cm := wideMats[i], compMats[i]
		wIdx := wm.MemoryBytes() - int64(wm.NNZ())*8
		cIdx := cm.MemoryBytes() - int64(cm.NNZ())*8
		if wIdx != 2*cIdx {
			t.Fatalf("matrix %d: wide index bytes %d != 2x compact %d", i, wIdx, cIdx)
		}
	}
}

// TestSetCompactRoundTrip toggles one engine between layouts and checks
// the queries stay bit-identical in both directions.
func TestSetCompactRoundTrip(t *testing.T) {
	g := gen.RMAT(gen.DefaultRMAT(9, 7, 23))
	e, err := Preprocess(g, Options{})
	if err != nil {
		t.Fatal(err)
	}
	want, _, err := e.Query(3)
	if err != nil {
		t.Fatal(err)
	}
	memCompact := e.MemoryBytes()
	e.SetCompact(false)
	if e.Compacted() {
		t.Fatal("SetCompact(false) left engine compacted")
	}
	if e.MemoryBytes() <= memCompact {
		t.Fatal("widening did not grow MemoryBytes")
	}
	got, _, err := e.Query(3)
	if err != nil {
		t.Fatal(err)
	}
	if !bitsEqual(want, got) {
		t.Fatal("widened engine changed query results")
	}
	e.SetCompact(true)
	if !e.Compacted() || e.MemoryBytes() != memCompact {
		t.Fatalf("re-compacted engine MemoryBytes %d want %d", e.MemoryBytes(), memCompact)
	}
	got, _, err = e.Query(3)
	if err != nil {
		t.Fatal(err)
	}
	if !bitsEqual(want, got) {
		t.Fatal("re-compacted engine changed query results")
	}
}

// TestCompactSurvivesSaveLoad checks that a compacted engine serializes in
// the layout-independent wide format and that a loaded engine (compacted
// again by default) answers bit-identically.
func TestCompactSurvivesSaveLoad(t *testing.T) {
	g := gen.RMAT(gen.DefaultRMAT(9, 7, 24))
	e, err := Preprocess(g, Options{})
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if _, err := e.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	l, err := ReadEngine(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if !l.Compacted() {
		t.Fatal("loaded engine is not compacted by default")
	}
	want, _, err := e.Query(5)
	if err != nil {
		t.Fatal(err)
	}
	got, _, err := l.Query(5)
	if err != nil {
		t.Fatal(err)
	}
	if !bitsEqual(want, got) {
		t.Fatal("loaded engine differs from built engine")
	}
}

// TestKernelHookObservesSolve checks what SetKernelHook reports for a
// one-pass solve: KernelSchur once per iteration (the operator application,
// which here is the whole preconditioned pass), KernelPrecond for exactly
// the two half-passes around it, each with a plausible payload.
func TestKernelHookObservesSolve(t *testing.T) {
	g := gen.RMAT(gen.DefaultRMAT(9, 7, 26))
	e, err := Preprocess(g, Options{})
	if err != nil {
		t.Fatal(err)
	}
	var mu sync.Mutex
	counts := map[string]int{}
	var bytesSum int64
	e.SetKernelHook(func(kernel string, seconds float64, b int64) {
		mu.Lock()
		defer mu.Unlock()
		counts[kernel]++
		bytesSum += b
		if seconds < 0 || b <= 0 {
			t.Errorf("kernel %s: bad sample (%v s, %d bytes)", kernel, seconds, b)
		}
	})
	if _, st, err := e.Query(2); err != nil {
		t.Fatal(err)
	} else if st.Iterations == 0 || counts[KernelSchur] != st.Iterations || counts[KernelPrecond] != 2 {
		t.Fatalf("hook counts %v for %d iterations", counts, st.Iterations)
	}
	if bytesSum < e.Schur().MemoryBytes() {
		t.Fatalf("bytes moved %d implausibly small", bytesSum)
	}
	e.SetKernelHook(nil)
	before := counts[KernelSchur]
	if _, _, err := e.Query(2); err != nil {
		t.Fatal(err)
	}
	if counts[KernelSchur] != before {
		t.Fatal("removed hook still fired")
	}
}

// TestParallelCompactQueriesBitIdentical runs concurrent queries against a
// compacted engine with a multi-worker pool and checks every result equals
// the serial wide reference bit for bit — the end-to-end composition of the
// CSR32 kernels, the one-pass DILU sweeps on pooled workspaces, and the
// shared pool.
func TestParallelCompactQueriesBitIdentical(t *testing.T) {
	g := gen.RMAT(gen.DefaultRMAT(10, 8, 27))
	ref, err := Preprocess(g, Options{Compact: CompactOff, Parallelism: 1})
	if err != nil {
		t.Fatal(err)
	}
	e, err := Preprocess(g, Options{Parallelism: 4})
	if err != nil {
		t.Fatal(err)
	}
	seeds := []int{0, 3, 9, 100, 511}
	wants := make([][]float64, len(seeds))
	for i, s := range seeds {
		if wants[i], _, err = ref.Query(s); err != nil {
			t.Fatal(err)
		}
	}
	var wg sync.WaitGroup
	errCh := make(chan error, len(seeds))
	for i, s := range seeds {
		wg.Add(1)
		go func(i, s int) {
			defer wg.Done()
			got, _, err := e.Query(s)
			if err != nil {
				errCh <- err
				return
			}
			if !bitsEqual(wants[i], got) {
				t.Errorf("seed %d: parallel compact query differs from serial wide", s)
			}
		}(i, s)
	}
	wg.Wait()
	close(errCh)
	for err := range errCh {
		t.Error(err)
	}
}
