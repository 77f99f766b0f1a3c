package core

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"math"
	"math/rand"
	"sync"
	"testing"

	"bepi/internal/gen"
	"bepi/internal/graph"
	"bepi/internal/reorder"
	"bepi/internal/sparse"
)

// buildHCOO is BuildH as it was before the direct assembly: every diagonal
// and edge entry pushed onto a triplet list, rows sorted and duplicates
// summed by COO.ToCSR. The reference of TestBuildHMatchesCOO.
func buildHCOO(g *graph.Graph, perm []int, c float64) *sparse.CSR {
	n := g.N()
	coo := sparse.NewCOO(n, n)
	for i := 0; i < n; i++ {
		coo.Add(i, i, 1)
	}
	for u := 0; u < n; u++ {
		deg := g.OutDegree(u)
		if deg == 0 {
			continue
		}
		w := -(1 - c) / float64(deg)
		pu := u
		if perm != nil {
			pu = perm[u]
		}
		for _, v := range g.OutNeighbors(u) {
			pv := v
			if perm != nil {
				pv = perm[v]
			}
			coo.Add(pv, pu, w)
		}
	}
	return coo.ToCSR()
}

// csrBitsEqual is CSR.Equal with values compared as bit patterns.
func csrBitsEqual(a, b *sparse.CSR) bool {
	if !a.Equal(b) {
		return false
	}
	for p, v := range a.Values() {
		if math.Float64bits(v) != math.Float64bits(b.Values()[p]) {
			return false
		}
	}
	return true
}

// TestBuildHMatchesCOO: the directly assembled H is Float64bits-equal to
// the triplet-list reference, under SlashBurn orderings, random
// permutations and no permutation, on graphs with deadends and with
// self-loops (where the diagonal 1 and the loop's weight merge into one
// entry).
func TestBuildHMatchesCOO(t *testing.T) {
	loops := func(n int, seed int64) *graph.Graph {
		rng := rand.New(rand.NewSource(seed))
		var edges []graph.Edge
		for u := 0; u < n; u++ {
			if u%3 == 0 {
				edges = append(edges, graph.Edge{Src: u, Dst: u})
			}
			for j := rng.Intn(4); j > 0; j-- {
				edges = append(edges, graph.Edge{Src: u, Dst: rng.Intn(n)})
			}
		}
		return graph.MustNew(n, edges)
	}
	graphs := map[string]*graph.Graph{
		"hybrid10":   gen.Hybrid(gen.DefaultHybrid(10, 8, 1)),
		"rmat9":      gen.RMAT(gen.DefaultRMAT(9, 6, 3)),
		"self-loops": loops(700, 4),
		"loop-only":  graph.MustNew(3, []graph.Edge{{Src: 0, Dst: 0}, {Src: 1, Dst: 1}, {Src: 1, Dst: 2}}),
		"empty":      graph.MustNew(5, nil),
	}
	rng := rand.New(rand.NewSource(12))
	for name, g := range graphs {
		perms := map[string][]int{
			"nil":       nil,
			"slashburn": reorder.HubAndSpoke(g, 0.2).Perm,
			"random":    rng.Perm(g.N()),
		}
		for pname, perm := range perms {
			got, want := BuildH(g, perm, 0.05), buildHCOO(g, perm, 0.05)
			if !csrBitsEqual(got, want) {
				t.Errorf("%s/%s: direct H differs from the COO reference (nnz %d vs %d)", name, pname, got.NNZ(), want.NNZ())
			}
		}
	}
	// The merged entry itself: node 0 has out-degree 1 and points at itself.
	c := 0.05
	h := BuildH(graphs["loop-only"], nil, c)
	if got, want := h.At(0, 0), 1+(-(1-c)/1); math.Float64bits(got) != math.Float64bits(want) {
		t.Errorf("self-loop diagonal = %v, want %v", got, want)
	}
}

// TestPreprocessBlocksMatchBlock: the six blocks preprocessing keeps are
// the ones six separate Block calls cut from the same H.
func TestPreprocessBlocksMatchBlock(t *testing.T) {
	g := gen.Hybrid(gen.DefaultHybrid(10, 8, 1))
	e, err := Preprocess(g, Options{Compact: CompactOff})
	if err != nil {
		t.Fatal(err)
	}
	h := buildHCOO(g, e.ord.Perm, e.opts.C)
	n1, l, n := e.ord.N1, e.ord.N1+e.ord.N2, e.n
	for name, pair := range map[string][2]*sparse.CSR{
		"h12": {asCSR(e.h12), h.Block(0, n1, n1, l)},
		"h21": {asCSR(e.h21), h.Block(n1, l, 0, n1)},
		"h22": {asCSR(e.h22), h.Block(n1, l, n1, l)},
		"h31": {asCSR(e.h31), h.Block(l, n, 0, n1)},
		"h32": {asCSR(e.h32), h.Block(l, n, n1, l)},
	} {
		if !csrBitsEqual(pair[0], pair[1]) {
			t.Errorf("%s differs from Block of the reference H", name)
		}
	}
}

func saveHash(t testing.TB, e *Engine) (string, []byte) {
	t.Helper()
	var buf bytes.Buffer
	n, err := e.WriteTo(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if n != int64(buf.Len()) {
		t.Fatalf("WriteTo reported %d bytes, wrote %d", n, buf.Len())
	}
	return fmt.Sprintf("%x", sha256.Sum256(buf.Bytes())), buf.Bytes()
}

// TestSaveLoadFrozenBytes pins the saved index of a fixed graph to the
// SHA-256 the commit before the chunked codec and the linear-time builders
// produced (captured there): ordering, H blocks, S and the block LU all
// flow into these bytes, so none of them may move by one bit. The compact
// and the wide engine write the same file, and Save → Load → Save is a fixed
// point.
func TestSaveLoadFrozenBytes(t *testing.T) {
	const frozen = "9cca22a1257205931dac54382a762fc67dc94ea87ce3595ba04844e2f4198f8c"
	g := gen.Hybrid(gen.DefaultHybrid(11, 10, 1))
	for _, mode := range []CompactMode{CompactAuto, CompactOff} {
		e, err := Preprocess(g, Options{Compact: mode})
		if err != nil {
			t.Fatal(err)
		}
		if e.Compacted() != (mode == CompactAuto) {
			t.Fatalf("mode %v: Compacted() = %v", mode, e.Compacted())
		}
		sum, raw := saveHash(t, e)
		if sum != frozen {
			t.Errorf("mode %v: saved index hashes to %s, frozen %s (%d bytes)", mode, sum, frozen, len(raw))
		}
		back, err := ReadEngine(bytes.NewReader(raw))
		if err != nil {
			t.Fatal(err)
		}
		if again, _ := saveHash(t, back); again != sum {
			t.Errorf("mode %v: Save → Load → Save changed the bytes", mode)
		}
		if back.ILU() == nil {
			t.Errorf("mode %v: Load returned without the ILU factors", mode)
		}
	}
}

// TestSaveLoadConcurrent: engines saved and loaded from several goroutines
// at once share the codec's chunk pool; every copy must come out identical.
func TestSaveLoadConcurrent(t *testing.T) {
	e, err := Preprocess(gen.RMAT(gen.DefaultRMAT(9, 6, 5)), Options{})
	if err != nil {
		t.Fatal(err)
	}
	want, _ := saveHash(t, e)
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 5; i++ {
				var buf bytes.Buffer
				if _, err := e.WriteTo(&buf); err != nil {
					t.Error(err)
					return
				}
				back, err := ReadEngine(&buf)
				if err != nil {
					t.Error(err)
					return
				}
				var again bytes.Buffer
				if _, err := back.WriteTo(&again); err != nil {
					t.Error(err)
					return
				}
				if got := fmt.Sprintf("%x", sha256.Sum256(again.Bytes())); got != want {
					t.Errorf("concurrent round trip produced %s, want %s", got, want)
				}
			}
		}()
	}
	wg.Wait()
}

// h12ColumnOffset returns the byte offset of H12's k-th column index in a
// saved index: past the engine header, the permutation, the block sizes,
// and H12's own header and row pointers.
func h12ColumnOffset(e *Engine, k int) int {
	return 4 + 12*8 + 8*e.n + 8*len(e.ord.Blocks) + (4 + 4 + 3*8) + 8*(e.ord.N1+1) + 8*k
}

// corruptIndexes are saved indexes with one H12 column index overwritten.
// Before ReadCSR validated what it decodes both loaded without error: the
// first was truncated to column 0 by the uint32 compaction and the engine
// served silently wrong scores, the second made Query index out of range.
func corruptIndexes(t testing.TB) (valid []byte, corrupt map[string][]byte) {
	e, err := Preprocess(gen.RMAT(gen.DefaultRMAT(6, 4, 3)), Options{})
	if err != nil {
		t.Fatal(err)
	}
	if e.h12.NNZ() < 2 {
		t.Fatal("fixture has no H12 entries to corrupt")
	}
	_, valid = saveHash(t, e)
	corrupt = map[string][]byte{}
	for name, v := range map[string]uint64{"1<<40": 1 << 40, "100000": 100000} {
		raw := append([]byte(nil), valid...)
		binary.LittleEndian.PutUint64(raw[h12ColumnOffset(e, 1):], v)
		corrupt["H12 column "+name] = raw
	}
	return valid, corrupt
}

func TestReadEngineRejectsCorruptColumn(t *testing.T) {
	valid, corrupt := corruptIndexes(t)
	if _, err := ReadEngine(bytes.NewReader(valid)); err != nil {
		t.Fatalf("fixture does not load: %v", err)
	}
	for name, raw := range corrupt {
		if _, err := ReadEngine(bytes.NewReader(raw)); err == nil {
			t.Errorf("%s: a corrupt index loaded without error", name)
		}
	}
}

// TestReadEngineRejectsWrongShapes: a matrix that is well-formed but not
// the shape the header's partition implies is refused at load, not found by
// a query.
func TestReadEngineRejectsWrongShapes(t *testing.T) {
	e, err := Preprocess(gen.RMAT(gen.DefaultRMAT(6, 4, 3)), Options{})
	if err != nil {
		t.Fatal(err)
	}
	_, raw := saveHash(t, e)
	// H12's declared column count sits 16 bytes into its header.
	off := h12ColumnOffset(e, 0) - 8*(e.ord.N1+1) - 16
	binary.LittleEndian.PutUint64(raw[off:], uint64(e.ord.N2+1))
	if _, err := ReadEngine(bytes.NewReader(raw)); err == nil {
		t.Fatal("an index whose H12 is one column too wide loaded without error")
	}
}
