package core

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"math"
	"math/rand"
	"reflect"
	"runtime"
	"slices"
	"strings"
	"sync"
	"testing"

	"bepi/internal/binio"
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
			pv := int(v)
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

// TestPreprocessBlocksMatchBlock: the four H blocks an engine keeps are the
// ones separate Block calls cut from the same H.
func TestPreprocessBlocksMatchBlock(t *testing.T) {
	g := gen.Hybrid(gen.DefaultHybrid(10, 8, 1))
	e, err := Preprocess(g, Options{})
	if err != nil {
		t.Fatal(err)
	}
	h := buildHCOO(g, e.Ordering().Perm, e.opts.C)
	n1, l, n := e.ord.n1, e.ord.n1+e.ord.n2, e.n
	for name, pair := range map[string][2]*sparse.CSR{
		"h12": {e.h12.Expand(e.hw[n1:]), h.Block(0, n1, n1, l)},
		"h21": {e.h21.Expand(e.hw[:n1]), h.Block(n1, l, 0, n1)},
		"h31": {e.h31.Expand(e.hw[:n1]), h.Block(l, n, 0, n1)},
		"h32": {e.h32.Expand(e.hw[n1:]), h.Block(l, n, n1, l)},
	} {
		if !csrBitsEqual(pair[0], pair[1]) {
			t.Errorf("%s differs from Block of the reference H", name)
		}
	}
}

// requireHBlocks: an engine's H patterns times its weights are, bit for
// bit, the blocks BuildH(g, perm, c).Partition cuts from the H of the graph
// it serves, and its weights are canonical — a column's value where one of
// the four blocks holds entries of it, 0 at every other non-deadend column.
func requireHBlocks(t *testing.T, e *Engine, g *graph.Graph) {
	t.Helper()
	n1, l := e.ord.n1, e.ord.n1+e.ord.n2
	blocks := BuildH(g, e.Ordering().Perm, e.opts.C).Partition([]int{0, n1, l, e.n}, []int{0, n1, l})
	want := make([]float64, l)
	for _, b := range []struct {
		name string
		got  *sparse.Pattern
		ref  *sparse.CSR
		col0 int
	}{
		{"h12", e.h12, blocks[0][1], n1},
		{"h21", e.h21, blocks[1][0], 0},
		{"h31", e.h31, blocks[2][0], 0},
		{"h32", e.h32, blocks[2][1], n1},
	} {
		if !csrBitsEqual(b.got.Expand(e.hw[b.col0:b.col0+b.ref.Cols()]), b.ref) {
			t.Fatalf("%s: pattern × weights differs from BuildH's block", b.name)
		}
		for p, j := range b.ref.ColIdx() {
			want[b.col0+j] = b.ref.Values()[p]
		}
	}
	if !bitsEqual(e.hw, want) {
		t.Fatal("the weights are not the blocks' column values, 0 at empty columns")
	}
}

// TestHBlocksOnEdgeGraphs: the pattern-and-weight split holds on graphs
// whose columns are unusual — self-loops (the loop's weight merges into the
// diagonal, which no block stores), no out-edges at all (no weights, empty
// blocks), and a star (one hub column holding nearly every entry) — when
// built and reloaded.
func TestHBlocksOnEdgeGraphs(t *testing.T) {
	loops := make([]graph.Edge, 0, 3*200)
	for u := 0; u < 200; u++ {
		loops = append(loops, graph.Edge{Src: u, Dst: u}, graph.Edge{Src: u, Dst: (u * 7) % 200}, graph.Edge{Src: u, Dst: (u + 1) % 200})
	}
	var star []graph.Edge
	for v := 1; v < 300; v++ {
		star = append(star, graph.Edge{Src: 0, Dst: v})
		if v%3 == 0 {
			star = append(star, graph.Edge{Src: v, Dst: 0})
		}
	}
	for name, g := range map[string]*graph.Graph{
		"self-loops":   graph.MustNew(200, loops),
		"all-deadends": graph.MustNew(50, nil),
		"star":         graph.MustNew(300, star),
	} {
		t.Run(name, func(t *testing.T) {
			e, err := Preprocess(g, Options{})
			if err != nil {
				t.Fatal(err)
			}
			for state, s := range map[string]*Engine{"built": e, "loaded": reloaded(t, e)} {
				t.Run(state, func(t *testing.T) {
					requireHBlocks(t, s, g)
					requireQueryBitsEqual(t, s, e, []int{0, g.N() - 1})
				})
			}
		})
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
// SHA-256 of its format-version-6 file (227 815 bytes): ordering, H patterns
// and weights, S, its pivots and the block LU all flow into these bytes, so
// none of them may move by one bit. Save → Load → Save is a fixed point.
// History: the version-5 file of the same index, 313 870 bytes — every
// value of S written, its pivots not — hashed to
// eb4781dab8a5dc68380f415eb90b3ffe8d7df97076c1ac72bbbe7e8fb0165b04; the
// version-4 file, 315 690 bytes — the 453 H11 block sizes a second time,
// as 32-bit words after the permutation, and their count in the header —
// to 552aefa6743d8dced65319db2088f091f165af2bfb391534b8a3dbc53f50ef48; the
// version-3 file, 382 336 bytes — 2 bytes more per entry of S and of the H
// patterns — to
// f9b322e12979898f3b74da5100df30bc30309fa3e76806c1973122ef469d251b; the
// version-2 file, 436 540 bytes, to
// 7fb69f6b2f30d25d0e34df3ba877900c7f8e4610069aa3a21e55460c332716ce from
// the first version-2 writer to the last; the version-1 file, 591 136
// bytes, to 9cca22a1257205931dac54382a762fc67dc94ea87ce3595ba04844e2f4198f8c
// from the commit before the chunked codec and the linear-time builders to
// the last version-1 writer.
//
// The BePI-B and BePI-S files of the same graph (643 628 and 227 815 bytes)
// are pinned beside it. Their version-5 files, 662 628 and 313 870 bytes,
// hashed to 25f5bc9c67e066417c736e1c935a3ceb818e42582b222696f62cc5bd22ff8b6e
// and 96781bbfedc8d7b4e39f866a33efd3ab88f375404e861dfd70c71c7449a78bea from
// the last build whose engines for those variants held S as a compact CSR
// and factored it only to save it to the last version-5 writer: holding S
// as its DILU triangles changed what they keep in memory, not a byte of
// what they write.
func TestSaveLoadFrozenBytes(t *testing.T) {
	frozen := map[Variant]string{
		VariantFull: "e34ad5f7d6e5696e78e758049d8816ecd940a410c9b10aa7a4ea33fd1db220db",
		VariantB:    "38628a028ed0bbe383e411b7e8a97e790362850ddd520988c1c6aa19ce6ed5d9",
		VariantS:    "c853ef279dc3a94eaabff51e898aa1cfd1e3e4c086f64ff30a5917dafb0ec748",
	}
	g := gen.Hybrid(gen.DefaultHybrid(11, 10, 1))
	for _, v := range []Variant{VariantFull, VariantB, VariantS} {
		e, err := Preprocess(g, Options{Variant: v})
		if err != nil {
			t.Fatal(err)
		}
		sum, raw := saveHash(t, e)
		if sum != frozen[v] {
			t.Errorf("%v: saved index hashes to %s, frozen %s (%d bytes)", v, sum, frozen[v], len(raw))
		}
		back, err := ReadEngine(bytes.NewReader(raw))
		if err != nil {
			t.Fatal(err)
		}
		if again, _ := saveHash(t, back); again != sum {
			t.Errorf("%v: Save → Load → Save changed the bytes", v)
		}
		if back.ILU() == nil {
			t.Errorf("%v: Load returned without the ILU factors", v)
		}
	}
}

// TestOrderingHeldOnce: an engine holds its ordering as the 32-bit
// permutation and the block LU's bounds, nothing beside them — and from
// those Ordering() reassembles exactly the ordering preprocessing was given
// (Perm, Inv, the partition and the H11 block sizes), on a built, a loaded
// and a patched engine, the patched one with its new deadends appended. The
// index's "perm" part is 4 bytes per node.
func TestOrderingHeldOnce(t *testing.T) {
	g := gen.Hybrid(gen.DefaultHybrid(10, 8, 1))
	want := reorder.HubAndSpoke(g, 0.2)
	if len(want.Blocks) < 2 || want.N2 == 0 || want.N3 == 0 {
		t.Fatalf("fixture: %d blocks, %d hubs, %d deadends", len(want.Blocks), want.N2, want.N3)
	}
	e, err := PreprocessWithOrdering(g, Options{}, want)
	if err != nil {
		t.Fatal(err)
	}
	const growth = 2
	gNew := graph.MustNew(g.N()+growth, g.Edges())
	patched, _, err := e.ApplyDelta(gNew, nil)
	if err != nil {
		t.Fatal(err)
	}
	grown := &reorder.Ordering{
		Perm: append(slices.Clone(want.Perm), g.N(), g.N()+1),
		Inv:  append(slices.Clone(want.Inv), g.N(), g.N()+1),
		N1:   want.N1, N2: want.N2, N3: want.N3 + growth,
		Blocks: want.Blocks,
	}
	for state, c := range map[string]struct {
		e    *Engine
		want *reorder.Ordering
	}{
		"built":   {e, want},
		"loaded":  {reloaded(t, e), want},
		"patched": {patched, grown},
	} {
		if got := c.e.Ordering(); !reflect.DeepEqual(got, c.want) {
			t.Errorf("%s: Ordering() is not the ordering the engine was built under", state)
		}
		for _, p := range c.e.IndexParts() {
			if p.Name == "perm" && p.Bytes != 4*int64(c.e.N()) {
				t.Errorf("%s: the permutation occupies %d B, want 4 per node (%d)", state, p.Bytes, 4*c.e.N())
			}
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

// Section indexes of a saved index.
const (
	secHeader = iota
	secOrdering
	secH12
	secH21
	secH31
	secH32
	secWeights
	secS
	secBlockLU
	numSections
)

// sections returns the payload span [start, end) of every section of a
// saved index, read off its length words.
func sections(t testing.TB, raw []byte) [][2]int {
	t.Helper()
	var out [][2]int
	for off := 8; off < len(raw); {
		start := off + 8
		end := start + int(binary.LittleEndian.Uint64(raw[off:]))
		out = append(out, [2]int{start, end})
		off = end + 4
	}
	if len(out) != numSections {
		t.Fatalf("%d sections, want %d", len(out), numSections)
	}
	return out
}

// reseal recomputes every section's CRC-32C over its (perhaps corrupted)
// payload, so that what refuses the file is not the checksum.
func reseal(t testing.TB, raw []byte) []byte {
	t.Helper()
	for _, s := range sections(t, raw) {
		binary.LittleEndian.PutUint32(raw[s[1]:], crc32.Checksum(raw[s[0]:s[1]], crc32.MakeTable(crc32.Castagnoli)))
	}
	return raw
}

// h12ColumnOffset returns the byte offset of H12's k-th column index in a
// saved index: its section's start, past the dimension words and the int32
// row pointers, 2 bytes a column (H12 has n2 ≤ 65 536 columns here).
func h12ColumnOffset(t testing.TB, e *Engine, raw []byte, k int) int {
	return sections(t, raw)[secH12][0] + 3*8 + 4*(e.ord.n1+1) + 2*k
}

// corruptFixture is the graph of corruptIndexes.
func corruptFixture() *graph.Graph { return gen.RMAT(gen.DefaultRMAT(6, 4, 3)) }

// corruptIndexes are saved indexes with one H12 column index, one
// permutation entry, one option word of the header or one value of S or of
// the H11 factors overwritten, and their checksums recomputed: what the
// structural and value checks must refuse on their own.
// A permutation entry repeated or out of range must be refused by the
// load's own check: no later one would notice, and a query would scatter
// two nodes into one slot. Before the matrix reader
// validated what it decodes the first two loaded without error: one was
// truncated to column 0 by the uint32 compaction and the engine served silently wrong
// scores, the other made Query index out of range. Before ReadEngine
// validated the option words so did the rest: an iteration budget of 2⁴⁰
// died in GMRES's bookkeeping allocation with a fatal out-of-memory no
// recover catches, one of 8.3 M (a single flipped byte) allocated 600 MB
// per query, c = 7 served "probabilities" of 7.5, and an unknown variant
// served unpreconditioned. Before the factor readers checked values, a NaN
// in the block LU served NaN scores without an error (and TopK ranked
// one), a NaN or +Inf diagonal of S ran every query to its iteration budget
// before failing, and a diagonal of 0 or −1 served finite wrong scores.
func corruptIndexes(t testing.TB) (valid []byte, corrupt map[string][]byte) {
	e, err := Preprocess(corruptFixture(), Options{})
	if err != nil {
		t.Fatal(err)
	}
	if e.h12.NNZ() < 2 {
		t.Fatal("fixture has no H12 entries to corrupt")
	}
	_, valid = saveHash(t, e)
	header := sections(t, valid)[secHeader][0]
	corrupt = map[string][]byte{}
	for name, v := range map[string]uint16{"1<<16-1": 1<<16 - 1, "n2": uint16(e.ord.n2)} {
		raw := append([]byte(nil), valid...)
		binary.LittleEndian.PutUint16(raw[h12ColumnOffset(t, e, raw, 1):], v)
		corrupt["H12 column "+name] = reseal(t, raw)
	}
	ordering := sections(t, valid)[secOrdering][0]
	for name, v := range map[string]uint32{
		"repeated": binary.LittleEndian.Uint32(valid[ordering:]),
		"n":        uint32(e.n),
	} {
		raw := append([]byte(nil), valid...)
		binary.LittleEndian.PutUint32(raw[ordering+4:], v)
		corrupt["permutation entry "+name] = reseal(t, raw)
	}
	for name, w := range map[string]struct {
		word int
		bits uint64
	}{
		"maxIter 1<<40":  {3, 1 << 40},
		"maxIter 0":      {3, 0},
		"c 7.0":          {0, math.Float64bits(7)},
		"tol NaN":        {1, math.Float64bits(math.NaN())},
		"variant 9":      {2, 9},
		"hubRatio +Inf":  {4, math.Float64bits(math.Inf(1))},
		"hubRatio -0.25": {4, math.Float64bits(-0.25)},
		"hubRatio 1":     {4, math.Float64bits(1)},
		"hubRatio NaN":   {4, math.Float64bits(math.NaN())},
	} {
		raw := append([]byte(nil), valid...)
		binary.LittleEndian.PutUint64(raw[header+8*w.word:], w.bits)
		corrupt["header "+name] = reseal(t, raw)
	}
	flipped := append([]byte(nil), valid...)
	flipped[header+8*3+2] ^= 0x7F // maxIter 1000 → 8 323 048
	corrupt["header maxIter byte flip"] = reseal(t, flipped)
	sl := sLayoutOf(t, valid)
	for name, v := range map[string]float64{
		"S diagonal NaN":  math.NaN(),
		"S diagonal +Inf": math.Inf(1),
		"S diagonal 0":    0,
		"S diagonal -1":   -1,
	} {
		raw := append([]byte(nil), valid...)
		binary.LittleEndian.PutUint64(raw[sl.diag:], math.Float64bits(v))
		corrupt[name] = reseal(t, raw)
	}
	for name, off := range map[string]int{
		"S off-diagonal NaN": sl.values,
		"block-LU NaN":       blockLUValueOffset(t, valid),
	} {
		raw := append([]byte(nil), valid...)
		binary.LittleEndian.PutUint64(raw[off:], math.Float64bits(math.NaN()))
		corrupt[name] = reseal(t, raw)
	}
	for name, v := range map[string]float64{
		"S pivot 0":    0,
		"S pivot -1":   -1,
		"S pivot NaN":  math.NaN(),
		"S pivot +Inf": math.Inf(1),
	} {
		raw := append([]byte(nil), valid...)
		binary.LittleEndian.PutUint64(raw[sl.pivots:], math.Float64bits(v))
		corrupt[name] = reseal(t, raw)
	}
	// The first value written, an entry of S's lower triangle, overwritten
	// with its column's weight: a value its bit should have stood for.
	raw := append([]byte(nil), valid...)
	binary.LittleEndian.PutUint64(raw[sl.values:], math.Float64bits(e.hw[e.ord.n1+sl.firstWrittenCol]))
	corrupt["S value its weight"] = reseal(t, raw)

	raw = append([]byte(nil), valid...)
	raw[sl.uBits] |= 1 // U's entry 0 leads row 0
	corrupt["S lead bit set"] = reseal(t, raw)
	raw = append([]byte(nil), valid...)
	if pad := sl.nnzL % 8; pad != 0 {
		raw[sl.uBits-1] |= 1 << pad
	} else if pad = sl.nnzU % 8; pad != 0 {
		raw[sl.values-1] |= 1 << pad
	} else {
		t.Fatalf("fixture's S has %d+%d entries: no padding bit", sl.nnzL, sl.nnzU)
	}
	corrupt["S padding bit set"] = reseal(t, raw)
	// The first value written marked as its column's weight and left out,
	// the rest moved up, and 8 bytes appended in its place: every value
	// and pivot is read where it belongs, the section keeps its length, and
	// one value more is written than the bitmaps leave clear.
	raw = append([]byte(nil), valid...)
	copy(raw[sl.values:sl.end-8], valid[sl.values+8:sl.end])
	raw[sl.lBits+sl.firstWritten/8] |= 1 << (sl.firstWritten % 8)
	corrupt["S bitmap one set bit over its values"] = reseal(t, raw)
	return valid, corrupt
}

// refusedBy names, for the mutants of corruptIndexes that one check of
// the S section refuses, a part of the message of that check.
var refusedBy = map[string]string{
	"S pivot 0":                            "pivots are not finite and positive",
	"S pivot -1":                           "pivots are not finite and positive",
	"S pivot NaN":                          "pivots are not finite and positive",
	"S pivot +Inf":                         "pivots are not finite and positive",
	"S value its weight":                   "could have marked",
	"S lead bit set":                       "is marked as its column's weight",
	"S padding bit set":                    "padding bit set",
	"S bitmap one set bit over its values": "of the section not read",
}

// sLayout is where the parts of the S section of a saved index lie, read
// off its header words: n, nnzL, nnzU, then each triangle's int32 row
// pointers and 16-bit columns, a bitmap per triangle (a byte per 8
// entries), the values of the clear bits and the n pivots.
type sLayout struct {
	n, nnzL, nnzU        int
	lBits, uBits, values int
	diag                 int // the value of the lead of U's first row
	pivots, end          int
	firstWritten         int // the first clear bit of L's bitmap
	firstWrittenCol      int // and the column of its entry
}

func sLayoutOf(t testing.TB, raw []byte) sLayout {
	t.Helper()
	span := sections(t, raw)[secS]
	word := func(k int) int { return int(binary.LittleEndian.Uint64(raw[span[0]+8*k:])) }
	s := sLayout{n: word(0), nnzL: word(1), nnzU: word(2), end: span[1]}
	if s.n == 0 || s.nnzL == 0 {
		t.Fatalf("fixture's S is %d×%d with %d strictly lower entries", s.n, s.n, s.nnzL)
	}
	lCol := span[0] + 3*8 + 4*(s.n+1)
	s.lBits = lCol + 2*s.nnzL + 4*(s.n+1) + 2*s.nnzU
	s.uBits = s.lBits + (s.nnzL+7)/8
	s.values = s.uBits + (s.nnzU+7)/8
	s.pivots = s.end - 8*s.n
	s.firstWritten = -1
	lWritten := 0
	for p := 0; p < s.nnzL; p++ {
		if raw[s.lBits+p/8]>>(p%8)&1 == 0 {
			if s.firstWritten < 0 {
				s.firstWritten = p
			}
			lWritten++
		}
	}
	if s.firstWritten < 0 {
		t.Fatal("fixture's S writes no value of its lower triangle")
	}
	s.firstWrittenCol = int(binary.LittleEndian.Uint16(raw[lCol+2*s.firstWritten:]))
	s.diag = s.values + 8*lWritten
	return s
}

// blockLUValueOffset returns the byte offset of the first packed H11 factor
// entry in a saved index: past the block-LU section's magic, its block
// count and the count+1 offsets.
func blockLUValueOffset(t testing.TB, raw []byte) int {
	start := sections(t, raw)[secBlockLU][0]
	nb := int(binary.LittleEndian.Uint64(raw[start+4:]))
	if nb == 0 {
		t.Fatal("fixture has no H11 blocks")
	}
	return start + 4 + 8 + 8*(nb+1)
}

// TestReadEngineRejectsCorruptColumn: every corrupt index is refused with
// the typed error — by the structural or value checks, its checksums being
// intact — having allocated no more than a small multiple of the bytes it
// was given: the refusal comes before the file's own numbers size anything.
func TestReadEngineRejectsCorruptColumn(t *testing.T) {
	valid, corrupt := corruptIndexes(t)
	if _, err := ReadEngine(bytes.NewReader(valid)); err != nil {
		t.Fatalf("fixture does not load: %v", err)
	}
	for name, raw := range corrupt {
		allocated, err := readAllocated(raw)
		if !errors.Is(err, ErrCorruptIndex) || errors.Is(err, binio.ErrChecksum) {
			t.Errorf("%s: ReadEngine returned %v, want ErrCorruptIndex from a structural or value check", name, err)
		} else if says, ok := refusedBy[name]; ok && !strings.Contains(err.Error(), says) {
			t.Errorf("%s: ReadEngine returned %v, want the refusal of the check that says %q", name, err, says)
		}
		if limit := refusalAllocLimit(raw); allocated > limit {
			t.Errorf("%s: refusing a %d-byte index allocated %d bytes", name, len(raw), allocated)
		}
	}
}

// readAllocated loads raw and returns the bytes that took with its error.
func readAllocated(raw []byte) (uint64, error) {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	_, err := ReadEngine(bytes.NewReader(raw))
	runtime.ReadMemStats(&after)
	return after.TotalAlloc - before.TotalAlloc, err
}

// refusalAllocLimit is what refusing a corrupt file may allocate: a small
// multiple of its size.
func refusalAllocLimit(raw []byte) uint64 { return uint64(4*len(raw) + (1 << 20)) }

// TestReadEngineRejectsWrongShapes: a matrix that is well-formed but not
// the shape the header's partition implies is refused at load, not found by
// a query.
func TestReadEngineRejectsWrongShapes(t *testing.T) {
	e, err := Preprocess(corruptFixture(), Options{})
	if err != nil {
		t.Fatal(err)
	}
	_, raw := saveHash(t, e)
	// H12's declared column count is its section's second word.
	binary.LittleEndian.PutUint64(raw[sections(t, raw)[secH12][0]+8:], uint64(e.ord.n2+1))
	if _, err := ReadEngine(bytes.NewReader(reseal(t, raw))); err == nil || errors.Is(err, binio.ErrChecksum) {
		t.Fatalf("an index whose H12 is one column too wide: %v", err)
	}
}
