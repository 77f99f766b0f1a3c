package core

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math"
	"math/rand"
	"os"
	"testing"

	"bepi/internal/binio"
	"bepi/internal/gen"
	"bepi/internal/lu"
	"bepi/internal/sparse"
	"bepi/internal/vec"
)

func TestEngineSerializationRoundTrip(t *testing.T) {
	g := gen.RMAT(gen.DefaultRMAT(8, 6, 21))
	for _, v := range []Variant{VariantB, VariantS, VariantFull} {
		orig, err := Preprocess(g, Options{Variant: v, HubRatio: 0.2, Tol: 1e-10})
		if err != nil {
			t.Fatalf("%v: %v", v, err)
		}
		var buf bytes.Buffer
		if _, err := orig.WriteTo(&buf); err != nil {
			t.Fatalf("%v: WriteTo: %v", v, err)
		}
		back, err := ReadEngine(&buf)
		if err != nil {
			t.Fatalf("%v: ReadEngine: %v", v, err)
		}
		if back.N() != orig.N() {
			t.Fatalf("%v: n = %d want %d", v, back.N(), orig.N())
		}
		if back.Preconditioned() != (v == VariantFull) {
			t.Fatalf("%v: preconditioner state lost", v)
		}
		if back.MemoryBytes() != orig.MemoryBytes() {
			t.Fatalf("%v: the loaded index occupies %d B, the built one %d B", v, back.MemoryBytes(), orig.MemoryBytes())
		}
		rng := rand.New(rand.NewSource(7))
		for trial := 0; trial < 3; trial++ {
			seed := rng.Intn(g.N())
			want, _, err := orig.Query(seed)
			if err != nil {
				t.Fatal(err)
			}
			got, _, err := back.Query(seed)
			if err != nil {
				t.Fatal(err)
			}
			if d := vec.Dist2(got, want); d > 1e-12 {
				t.Fatalf("%v seed %d: reloaded engine differs by %v", v, seed, d)
			}
		}
	}
}

// v1Fixture is corruptFixture's index as the version-1 writer saved it (the
// last commit that wrote that format, with Options{}).
func v1Fixture(t testing.TB) []byte {
	t.Helper()
	raw, err := os.ReadFile("testdata/index-v1.bpi")
	if err != nil {
		t.Fatal(err)
	}
	return raw
}

// TestSaveLoadV1FileMatchesFreshBuild: a version-1 file loads into the
// engine a fresh build of its graph is — the same MemoryBytes(), the same
// answers bit for bit, and a re-save byte for byte the fresh build's
// version-3 file, which is the smaller of the two.
func TestSaveLoadV1FileMatchesFreshBuild(t *testing.T) {
	v1 := v1Fixture(t)
	fresh, err := Preprocess(corruptFixture(), Options{})
	if err != nil {
		t.Fatal(err)
	}
	old, err := ReadEngine(bytes.NewReader(v1))
	if err != nil {
		t.Fatalf("the version-1 file does not load: %v", err)
	}
	if old.MemoryBytes() != fresh.MemoryBytes() {
		t.Errorf("loaded from version 1 the index occupies %d B, built %d B", old.MemoryBytes(), fresh.MemoryBytes())
	}
	if got, want := answersHash(t, old), answersHash(t, fresh); got != want {
		t.Errorf("answers hash to %s loaded from version 1, %s built", got, want)
	}
	_, resaved := saveHash(t, old)
	_, v3 := saveHash(t, fresh)
	if !bytes.Equal(resaved, v3) {
		t.Error("re-saving the version-1 index does not write the fresh build's version-3 file")
	}
	if len(v3) >= len(v1) {
		t.Errorf("version 3 takes %d B, version 1 %d B", len(v3), len(v1))
	}
}

// v2Fixture is corruptFixture's index as the version-2 writer saved it (the
// last commit that wrote that format, with Options{}).
func v2Fixture(t testing.TB) []byte {
	t.Helper()
	raw, err := os.ReadFile("testdata/index-v2.bpi")
	if err != nil {
		t.Fatal(err)
	}
	return raw
}

// v2Bytes is the engine saved in format version 2: version 3's sections
// without the weights, each H block a sparse.CSR32 holding its value at
// every entry. The reference writer for the version-2 read path;
// TestSaveLoadV2FileMatchesFreshBuild holds it to the last version-2
// writer's bytes.
func v2Bytes(t testing.TB, e *Engine) []byte {
	t.Helper()
	s := e.ilu
	if s == nil {
		var err error
		if s, err = lu.FactorDILU(e.schur.ToCSR()); err != nil {
			t.Fatal(err)
		}
	}
	n1 := e.ord.N1
	var buf bytes.Buffer
	bw := binio.NewWriter(&buf)
	bw.U32(indexMagic)
	bw.U32(2)
	bw.Section(e.writeHeader)
	bw.Section(e.writeOrdering)
	for _, b := range []struct {
		p *sparse.Pattern
		w []float64
	}{{e.h12, e.hw[n1:]}, {e.h21, e.hw[:n1]}, {e.h31, e.hw[:n1]}, {e.h32, e.hw[n1:]}} {
		bw.Section(sparse.Compact(b.p.Expand(b.w)).WriteTo)
	}
	bw.Section(s.WriteTo)
	bw.Section(e.h11LU.WriteTo)
	if _, err := bw.Close(); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// readV2 is the engine after a round trip through a version-2 file.
func readV2(t testing.TB, e *Engine) *Engine {
	t.Helper()
	loaded, err := ReadEngine(bytes.NewReader(v2Bytes(t, e)))
	if err != nil {
		t.Fatalf("reading the version-2 file: %v", err)
	}
	return loaded
}

// TestSaveLoadV2FileMatchesFreshBuild: the version-2 file the last writer
// of that format saved loads into the engine a fresh build of its graph is
// — the same MemoryBytes(), the same answers bit for bit, and a re-save
// byte for byte the fresh build's version-3 file, which is smaller by the
// H blocks' values less one weight per non-deadend node. v2Bytes writes the
// file's very bytes.
func TestSaveLoadV2FileMatchesFreshBuild(t *testing.T) {
	v2 := v2Fixture(t)
	fresh, err := Preprocess(corruptFixture(), Options{})
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(v2Bytes(t, fresh), v2) {
		t.Fatal("v2Bytes does not write the version-2 writer's file")
	}
	old, err := ReadEngine(bytes.NewReader(v2))
	if err != nil {
		t.Fatalf("the version-2 file does not load: %v", err)
	}
	if old.MemoryBytes() != fresh.MemoryBytes() {
		t.Errorf("loaded from version 2 the index occupies %d B, built %d B", old.MemoryBytes(), fresh.MemoryBytes())
	}
	if got, want := answersHash(t, old), answersHash(t, fresh); got != want {
		t.Errorf("answers hash to %s loaded from version 2, %s built", got, want)
	}
	_, resaved := saveHash(t, old)
	_, v3 := saveHash(t, fresh)
	if !bytes.Equal(resaved, v3) {
		t.Error("re-saving the version-2 index does not write the fresh build's version-3 file")
	}
	entries := fresh.h12.NNZ() + fresh.h21.NNZ() + fresh.h31.NNZ() + fresh.h32.NNZ()
	if want := len(v2) - 8*entries + 8*len(fresh.hw) + 12; len(v3) != want {
		t.Errorf("version 3 takes %d B, version 2 %d B: want %d", len(v3), len(v2), want)
	}
}

// v2Mutants are version-2 files of the scale-10 hybrid fixture with one H
// value overwritten and the checksums recomputed: a column whose entries
// differ, and a spoke column H21 and H31 give different values. Neither is
// a column of any H; the loader must refuse both, not derive a weight from
// whichever entry it reads last.
func v2Mutants(t testing.TB) map[string][]byte {
	e, err := Preprocess(gen.Hybrid(gen.DefaultHybrid(10, 14, 1)), Options{})
	if err != nil {
		t.Fatal(err)
	}
	valid := v2Bytes(t, e)
	secs := sections(t, valid)
	// valueAt is the offset of block i's k-th value: past its dimension
	// words, int32 row pointers and uint32 columns.
	valueAt := func(i int, p *sparse.Pattern, k int) int {
		return secs[secH12+i][0] + 3*8 + 4*(p.Rows()+1) + 4*p.NNZ() + 8*k
	}
	count := func(p *sparse.Pattern) map[uint32]int {
		n := map[uint32]int{}
		for _, j := range p.ColIdx() {
			n[j]++
		}
		return n
	}
	in21, in31 := count(e.h21), count(e.h31)
	mutants := map[string][]byte{}
	mutate := func(name string, i int, p *sparse.Pattern, k int) {
		raw := append([]byte(nil), valid...)
		binary.LittleEndian.PutUint64(raw[valueAt(i, p, k):], math.Float64bits(-0.5))
		mutants[name] = reseal(t, raw)
	}
	for k, j := range e.h21.ColIdx() {
		if in21[j] > 1 && e.hw[j] != -0.5 {
			mutate("non-constant H21 column", 1, e.h21, k)
			break
		}
	}
	for k, j := range e.h31.ColIdx() {
		if in31[j] == 1 && in21[j] > 0 && e.hw[j] != -0.5 {
			mutate("H31 column disagreeing with H21", 2, e.h31, k)
			break
		}
	}
	if len(mutants) != 2 {
		t.Fatalf("fixture yields %d of the 2 mutants", len(mutants))
	}
	return mutants
}

// TestReadEngineRefusesV2NonConstantColumns: the two mutants are refused
// with ErrCorruptIndex by the structural check, their checksums intact.
func TestReadEngineRefusesV2NonConstantColumns(t *testing.T) {
	for name, raw := range v2Mutants(t) {
		if _, err := ReadEngine(bytes.NewReader(raw)); !errors.Is(err, ErrCorruptIndex) || errors.Is(err, binio.ErrChecksum) {
			t.Errorf("%s: ReadEngine returned %v, want ErrCorruptIndex from the column check", name, err)
		}
	}
}

// TestReadEngineRefusesForeignWeights: weights no H has — a column without
// entries given one, a column with entries given none, one outside
// [−(1−c), 0) — are refused in a version-3 file, checksums intact.
func TestReadEngineRefusesForeignWeights(t *testing.T) {
	e, err := Preprocess(gen.Hybrid(gen.DefaultHybrid(10, 14, 1)), Options{})
	if err != nil {
		t.Fatal(err)
	}
	_, valid := saveHash(t, e)
	at := sections(t, valid)[secWeights][0]
	empty, full := -1, -1
	for j, w := range e.hw {
		if w == 0 && empty < 0 {
			empty = j
		}
		if w != 0 && full < 0 {
			full = j
		}
	}
	if empty < 0 || full < 0 {
		t.Fatalf("fixture: first empty column %d, first column with entries %d", empty, full)
	}
	for name, w := range map[string]struct {
		col int
		v   float64
	}{
		"weight on an empty column": {empty, -0.5},
		"no weight on a column":     {full, 0},
		"weight below -(1-c)":       {full, -1},
		"positive weight":           {full, 0.25},
		"NaN weight":                {full, math.NaN()},
	} {
		raw := append([]byte(nil), valid...)
		binary.LittleEndian.PutUint64(raw[at+8*w.col:], math.Float64bits(w.v))
		if _, err := ReadEngine(bytes.NewReader(reseal(t, raw))); !errors.Is(err, ErrCorruptIndex) || errors.Is(err, binio.ErrChecksum) {
			t.Errorf("%s: ReadEngine returned %v, want ErrCorruptIndex from the weight check", name, err)
		}
	}
}

// TestReadEngineIgnoresReservedWords: version-1 header words 4 and 6 held a
// GMRES restart length and a solver id while those were options. A file that
// carries them — restart 20, BiCGSTAB — loads, answers like the power
// iteration, and is saved again as the engine that never had them is:
// version 2 has no such words.
func TestReadEngineIgnoresReservedWords(t *testing.T) {
	g := corruptFixture()
	e, err := Preprocess(g, Options{})
	if err != nil {
		t.Fatal(err)
	}
	_, fresh := saveHash(t, e)
	old := v1Fixture(t)
	binary.LittleEndian.PutUint64(old[4+8*4:], 20)
	binary.LittleEndian.PutUint64(old[4+8*6:], 1)
	loaded, err := ReadEngine(bytes.NewReader(old))
	if err != nil {
		t.Fatalf("a file with restart=20 solver=1 does not load: %v", err)
	}
	if _, again := saveHash(t, loaded); !bytes.Equal(again, fresh) {
		t.Error("re-saving did not drop the reserved words (or moved another byte)")
	}
	for _, seed := range []int{0, 5, g.N() / 2, g.N() - 1} {
		got, _, err := loaded.Query(seed)
		if err != nil {
			t.Fatal(err)
		}
		want := powerOracle(g, loaded.opts.C, seed)
		var l1 float64
		for i := range got {
			l1 += math.Abs(got[i] - want[i])
		}
		if l1 > 1e-6 {
			t.Errorf("seed %d: L1 distance to the oracle %v", seed, l1)
		}
		assertSameTopKSet(t, fmt.Sprintf("seed %d", seed), RankTopK(want, 10, seed), RankTopK(got, 10, seed), false)
	}
}

// TestSaveLoadEveryByteFlipRefused: the file detects its own corruption.
// Every byte of a version-3 file flipped in turn — magic, version, section
// lengths, payloads, checksums — is refused with a typed error, within the
// allocation bound of TestReadEngineRejectsCorruptColumn.
func TestSaveLoadEveryByteFlipRefused(t *testing.T) {
	valid, _ := corruptIndexes(t)
	for i := range valid {
		raw := append([]byte(nil), valid...)
		raw[i] ^= 0xFF
		allocated, err := readAllocated(raw)
		if !errors.Is(err, ErrCorruptIndex) && !errors.Is(err, ErrIndexVersion) {
			t.Fatalf("byte %d of %d flipped: ReadEngine returned %v", i, len(raw), err)
		}
		if limit := refusalAllocLimit(raw); allocated > limit {
			t.Errorf("byte %d flipped: refusing it allocated %d bytes", i, allocated)
		}
	}
}

// TestSaveLoadNewerVersionRefused: a file of a version this build does not
// know is ErrIndexVersion, not a corrupt index.
func TestSaveLoadNewerVersionRefused(t *testing.T) {
	valid, _ := corruptIndexes(t)
	raw := append([]byte(nil), valid...)
	binary.LittleEndian.PutUint32(raw[4:], indexVersion+1)
	if _, err := ReadEngine(bytes.NewReader(raw)); !errors.Is(err, ErrIndexVersion) || errors.Is(err, ErrCorruptIndex) {
		t.Fatalf("version %d: %v, want ErrIndexVersion alone", indexVersion+1, err)
	}
}

func TestReadEngineRejectsGarbage(t *testing.T) {
	if _, err := ReadEngine(bytes.NewReader([]byte("not an index"))); !errors.Is(err, ErrCorruptIndex) {
		t.Fatalf("bad magic: %v, want ErrCorruptIndex", err)
	}
	if _, err := ReadEngine(bytes.NewReader(nil)); !errors.Is(err, ErrCorruptIndex) || !errors.Is(err, io.ErrUnexpectedEOF) && !errors.Is(err, io.EOF) {
		t.Fatalf("empty stream: %v, want ErrCorruptIndex beside the EOF", err)
	}
}

func TestReadEngineRejectsTruncated(t *testing.T) {
	g := gen.RMAT(gen.DefaultRMAT(7, 5, 22))
	e, err := Preprocess(g, Options{})
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if _, err := e.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	raw := buf.Bytes()
	for _, cut := range []int{10, len(raw) / 2, len(raw) - 5} {
		if _, err := ReadEngine(bytes.NewReader(raw[:cut])); !errors.Is(err, ErrCorruptIndex) {
			t.Fatalf("stream cut at %d: %v, want ErrCorruptIndex", cut, err)
		}
	}
}
