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

	"bepi/internal/gen"
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
// version-2 file, which is the smaller of the two.
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
	_, v2 := saveHash(t, fresh)
	if !bytes.Equal(resaved, v2) {
		t.Error("re-saving the version-1 index does not write the fresh build's version-2 file")
	}
	if len(v2) >= len(v1) {
		t.Errorf("version 2 takes %d B, version 1 %d B", len(v2), len(v1))
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
// Every byte of a version-2 file flipped in turn — magic, version, section
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
