package core

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math"
	"math/rand"
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

// TestReadEngineIgnoresReservedWords: header words 4 and 6 held a GMRES
// restart length and a solver id while those were options. A file that
// carries them — restart 20, BiCGSTAB — loads, answers like the power
// iteration, and is saved again with zeros there, which is byte for byte
// what the engine that never had them writes.
func TestReadEngineIgnoresReservedWords(t *testing.T) {
	g := gen.RMAT(gen.DefaultRMAT(8, 6, 21))
	e, err := Preprocess(g, Options{})
	if err != nil {
		t.Fatal(err)
	}
	_, fresh := saveHash(t, e)
	old := append([]byte(nil), fresh...)
	binary.LittleEndian.PutUint64(old[4+8*4:], 20)
	binary.LittleEndian.PutUint64(old[4+8*6:], 1)
	loaded, err := ReadEngine(bytes.NewReader(old))
	if err != nil {
		t.Fatalf("a file with restart=20 solver=1 does not load: %v", err)
	}
	if _, again := saveHash(t, loaded); !bytes.Equal(again, fresh) {
		t.Error("re-saving did not zero the reserved words (or moved another byte)")
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
