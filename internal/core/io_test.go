package core

import (
	"bytes"
	"encoding/binary"
	"errors"
	"io"
	"math"
	"math/rand"
	"strings"
	"testing"

	"bepi/internal/binio"
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

// TestReadEngineRefusesForeignWeights: weights no H has — a column without
// entries given one, a column with entries given none, one outside
// [−(1−c), 0) — are refused, checksums intact.
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

// TestSaveLoadEveryByteFlipRefused: the file detects its own corruption.
// Every byte of a file flipped in turn — magic, version, section
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

// TestReadEngineRefusesOtherVersions: a file of any format version but 6 —
// the versions before it, under the versioned magic or version 1's own,
// and a newer one — is ErrIndexVersion alone, and the message of an older
// one names its version and how to rebuild the index.
func TestReadEngineRefusesOtherVersions(t *testing.T) {
	word := func(v uint32) []byte { return binary.LittleEndian.AppendUint32(nil, v) }
	for _, c := range []struct {
		name    string
		raw     []byte
		says    string
		rebuild bool // the message says to re-run bepi preprocess
	}{
		{"version 1", word(indexMagicV1), "version 1: ", true},
		{"version 1 under the versioned magic", append(word(indexMagic), word(1)...), "version 1: ", true},
		{"version 2", append(word(indexMagic), word(2)...), "version 2: ", true},
		{"version 3", append(word(indexMagic), word(3)...), "version 3: ", true},
		{"version 4", append(word(indexMagic), word(4)...), "version 4: ", true},
		{"version 5", append(word(indexMagic), word(5)...), "version 5: ", true},
		{"version 7", append(word(indexMagic), word(7)...), "version 7: ", false},
	} {
		_, err := ReadEngine(bytes.NewReader(c.raw))
		if !errors.Is(err, ErrIndexVersion) || errors.Is(err, ErrCorruptIndex) {
			t.Errorf("%s: %v, want ErrIndexVersion alone", c.name, err)
			continue
		}
		if msg := err.Error(); !strings.Contains(msg, c.says) || strings.Contains(msg, "bepi preprocess") != c.rebuild {
			t.Errorf("%s: message %q", c.name, msg)
		}
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
