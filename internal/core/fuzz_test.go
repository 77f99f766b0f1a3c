package core

import (
	"bytes"
	"encoding/binary"
	"errors"
	"math"
	"testing"
)

// FuzzReadEngine checks the index deserializer on corrupt bytes: it refuses
// them with a typed error (ErrCorruptIndex or ErrIndexVersion), or the file
// is one no checksum could tell from a valid index — so it must be one: it
// re-saves to itself and its answers pass the power-iteration oracle of the
// fixture's graph.
func FuzzReadEngine(f *testing.F) {
	valid, corrupt := corruptIndexes(f)
	f.Add(valid)
	f.Add(valid[:len(valid)/3])
	f.Add([]byte{})
	tail := append([]byte(nil), valid...)
	tail[len(tail)-9] ^= 0x7F
	f.Add(tail)
	for _, raw := range corrupt {
		f.Add(raw)
	}
	// The valid file under every other version word, and under version 1's
	// magic.
	for _, v := range []uint32{1, 2, 3, 4, 5, indexVersion + 1} {
		raw := append([]byte(nil), valid...)
		binary.LittleEndian.PutUint32(raw[4:], v)
		f.Add(raw)
	}
	f.Add(binary.LittleEndian.AppendUint32(nil, indexMagicV1))
	g := corruptFixture()

	f.Fuzz(func(t *testing.T, data []byte) {
		eng, err := ReadEngine(bytes.NewReader(data))
		if err != nil {
			if !errors.Is(err, ErrCorruptIndex) && !errors.Is(err, ErrIndexVersion) {
				t.Fatalf("untyped error: %v", err)
			}
			return
		}
		if _, again := saveHash(t, eng); !bytes.Equal(again, data) {
			t.Fatal("an accepted file does not re-save to itself")
		}
		for _, seed := range []int{0, g.N() / 2, g.N() - 1} {
			got, _, err := eng.Query(seed)
			if err != nil {
				t.Fatal(err)
			}
			want := powerOracle(g, eng.opts.C, seed)
			var l1 float64
			for i := range got {
				l1 += math.Abs(got[i] - want[i])
			}
			if l1 > 1e-6 {
				t.Fatalf("seed %d: an accepted file answers %v off the oracle (L1)", seed, l1)
			}
		}
	})
}
