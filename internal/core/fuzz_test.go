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
// re-saves to itself in its own format version (3, or 2 through v2Bytes)
// and its answers pass the power-iteration oracle of the fixture's graph.
// Version-1 files carry no checksums; an accepted one must answer a query —
// scores or an error — within the iteration budget the loader bounds, and,
// if it differs from the valid file only in the option words after c and
// tol, serve probabilities.
func FuzzReadEngine(f *testing.F) {
	valid, corrupt := corruptIndexes(f)
	v1 := v1Fixture(f)
	f.Add(valid)
	f.Add(valid[:len(valid)/3])
	f.Add([]byte{})
	tail := append([]byte(nil), valid...)
	tail[len(tail)-9] ^= 0x7F
	f.Add(tail)
	f.Add(v1)
	for _, raw := range corrupt {
		f.Add(raw)
	}
	v2 := v2Fixture(f)
	f.Add(v2)
	f.Add(v2[:len(v2)/2])
	for _, raw := range v2Mutants(f) {
		f.Add(raw)
	}
	g := corruptFixture()
	// In a version-1 file the option words after c and tol end where n
	// begins.
	const optLo, optHi = 4 + 2*8, 4 + 7*8

	f.Fuzz(func(t *testing.T, data []byte) {
		eng, err := ReadEngine(bytes.NewReader(data))
		if err != nil {
			if !errors.Is(err, ErrCorruptIndex) && !errors.Is(err, ErrIndexVersion) {
				t.Fatalf("untyped error: %v", err)
			}
			return
		}
		if binary.LittleEndian.Uint32(data) == indexMagicV1 {
			if eng.N() == 0 {
				return
			}
			r, st, err := eng.Query(0)
			if st.Iterations > maxIterLimit {
				t.Fatalf("query ran %d iterations, the loader bounds the budget at %d", st.Iterations, maxIterLimit)
			}
			if err != nil || len(data) != len(v1) ||
				!bytes.Equal(data[:optLo], v1[:optLo]) || !bytes.Equal(data[optHi:], v1[optHi:]) {
				return
			}
			for node, v := range r {
				if !(v >= 0 && v <= 1+1e-9) {
					t.Fatalf("score[%d] = %v from an index whose matrices, c and tol are intact", node, v)
				}
			}
			return
		}
		var again []byte
		if binary.LittleEndian.Uint32(data[4:]) == 2 {
			again = v2Bytes(t, eng)
		} else {
			_, again = saveHash(t, eng)
		}
		if !bytes.Equal(again, data) {
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
