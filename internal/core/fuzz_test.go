package core

import (
	"bytes"
	"errors"
	"testing"
)

// FuzzReadEngine checks the index deserializer on corrupt bytes: it refuses
// them with ErrCorruptIndex, or returns an engine that answers a query —
// scores or an error — within the iteration budget the loader bounds. Matrix
// values, c and tol are not cross-checked against each other on load, so
// an accepted mutant of those may serve numeric garbage; an index that
// differs from a valid one only in the other option words (variant,
// iteration budget, reserved, hub ratio) must still serve probabilities.
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
	// The option words after c and tol end where n begins.
	const optLo, optHi = 4 + 2*8, 4 + 7*8

	f.Fuzz(func(t *testing.T, data []byte) {
		eng, err := ReadEngine(bytes.NewReader(data))
		if err != nil {
			if !errors.Is(err, ErrCorruptIndex) {
				t.Fatalf("untyped error: %v", err)
			}
			return
		}
		if eng.N() < 0 {
			t.Fatal("negative n accepted")
		}
		if eng.N() == 0 {
			return
		}
		r, st, err := eng.Query(0)
		if st.Iterations > maxIterLimit {
			t.Fatalf("query ran %d iterations, the loader bounds the budget at %d", st.Iterations, maxIterLimit)
		}
		if err != nil || len(data) != len(valid) ||
			!bytes.Equal(data[:optLo], valid[:optLo]) || !bytes.Equal(data[optHi:], valid[optHi:]) {
			return
		}
		for node, v := range r {
			if !(v >= 0 && v <= 1+1e-9) {
				t.Fatalf("score[%d] = %v from an index whose matrices, c and tol are intact", node, v)
			}
		}
	})
}
