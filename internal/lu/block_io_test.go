package lu

import (
	"bytes"
	"math/rand"
	"testing"
)

func TestBlockLUSerializationRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	for trial := 0; trial < 8; trial++ {
		m, sizes := randBlockDiag(rng, 1+rng.Intn(6), 7)
		f, err := FactorBlockDiag(m, sizes)
		if err != nil {
			t.Fatal(err)
		}
		var buf bytes.Buffer
		if _, err := f.WriteTo(&buf); err != nil {
			t.Fatal(err)
		}
		back, err := ReadBlockLU(&buf)
		if err != nil {
			t.Fatal(err)
		}
		if back.N() != f.N() || back.NumBlocks() != f.NumBlocks() {
			t.Fatal("shape lost in round trip")
		}
		// Both must solve identically.
		n := f.N()
		x := make([]float64, n)
		for i := range x {
			x[i] = rng.NormFloat64()
		}
		y := make([]float64, n)
		copy(y, x)
		f.Solve(x)
		back.Solve(y)
		for i := range x {
			if x[i] != y[i] {
				t.Fatalf("trial %d: reloaded factors solve differently", trial)
			}
		}
	}
}

func TestReadBlockLURejectsGarbage(t *testing.T) {
	if _, err := ReadBlockLU(bytes.NewReader([]byte("nope"))); err == nil {
		t.Fatal("expected error for short input")
	}
	if _, err := ReadBlockLU(bytes.NewReader([]byte{1, 2, 3, 4, 0, 0, 0, 0, 0, 0, 0, 0})); err == nil {
		t.Fatal("expected error for bad magic")
	}
}

func TestReadBlockLURejectsTruncated(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	m, sizes := randBlockDiag(rng, 4, 6)
	f, err := FactorBlockDiag(m, sizes)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if _, err := f.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	raw := buf.Bytes()
	for _, cut := range []int{5, len(raw) / 2, len(raw) - 3} {
		if _, err := ReadBlockLU(bytes.NewReader(raw[:cut])); err == nil {
			t.Fatalf("expected error for cut at %d", cut)
		}
	}
}
