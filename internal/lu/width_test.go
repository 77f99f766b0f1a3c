package lu

import (
	"bytes"
	"math/rand"
	"testing"

	"bepi/internal/sparse"
)

// widthMatrix is an n×n matrix with a dominant diagonal, a symmetric band —
// so that the pivot recurrence has pairs to subtract — and entries in the
// last row and column, where a 16-bit index would wrap.
func widthMatrix(n int, seed int64) *sparse.CSR {
	rng := rand.New(rand.NewSource(seed))
	coo := sparse.NewCOO(n, n)
	for i := 0; i < n; i++ {
		coo.Add(i, i, 4+rng.Float64())
		if i+1 < n {
			coo.Add(i, i+1, rng.NormFloat64()*0.3)
			coo.Add(i+1, i, rng.NormFloat64()*0.3)
		}
		if i%97 == 0 && i < n-1 {
			coo.Add(i, n-1, rng.NormFloat64()*0.3)
			coo.Add(n-1, i, rng.NormFloat64()*0.3)
		}
	}
	return coo.ToCSR()
}

// TestDILUColumnWidthBoundary: DILU factors of a 65 535- and a 65 536-row
// matrix hold 16-bit columns, of a 65 537-row one 32-bit columns; at every
// width the factors reassemble their matrix exactly, the one-pass operator
// and its backward half are bit-identical to the wide reference, their bytes
// are 10 (or 12) an entry, and a save/load round trip writes the bytes the
// layout prescribes and gives back the same bytes.
func TestDILUColumnWidthBoundary(t *testing.T) {
	for _, n := range []int{1<<16 - 1, 1 << 16, 1<<16 + 1} {
		a := widthMatrix(n, int64(n))
		f, err := FactorDILU(a)
		if err != nil {
			t.Fatal(err)
		}
		narrow := n <= 1<<16
		if (f.l.col16 != nil) != narrow || (f.u.col16 != nil) != narrow {
			t.Fatalf("n=%d: 16-bit columns %t/%t, want %t", n, f.l.col16 != nil, f.u.col16 != nil, narrow)
		}
		perEntry := int64(12)
		if narrow {
			perEntry = 10
		}
		if want := perEntry*int64(a.NNZ()) + 2*4*int64(n+1) + 8*int64(n); f.MemoryBytes() != want {
			t.Fatalf("n=%d: MemoryBytes %d, want %d", n, f.MemoryBytes(), want)
		}
		if !f.Matrix().Equal(a) {
			t.Fatalf("n=%d: Matrix differs from the factored matrix", n)
		}

		rng := rand.New(rand.NewSource(3))
		d := diluPivotsRef(a)
		v := randVec(rng, n)
		op := f.Eisenstat()
		got := make([]float64, n)
		op.MulVec(got, v)
		if !bitsEqual(got, eisenstatRef(a, d, v)) {
			t.Fatalf("n=%d: Eisenstat.MulVec differs from the wide reference", n)
		}
		// Right is Û⁻¹·y, the reference's backward half.
		op.Right(got, v)
		if !bitsEqual(got, upperSolveRef(a, d, v)) {
			t.Fatalf("n=%d: Eisenstat.Right differs from the wide reference", n)
		}

		var buf bytes.Buffer
		if _, err := f.WriterTo(sameWeights(a)).WriteTo(&buf); err != nil {
			t.Fatal(err)
		}
		if want := diluFileBytes(f, sameWeights(a)); buf.Len() != want {
			t.Fatalf("n=%d: %d bytes written, want %d", n, buf.Len(), want)
		}
		back, err := ReadDILU(bytes.NewReader(buf.Bytes()), sameWeights(a))
		if err != nil {
			t.Fatalf("n=%d: %v", n, err)
		}
		requireSameFactors(t, "round trip", back, f)
		var again bytes.Buffer
		if _, err := back.WriterTo(sameWeights(a)).WriteTo(&again); err != nil || !bytes.Equal(again.Bytes(), buf.Bytes()) {
			t.Fatalf("n=%d: save → load → save changed the bytes (%v)", n, err)
		}
	}
}

// upperSolveRef is Û⁻¹·v over the wide matrix, Û = D + strict upper part of
// a: the backward sweep of eisenstatRef.
func upperSolveRef(a *sparse.CSR, d, v []float64) []float64 {
	col, val := a.ColIdx(), a.Values()
	t := make([]float64, a.Rows())
	for i := a.Rows() - 1; i >= 0; i-- {
		lo, hi := a.RowRange(i)
		s := v[i]
		for p := hi - 1; p >= lo && col[p] > i; p-- {
			s -= val[p] * t[col[p]]
		}
		t[i] = s / d[i]
	}
	return t
}
