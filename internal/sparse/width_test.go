package sparse

import (
	"bytes"
	"math/rand"
	"testing"

	"bepi/internal/par"
)

// widthCase is a random matrix of the given column count whose entries
// reach the top columns, where a 16-bit index would wrap.
func widthCase(rows, cols int, seed int64) *CSR {
	rng := rand.New(rand.NewSource(seed))
	coo := NewCOO(rows, cols)
	for i := 0; i < rows; i++ {
		for e := 0; e < 6; e++ {
			coo.Add(i, rng.Intn(cols), rng.NormFloat64())
		}
		coo.Add(i, cols-1-i%3, rng.NormFloat64())
	}
	return coo.ToCSR()
}

// TestCSR32PatternColumnWidthBoundary: at 65 535 and 65 536 columns a
// compact matrix and a pattern store 16-bit columns, at 65 537 32-bit ones;
// at every width the kernels are bit-identical to the wide CSR's, serially
// and on a pool, and a pattern's save/load round trip gives back the same
// bytes.
func TestCSR32PatternColumnWidthBoundary(t *testing.T) {
	for _, cols := range []int{1<<16 - 1, 1 << 16, 1<<16 + 1} {
		m := widthCase(6000, cols, int64(cols)) // 42 000 entries: past ParallelMinNNZ
		narrow := cols <= 1<<16
		x, w := randVec(cols, 1), randVec(cols, 2)
		wantMul := make([]float64, m.rows)
		m.MulVec(wantMul, x)
		wide := PatternOf(m).Expand(w)
		wantScaled := make([]float64, m.rows)
		wide.MulVec(wantScaled, x)

		for _, workers := range []int{1, 3} {
			c, p := Compact(m), PatternOf(m)
			if workers > 1 {
				c.SetPool(par.NewPool(workers))
				p.SetPool(par.NewPool(workers))
			}
			if (c.col16 != nil) != narrow || (p.col16 != nil) != narrow || NarrowCols(cols) != narrow {
				t.Fatalf("%d columns: 16-bit columns %t/%t, want %t", cols, c.col16 != nil, p.col16 != nil, narrow)
			}
			got := make([]float64, m.rows)
			c.MulVec(got, x)
			if i, ok := bitsEqual(got, wantMul); !ok {
				t.Fatalf("%d columns, workers=%d: MulVec differs at %d", cols, workers, i)
			}
			z := make([]float64, cols)
			p.MulVecScaled(got, z, w, x)
			if i, ok := bitsEqual(got, wantScaled); !ok {
				t.Fatalf("%d columns, workers=%d: MulVecScaled differs at %d", cols, workers, i)
			}
		}

		raw := writePattern(t, m)
		if want := patternBytes(m.rows, cols, m.NNZ()); len(raw) != want {
			t.Fatalf("%d columns: %d bytes, want %d", cols, len(raw), want)
		}
		back, err := ReadPattern(bytes.NewReader(raw))
		if err != nil {
			t.Fatalf("%d columns: %v", cols, err)
		}
		var again bytes.Buffer
		if _, err := back.WriteTo(&again); err != nil || !bytes.Equal(again.Bytes(), raw) {
			t.Fatalf("%d columns: save → load → save changed the bytes (%v)", cols, err)
		}
		if !Compact(back.Expand(w)).ToCSR().Equal(wide) || back.MemoryBytes() != PatternOf(m).MemoryBytes() {
			t.Fatalf("%d columns: loaded another pattern", cols)
		}
	}
}
