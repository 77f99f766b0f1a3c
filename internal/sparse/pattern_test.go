package sparse

import (
	"bytes"
	"testing"

	"bepi/internal/par"
)

// TestPatternScaledBitIdentical: the value-free kernel on a pattern and its
// weights equals, by Float64bits, CSR32.MulVec on the expanded matrix,
// serially and on a 4-worker pool, over the shapes of csr32Cases, and
// MulVecScaled leaves w∘x in z for a second gather.
func TestPatternScaledBitIdentical(t *testing.T) {
	for name, m := range csr32Cases() {
		t.Run(name, func(t *testing.T) {
			rows, cols := m.Rows(), m.Cols()
			w := randVec(cols, 5)
			x := randVec(cols, 2)
			wide := PatternOf(m).Expand(w)
			wantMul := make([]float64, rows)
			Compact(wide).MulVec(wantMul, x)

			for _, workers := range []int{1, 4} {
				p := PatternOf(m)
				if workers > 1 {
					p.SetPool(par.NewPool(workers))
				}
				got, z := make([]float64, rows), make([]float64, cols)
				p.MulVecScaled(got, z, w, x)
				if i, ok := bitsEqual(got, wantMul); !ok {
					t.Fatalf("workers=%d MulVecScaled differs at %d: %v vs %v", workers, i, got[i], wantMul[i])
				}
				again := make([]float64, rows)
				p.MulVec(again, z)
				if i, ok := bitsEqual(again, wantMul); !ok {
					t.Fatalf("workers=%d MulVec over the scaled z differs at %d", workers, i)
				}
			}
		})
	}
}

// TestPatternRoundTrip: a pattern is written in the widths it holds,
// ReadPattern gives it back exactly, and it occupies CSR32's bytes less 8
// per entry.
func TestPatternRoundTrip(t *testing.T) {
	m := randBigCSR(900, 700, 40, 45)
	p := PatternOf(m)
	w := randVec(m.Cols(), 6)
	var buf bytes.Buffer
	if n, err := p.WriteTo(&buf); err != nil || n != int64(buf.Len()) {
		t.Fatalf("WriteTo = %d, %v; wrote %d", n, err, buf.Len())
	}
	if want := patternBytes(m.rows, m.cols, m.NNZ()); buf.Len() != want {
		t.Errorf("%d bytes, want %d", buf.Len(), want)
	}
	back, err := ReadPattern(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	valued := Compact(p.Expand(w))
	if !back.Expand(w).Equal(valued.ToCSR()) {
		t.Error("read back another pattern")
	}
	if got, want := back.MemoryBytes(), valued.MemoryBytes()-8*int64(m.NNZ()); got != want {
		t.Errorf("pattern occupies %d B, want %d", got, want)
	}
}
