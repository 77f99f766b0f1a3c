package sparse

import (
	"math/rand"
	"strings"
	"testing"

	"bepi/internal/par"
)

// csr32Cases are the graph shapes the compact kernels must match the wide
// kernels on bit-for-bit: an RMAT-like skewed random matrix (randBigCSR
// sprinkles empty and heavy rows), a matrix that is one dense mega-row, a
// single-column matrix, and an all-empty one.
func csr32Cases() map[string]*CSR {
	cases := map[string]*CSR{
		"skewed": randBigCSR(2000, 1700, 20, 11),
		"empty":  Zero(50, 70),
	}
	coo := NewCOO(5, ParallelMinNNZ)
	for j := 0; j < ParallelMinNNZ; j++ {
		coo.Add(3, j, float64(j%17)-8)
	}
	cases["dense-row"] = coo.ToCSR()
	one := NewCOO(400, 1)
	for i := 0; i < 400; i += 3 {
		one.Add(i, 0, float64(i)*0.25-30)
	}
	cases["single-col"] = one.ToCSR()
	return cases
}

// TestCSR32BitIdentical checks every CSR32 float64 kernel against its CSR
// twin by representation (Float64bits), serially and at several worker
// counts, across the pathological shapes.
func TestCSR32BitIdentical(t *testing.T) {
	for name, m := range csr32Cases() {
		t.Run(name, func(t *testing.T) {
			rows, cols := m.Rows(), m.Cols()
			x := randVec(cols, 2)

			wantMul := make([]float64, rows)
			m.MulVec(wantMul, x)

			for _, workers := range []int{1, 3, 8} {
				c := Compact(m.Clone())
				if workers > 1 {
					c.SetPool(par.NewPool(workers))
				}

				got := make([]float64, rows)
				c.MulVec(got, x)
				if i, ok := bitsEqual(got, wantMul); !ok {
					t.Fatalf("workers=%d MulVec differs at %d: %v vs %v", workers, i, got[i], wantMul[i])
				}
			}
		})
	}
}

// TestCSR32RoundTripAndMemory: Compact is lossless (ToCSR gives an Equal
// matrix) and cuts the index footprint — 2 bytes per column index up to
// 65 536 columns and 4 past them, against CSR's 8, and 4-byte row pointers
// when nnz fits int32.
func TestCSR32RoundTripAndMemory(t *testing.T) {
	for _, m := range []*CSR{randBigCSR(1200, 900, 12, 7), randBigCSR(300, 1<<16+1, 12, 7)} {
		c := Compact(m)
		if !c.ToCSR().Equal(m) {
			t.Fatal("Compact -> ToCSR is not the identity")
		}
		width := int64(4)
		if NarrowCols(m.cols) {
			width = 2
		}
		compactIdx := c.MemoryBytes() - int64(m.NNZ())*8 // subtract shared float64 values
		if want := width*int64(m.NNZ()) + 4*int64(len(m.rowPtr)); compactIdx != want {
			t.Fatalf("%v: index bytes %d, want %d", m, compactIdx, want)
		}
		if c.MemoryBytes() >= m.MemoryBytes() {
			t.Fatalf("MemoryBytes did not shrink: %d vs %d", c.MemoryBytes(), m.MemoryBytes())
		}
	}
}

// TestNewCSR32Invariants: what the raw-slice constructors NewCSR32 and
// NewCSR32Wide refused before no caller was left for them stays refused by
// the compact builders that remain. Malformed index arrays fail the
// layout's own check — the one ReadPattern runs on what it decodes and
// PatternBuilder on what it assembled — at 32-bit and at 64-bit row
// pointers.
func TestNewCSR32Invariants(t *testing.T) {
	layout := func(rows, cols int, rowPtr []int32, col []uint32) *layout32 {
		l := &layout32{rows: rows, cols: cols, rowPtr32: rowPtr}
		if NarrowCols(cols) {
			l.col16 = make([]uint16, len(col))
			for p, j := range col {
				l.col16[p] = uint16(j)
			}
		} else {
			l.col32 = col
		}
		return l
	}
	valid := layout(2, 3, []int32{0, 1, 2}, []uint32{2, 0})
	if err := valid.validate(); err != nil {
		t.Fatalf("well-formed layout refused: %v", err)
	}
	cases := map[string]func() error{
		"rowPtr-length":     layout(2, 3, []int32{0, 2}, []uint32{0, 1}).validate,
		"rowPtr-decreasing": layout(2, 3, []int32{0, 2, 1}, []uint32{0, 1}).validate,
		"rowPtr-start":      layout(2, 3, []int32{1, 1, 2}, []uint32{0, 1}).validate,
		"col-out-of-range":  layout(2, 3, []int32{0, 1, 2}, []uint32{0, 3}).validate,
		"col-unsorted":      layout(1, 3, []int32{0, 2}, []uint32{1, 0}).validate,
		"col-duplicate":     layout(1, 3, []int32{0, 2}, []uint32{1, 1}).validate,
		"wide-tail":         (&layout32{rows: 1, cols: 2, rowPtr64: []int64{0, 3}, col16: []uint16{0, 1}}).validate,
	}
	for name, check := range cases {
		t.Run(name, func(t *testing.T) {
			if check() == nil {
				t.Fatal("malformed input accepted")
			}
		})
	}
}

// TestValidate pins the helper's verdicts on well-formed and broken inputs.
func TestValidate(t *testing.T) {
	if err := Validate(3, 4, []int{0, 1, 1, 3}, []int{2, 0, 3}); err != nil {
		t.Fatalf("valid input rejected: %v", err)
	}
	if err := Validate(0, 0, []int{0}, nil); err != nil {
		t.Fatalf("empty matrix rejected: %v", err)
	}
	bad := []struct {
		name       string
		rows, cols int
		rowPtr     []int
		col        []int
		frag       string
	}{
		{"negative-dims", -1, 4, []int{0}, nil, "negative"},
		{"short-rowPtr", 3, 4, []int{0, 1}, []int{0}, "length"},
		{"bad-start", 2, 4, []int{1, 1, 2}, []int{0, 1}, "rowPtr[0]"},
		{"decreasing", 2, 4, []int{0, 2, 1}, []int{0, 1}, "decreases"},
		{"tail-mismatch", 2, 4, []int{0, 1, 3}, []int{0, 1}, "want len(col)"},
		{"col-negative", 1, 4, []int{0, 1}, []int{-1}, "out of range"},
		{"col-too-big", 1, 4, []int{0, 1}, []int{4}, "out of range"},
	}
	for _, tc := range bad {
		t.Run(tc.name, func(t *testing.T) {
			err := Validate(tc.rows, tc.cols, tc.rowPtr, tc.col)
			if err == nil {
				t.Fatal("malformed input accepted")
			}
			if !strings.Contains(err.Error(), tc.frag) {
				t.Fatalf("error %q does not mention %q", err, tc.frag)
			}
		})
	}
}

// TestCSR32CompactPreservesPool: compaction carries the pool across.
func TestCSR32CompactPreservesPool(t *testing.T) {
	pool := par.NewPool(4)
	m := randBigCSR(300, 250, 5, 13).SetPool(pool)
	if c := Compact(m); c.pool != pool {
		t.Fatal("Compact dropped the pool")
	}
}

// TestCSR32CompactOwnsExactValues: Compact shares an exactly-sized value
// slice and copies one built with spare capacity (a sum of overlapping
// patterns is), so that what a compact matrix retains is what MemoryBytes
// counts.
func TestCSR32CompactOwnsExactValues(t *testing.T) {
	a := randBigCSR(200, 150, 6, 21).Clone() // the builder's own merge slack dropped
	if c := Compact(a); &c.val[0] != &a.val[0] {
		t.Fatal("Compact copied an exactly-sized value slice")
	}
	sum := a.Add(a)
	if cap(sum.val) == len(sum.val) {
		t.Fatal("fixture: the sum carries no spare capacity")
	}
	c := Compact(sum)
	if cap(c.val) != len(c.val) || len(c.val) != sum.NNZ() {
		t.Fatalf("compact values: len %d cap %d for %d entries", len(c.val), cap(c.val), sum.NNZ())
	}
	if !c.ToCSR().Equal(sum) {
		t.Fatal("Compact of a matrix with spare capacity is not lossless")
	}
}

func TestCSR32RandomizedAgainstCSR(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	for trial := 0; trial < 30; trial++ {
		m := randCSR(rng, 1+rng.Intn(40), 1+rng.Intn(40), rng.Float64()*0.3)
		c := Compact(m)
		if !c.ToCSR().Equal(m) {
			t.Fatalf("trial %d: round trip broke", trial)
		}
		x := randVec(m.Cols(), int64(trial))
		want := make([]float64, m.Rows())
		got := make([]float64, m.Rows())
		m.MulVec(want, x)
		c.MulVec(got, x)
		if i, ok := bitsEqual(got, want); !ok {
			t.Fatalf("trial %d: MulVec differs at %d", trial, i)
		}
	}
}
