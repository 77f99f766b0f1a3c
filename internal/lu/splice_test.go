package lu

import (
	"bytes"
	"fmt"
	"math"
	"math/rand"
	"slices"
	"strings"
	"testing"

	"bepi/internal/par"
	"bepi/internal/sparse"
)

// spliceCol is one column of a matrix: its rows ascending, with values.
type spliceCol struct {
	rows []uint32
	vals []float64
}

// colMatrix is a square matrix held as its columns.
type colMatrix []spliceCol

func (m colMatrix) visit(emit func(j int, rows []uint32, vals []float64)) {
	for j, c := range m {
		emit(j, c.rows, c.vals)
	}
}

func (m colMatrix) nnz() int {
	n := 0
	for _, c := range m {
		n += len(c.rows)
	}
	return n
}

// factors is the DILU factorization of m the way preprocessing builds it.
func (m colMatrix) factors(t *testing.T) *ILU {
	t.Helper()
	tri, err := columnTriangles(len(m), m.visit)
	if err == nil {
		err = tri.checkDiagonal()
	}
	if err != nil {
		t.Fatal(err)
	}
	return FactorTriangles(tri)
}

// patched returns m with the columns in repl replaced, and repl as the
// columns SpliceColumns takes, ascending.
func (m colMatrix) patched(repl map[int]spliceCol) (colMatrix, sparse.Columns) {
	out := slices.Clone(m)
	cols := make([]int, 0, len(repl))
	for j, c := range repl {
		out[j] = c
		cols = append(cols, j)
	}
	slices.Sort(cols)
	return out, func(emit func(j int, rows []uint32, vals []float64)) {
		for _, j := range cols {
			emit(j, repl[j].rows, repl[j].vals)
		}
	}
}

// column builds a column of n rows holding the diagonal entry d and the
// off-diagonal rows given, deduplicated and sorted, each with a value from
// rng; skip rows are left out.
func column(rng *rand.Rand, n, j int, d float64, rows []int, skip func(i int) bool) spliceCol {
	set := []int{j}
	for _, i := range rows {
		if i = ((i % n) + n) % n; i != j && !skip(i) && !slices.Contains(set, i) {
			set = append(set, i)
		}
	}
	slices.Sort(set)
	c := spliceCol{}
	for _, i := range set {
		v := d
		if i != j {
			v = -rng.Float64() / 4
		}
		c.rows = append(c.rows, uint32(i))
		c.vals = append(c.vals, v)
	}
	return c
}

// spliceBase is an n×n matrix of a few entries per column in which row
// quiet = n/2 holds its diagonal alone — an empty row of both triangles —
// and column 1 holds an explicit zero.
func spliceBase(n int, seed int64) colMatrix {
	rng := rand.New(rand.NewSource(seed))
	quiet := n / 2
	m := make(colMatrix, n)
	for j := range m {
		m[j] = column(rng, n, j, 4+rng.Float64(), []int{j*7919 + 13, j*31 + 7, j + 1, j - 2},
			func(i int) bool { return i == quiet })
	}
	if n > 2 && len(m[1].vals) > 1 {
		m[1].vals[len(m[1].vals)-1] = 0
	}
	return m
}

// requireSplicedEqual checks the splice of repl into base's factors against
// the factors of the patched matrix built from scratch: every array by
// Float64bits, and the bytes they are written as.
func requireSplicedEqual(t *testing.T, tag string, base colMatrix, repl map[int]spliceCol) {
	t.Helper()
	f := base.factors(t)
	before := new(bytes.Buffer)
	if _, err := f.WriterTo(zeroWeights(f)).WriteTo(before); err != nil {
		t.Fatal(err)
	}
	want, cols := base.patched(repl)
	tri, err := f.SpliceColumns(cols)
	if err != nil {
		t.Fatalf("%s: %v", tag, err)
	}
	got := FactorTriangles(tri)
	ref := want.factors(t)
	requireSameFactors(t, tag, got, ref)
	var gb, wb bytes.Buffer
	if _, err := got.WriterTo(zeroWeights(got)).WriteTo(&gb); err != nil {
		t.Fatal(err)
	}
	if _, err := ref.WriterTo(zeroWeights(ref)).WriteTo(&wb); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(gb.Bytes(), wb.Bytes()) {
		t.Fatalf("%s: the spliced factors write %d bytes unlike the reference's %d", tag, gb.Len(), wb.Len())
	}
	var after bytes.Buffer
	if _, err := f.WriterTo(zeroWeights(f)).WriteTo(&after); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(before.Bytes(), after.Bytes()) {
		t.Fatalf("%s: the splice modified its receiver", tag)
	}
}

// TestDILUSpliceColumns: splicing new columns into the factors of a matrix
// gives, bit for bit and byte for byte written, the factors preprocessing
// builds of the patched matrix (columnTriangles, FactorTriangles) —
// at 16-bit (n ≤ 65 536) and 32-bit columns. The cases: the first and last
// column; a column reduced to its diagonal; columns that bring entries into
// a row whose strict lower and strict upper parts were empty; an explicit
// zero in a new column, kept, beside the old one kept in an untouched
// column; and every column replaced. Random matrices and column sets cover
// the small sizes.
func TestDILUSpliceColumns(t *testing.T) {
	for _, n := range []int{5, 9, 65536, 65537} {
		base := spliceBase(n, int64(n))
		rng := rand.New(rand.NewSource(int64(n) + 1))
		quiet := n / 2
		fresh := func(j int, rows ...int) spliceCol {
			return column(rng, n, j, 2+rng.Float64(), rows, func(int) bool { return false })
		}
		withZero := fresh(n/4, n/4+1, n/4+3)
		withZero.vals[len(withZero.vals)-1] = 0
		every := map[int]spliceCol{}
		for j := range n {
			every[j] = fresh(j, j*17+3, j*101+11)
		}
		for name, repl := range map[string]map[int]spliceCol{
			"first and last": {0: fresh(0, 5, n-1), n - 1: fresh(n-1, 0, 3)},
			"to diagonal":    {n / 3: fresh(n / 3)},
			"into empty rows": {
				quiet - 2: fresh(quiet-2, quiet, quiet-1),
				quiet + 2: fresh(quiet+2, quiet),
			},
			"kept zero": {n / 4: withZero},
			"every":     every,
		} {
			requireSplicedEqual(t, fmt.Sprintf("n=%d %s", n, name), base, repl)
		}
	}

	rng := rand.New(rand.NewSource(61))
	for trial := range 200 {
		n := 1 + rng.Intn(40)
		base := make(colMatrix, n)
		for j := range base {
			base[j] = column(rng, n, j, 3+rng.Float64(), []int{rng.Intn(n), rng.Intn(n), rng.Intn(n)}, func(int) bool { return false })
		}
		repl := map[int]spliceCol{}
		for range 1 + rng.Intn(n) {
			j := rng.Intn(n)
			var rows []int
			for range rng.Intn(n) {
				rows = append(rows, rng.Intn(n))
			}
			repl[j] = column(rng, n, j, 1+rng.Float64(), rows, func(int) bool { return false })
		}
		requireSplicedEqual(t, fmt.Sprintf("trial %d n=%d", trial, n), base, repl)
	}
}

// TestDILUSpliceRefuses: a replaced column without its diagonal entry is
// refused, as a TriangleBuilder refuses it; columns out of order panic.
func TestDILUSpliceRefuses(t *testing.T) {
	f := spliceBase(9, 1).factors(t)
	noDiag := func(emit func(int, []uint32, []float64)) {
		emit(4, []uint32{1, 7}, []float64{-0.5, -0.25})
	}
	if _, err := f.SpliceColumns(noDiag); err == nil || !strings.Contains(err.Error(), "missing diagonal at row 4") {
		t.Fatalf("a replaced column without its diagonal: err = %v", err)
	}
	defer func() {
		if recover() == nil {
			t.Fatal("columns out of order were accepted")
		}
	}()
	f.SpliceColumns(func(emit func(int, []uint32, []float64)) {
		emit(5, []uint32{5}, []float64{1})
		emit(3, []uint32{3}, []float64{1})
	})
}

// TestDILUMulVec: S·x read off the factors is the product of the matrix
// they hold, and bit-identical at one worker and at four, where the rows
// split by entry count — at both column widths.
func TestDILUMulVec(t *testing.T) {
	for _, n := range []int{9, 65536, 65537} {
		m := spliceBase(n, int64(n)+7)
		f := m.factors(t)
		if n > 9 && f.NNZ() < sparse.ParallelMinNNZ {
			t.Fatalf("n=%d: %d entries stay below the parallel threshold", n, f.NNZ())
		}
		x := make([]float64, n)
		for i := range x {
			x[i] = 1 + float64(i%13)/7
		}
		want := make([]float64, n)
		f.Matrix().MulVec(want, x)
		serial := make([]float64, n)
		f.SetPool(nil).MulVec(serial, x)
		for i := range want {
			if d := math.Abs(serial[i] - want[i]); d > 1e-14*(1+math.Abs(want[i])) {
				t.Fatalf("n=%d: (S·x)[%d] = %v, the matrix gives %v", n, i, serial[i], want[i])
			}
		}
		pooled := make([]float64, n)
		f.SetPool(par.NewPool(4)).MulVec(pooled, x)
		if !bitsEqual(pooled, serial) {
			t.Fatalf("n=%d: S·x on four workers differs from the serial product", n)
		}
	}
}
