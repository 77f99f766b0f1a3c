package lu

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"math"
	"math/rand"
	"slices"
	"sync"
	"testing"

	"bepi/internal/sparse"
)

// randSparseDiag builds a random square matrix with a guaranteed dominant
// diagonal and roughly nnzPerRow off-diagonal entries per row.
func randSparseDiag(n, nnzPerRow int, seed int64) *sparse.CSR {
	rng := rand.New(rand.NewSource(seed))
	coo := sparse.NewCOO(n, n)
	for i := 0; i < n; i++ {
		coo.Add(i, i, 4+rng.Float64())
		for e := 0; e < nnzPerRow; e++ {
			if j := rng.Intn(n); j != i {
				coo.Add(i, j, rng.NormFloat64()*0.3)
			}
		}
	}
	return coo.ToCSR()
}

// randSparseCSR builds a random square matrix with a full diagonal — the
// shape the factorizations accept — including occasional explicit zeros,
// which the Schur build's cancellation produces and the factor pattern must
// keep.
func randSparseCSR(rng *rand.Rand, n int, density float64) *sparse.CSR {
	a := sparse.NewCOO(n, n)
	for i := 0; i < n; i++ {
		a.Add(i, i, 3+rng.Float64())
		for j := 0; j < n; j++ {
			if j != i && rng.Float64() < density {
				v := rng.NormFloat64()
				if rng.Float64() < 0.05 {
					v = 0
				}
				a.Add(i, j, v)
			}
		}
	}
	return a.ToCSR()
}

func randVec(rng *rand.Rand, n int) []float64 {
	v := make([]float64, n)
	for i := range v {
		v[i] = rng.NormFloat64()
	}
	return v
}

func maxAbs(v []float64) float64 {
	var m float64
	for _, x := range v {
		if a := math.Abs(x); a > m {
			m = a
		}
	}
	return m
}

func bitsEqual(a, b []float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if math.Float64bits(a[i]) != math.Float64bits(b[i]) {
			return false
		}
	}
	return true
}

// diluPivotsRef is the DILU recurrence written the slow way: every a_ki is
// looked up with At, no cursors.
func diluPivotsRef(a *sparse.CSR) []float64 {
	n := a.Rows()
	d := make([]float64, n)
	for i := 0; i < n; i++ {
		d[i] = a.At(i, i)
		s, e := a.RowRange(i)
		for p := s; p < e; p++ {
			k := a.ColIdx()[p]
			if k >= i {
				break
			}
			if hasEntry(a, k, i) {
				d[i] -= a.Values()[p] * a.At(k, i) / d[k]
			}
		}
		if d[i] == 0 {
			d[i] = 1e-12
		}
	}
	return d
}

func hasEntry(m *sparse.CSR, i, j int) bool {
	s, e := m.RowRange(i)
	for p := s; p < e; p++ {
		if m.ColIdx()[p] == j {
			return true
		}
	}
	return false
}

// TestDILUFactorization checks FactorDILU against its definition on random
// patterns (explicit zeros included), a matrix whose recurrence drives a
// pivot to exactly zero, and the trivial sizes: pivots equal the slow
// recurrence bit for bit, the strict triangles are the input's own bits,
// diag(L̂·D⁻¹·Û) reproduces diag(A), D_S is diag(A)'s own bits, the stored
// entry count is the input's, the input is untouched and nothing is
// over-allocated.
func TestDILUFactorization(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	mats := []*sparse.CSR{
		sparse.Zero(0, 0),
		sparse.Identity(1),
		// Row 1's pivot is 2 − 2·1/1 = 0, which row 2 divides by.
		sparse.FromDense([][]float64{{1, 1, 0}, {2, 2, 1}, {0, 3, 1}}),
	}
	for trial := 0; trial < 40; trial++ {
		mats = append(mats, randSparseCSR(rng, 1+rng.Intn(60), rng.Float64()*0.3))
	}
	for mi, a := range mats {
		before := a.Clone()
		f, err := FactorDILU(a)
		if err != nil {
			t.Fatal(err)
		}
		if !a.Equal(before) {
			t.Fatalf("matrix %d: FactorDILU modified its input", mi)
		}
		n := a.Rows()
		if f.N() != n || f.NNZ() != a.NNZ() {
			t.Fatalf("matrix %d: factor is %d rows / %d entries, input %d / %d", mi, f.N(), f.NNZ(), n, a.NNZ())
		}
		for _, tf := range []*triFactor{&f.l, &f.u} {
			if cap(tf.col16) != len(tf.col16) || cap(tf.col32) != len(tf.col32) || cap(tf.val) != len(tf.val) {
				t.Fatalf("matrix %d: factor arrays over-allocated", mi)
			}
		}
		want := diluPivotsRef(a)
		l, u := f.Split()
		prod := f.Product()
		for i := 0; i < n; i++ {
			d := u.At(i, i)
			if math.Float64bits(d) != math.Float64bits(want[i]) || l.At(i, i) != d {
				t.Fatalf("matrix %d: pivot %d = %v (L̂ holds %v), recurrence gives %v", mi, i, d, l.At(i, i), want[i])
			}
			if math.Float64bits(f.ds[i]) != math.Float64bits(a.At(i, i)) {
				t.Fatalf("matrix %d: D_S[%d] = %v, A has %v", mi, i, f.ds[i], a.At(i, i))
			}
			if mi > 2 {
				if got := prod.At(i, i); math.Abs(got-a.At(i, i)) > 1e-13*math.Abs(a.At(i, i)) {
					t.Fatalf("matrix %d: diag(L̂·D⁻¹·Û)[%d] = %v, A has %v", mi, i, got, a.At(i, i))
				}
			}
			s, e := a.RowRange(i)
			for p := s; p < e; p++ {
				j := a.ColIdx()[p]
				tri := l
				if j > i {
					tri = u
				}
				if j != i && (!hasEntry(tri, i, j) || math.Float64bits(tri.At(i, j)) != math.Float64bits(a.Values()[p])) {
					t.Fatalf("matrix %d: factor entry (%d,%d) is not A's own", mi, i, j)
				}
			}
		}
		if l.NNZ()+u.NNZ() != a.NNZ()+n {
			t.Fatalf("matrix %d: factors hold entries outside A's pattern", mi)
		}
	}
	if f, err := FactorDILU(mats[2]); err != nil || f.u.val[f.u.rowPtr[1]] != 1e-12 {
		t.Fatalf("zero pivot not replaced by the epsilon: %v", err)
	}
}

// TestDILUStoresMatrixOnce: the factors are their matrix stored once.
// Matrix gives FactorDILU's input back — same pattern (explicit zeros
// kept), same values by Float64bits, including a diagonal the pivot
// recurrence replaced — and the encoder of WriterTo writes it in the
// factors' layout, 2 bytes an entry and a bit, 8 a row, 8 a pivot and 8 a
// value that is not its column's weight, which ReadDILU turns back into the
// same factors bit for bit, across several chunks of the codec — unless a
// diagonal entry or a pivot is a value no index's S has (−0, or a pivot
// the recurrence drove negative here), which ReadDILU refuses. Each matrix
// is written twice: under zero weights, which mark the +0 entries, and
// under weights that mark many entries (sameWeights). ILU(0) factors, which
// overwrite their matrix, refuse both calls.
func TestDILUStoresMatrixOnce(t *testing.T) {
	rng := rand.New(rand.NewSource(53))
	mats := []*sparse.CSR{
		sparse.Zero(0, 0),
		sparse.Identity(1),
		sparse.FromDense([][]float64{{1, 1, 0}, {2, 2, 1}, {0, 3, 1}}),
		sparse.NewCSR(2, 2, []int{0, 2, 4}, []int{0, 1, 0, 1}, []float64{math.Copysign(0, -1), 2, 3, 1e-300}),
		sparse.NewCSR(2, 2, []int{0, 2, 4}, []int{0, 1, 0, 1}, []float64{1e-300, math.Copysign(0, -1), 3, 5e-324}),
		randSparseDiag(4000, 9, 17), // 300 KB of columns: chunk boundaries fall inside rows
	}
	for trial := 0; trial < 40; trial++ {
		mats = append(mats, randSparseCSR(rng, 1+rng.Intn(60), rng.Float64()*0.3))
	}
	for mi, a := range mats {
		f, err := FactorDILU(a)
		if err != nil {
			t.Fatal(err)
		}
		m := f.Matrix()
		if m.Rows() != a.Rows() || m.Cols() != a.Cols() ||
			!slices.Equal(m.RowPtr(), a.RowPtr()) || !slices.Equal(m.ColIdx(), a.ColIdx()) {
			t.Fatalf("matrix %d: reassembled pattern differs from the input's", mi)
		}
		if !bitsEqual(m.Values(), a.Values()) {
			t.Fatalf("matrix %d: reassembled values differ from the input's", mi)
		}
		loadable := !slices.ContainsFunc(f.ds, func(d float64) bool { return !(d > 0) }) &&
			!slices.ContainsFunc(pivotsOf(f), func(d float64) bool { return !(d > 0 && d <= math.MaxFloat64) })
		for name, w := range map[string][]float64{"zero weights": zeroWeights(f), "same weights": sameWeights(a)} {
			tag := fmt.Sprintf("matrix %d, %s", mi, name)
			var buf bytes.Buffer
			n, err := f.WriterTo(w).WriteTo(&buf)
			if err != nil || n != int64(buf.Len()) {
				t.Fatalf("%s: WriteTo = %d, %v; wrote %d", tag, n, err, buf.Len())
			}
			if want := diluFileBytes(f, w); buf.Len() != want {
				t.Fatalf("%s: %d bytes, want %d", tag, buf.Len(), want)
			}
			back, err := ReadDILU(bytes.NewReader(buf.Bytes()), w)
			if !loadable {
				if err == nil {
					t.Fatalf("%s: ReadDILU accepted the diagonal %v, pivots %v", tag, f.ds, pivotsOf(f))
				}
				continue
			}
			if err != nil {
				t.Fatalf("%s: %v", tag, err)
			}
			requireSameFactors(t, tag, back, f)
		}
	}
	f, err := FactorILU0(sparse.Identity(3))
	if err != nil {
		t.Fatal(err)
	}
	for name, call := range map[string]func(){"Matrix": func() { f.Matrix() }, "WriterTo": func() { f.WriterTo(make([]float64, 3)) }} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s over ILU(0) factors should panic", name)
				}
			}()
			call()
		}()
	}
}

// zeroWeights is a weight of 0 for each of f's columns.
func zeroWeights(f *ILU) []float64 { return make([]float64, f.N()) }

// sameWeights gives each column of a the value of its last off-diagonal
// entry in row order, which marks it and every other entry of the column
// with those Float64bits.
func sameWeights(a *sparse.CSR) []float64 {
	w := make([]float64, a.Cols())
	col, val := a.ColIdx(), a.Values()
	for i := 0; i < a.Rows(); i++ {
		lo, hi := a.RowRange(i)
		for p := lo; p < hi; p++ {
			if col[p] != i {
				w[col[p]] = val[p]
			}
		}
	}
	return w
}

// pivotsOf returns the pivots f holds at the leads of Û's rows.
func pivotsOf(f *ILU) []float64 {
	d := make([]float64, f.n)
	for i := range d {
		d[i] = f.u.val[f.u.rowPtr[i]]
	}
	return d
}

// diluFileBytes is the length of f's encoding under weights, from the
// layout: the header, both row-pointer arrays, a column and a bit per entry
// (each bitmap padded to a byte), a value per entry off the leads whose
// Float64bits are not its column's weight and per lead, and the pivots.
func diluFileBytes(f *ILU, weights []float64) int {
	colBytes := 2
	if !sparse.NarrowCols(f.n) {
		colBytes = 4
	}
	m := f.Matrix()
	col, val := m.ColIdx(), m.Values()
	written := 0
	for i := 0; i < f.n; i++ {
		lo, hi := m.RowRange(i)
		for p := lo; p < hi; p++ {
			if col[p] == i || math.Float64bits(val[p]) != math.Float64bits(weights[col[p]]) {
				written++
			}
		}
	}
	return 24 + 8*(f.n+1) + colBytes*m.NNZ() + (f.l.nnz()+7)/8 + (f.u.nnz()+7)/8 + 8*written + 8*f.n
}

// requireSameFactors fails unless got holds want's arrays exactly: pattern,
// values and pivots by Float64bits, D_S, and MemoryBytes.
func requireSameFactors(t *testing.T, tag string, got, want *ILU) {
	t.Helper()
	for name, pair := range map[string][2]*triFactor{"L": {&got.l, &want.l}, "U": {&got.u, &want.u}} {
		g, w := pair[0], pair[1]
		if !slices.Equal(g.rowPtr, w.rowPtr) || !slices.Equal(g.col16, w.col16) || !slices.Equal(g.col32, w.col32) || !bitsEqual(g.val, w.val) {
			t.Fatalf("%s: %s factor differs", tag, name)
		}
	}
	if got.n != want.n || !bitsEqual(got.ds, want.ds) || got.MemoryBytes() != want.MemoryBytes() {
		t.Fatalf("%s: D_S or size differs", tag)
	}
}

// TestReadDILURejectsCorruptTriangles: a written factorization with one
// index word overwritten — lengths kept consistent — is refused by the
// triangle check, never turned into factors a sweep would read out of
// bounds or out of order; one with a bit of its bitmaps or a pivot
// overwritten by the bitmap and pivot checks; a truncated one by the
// reader.
func TestReadDILURejectsCorruptTriangles(t *testing.T) {
	f, err := FactorDILU(sparse.FromDense([][]float64{{4, 1, 0}, {2, 4, 1}, {0, 3, 4}}))
	if err != nil {
		t.Fatal(err)
	}
	w := zeroWeights(f)
	var buf bytes.Buffer
	if _, err := f.WriterTo(w).WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	valid := buf.Bytes()
	if _, err := ReadDILU(bytes.NewReader(valid), w); err != nil {
		t.Fatal(err)
	}
	// L: rowPtr [0 0 1 2] at 24, uint16 col [0 1] at 40; U: rowPtr
	// [0 2 4 5] at 44, col [0 1 1 2 2] at 60; one bitmap byte each at 70
	// and 71, all clear; the 7 values at 72; the pivots at 128.
	const lPtr, lCol, uPtr, uCol, lBits, uBits, pivots = 24, 40, 44, 60, 70, 71, 128
	if len(valid) != pivots+3*8 {
		t.Fatalf("fixture: %d bytes, want %d", len(valid), pivots+3*8)
	}
	for name, w := range map[string]struct {
		off   int
		v     uint64
		width int // bytes overwritten, little-endian
	}{
		"L column on the diagonal": {lCol, 1, 2},
		"L column above":           {lCol + 2, 2, 2},
		"L rowPtr does not start":  {lPtr, 1, 4},
		"L rowPtr runs past":       {lPtr + 4, 3, 4},
		"U row leads off-diagonal": {uCol + 2*2, 2, 2},
		"U column out of range":    {uCol + 2, 3, 2},
		"U empty row":              {uPtr + 4, 0, 4},
		"U rowPtr negative":        {uPtr + 8, 1 << 31, 4},
		"L padding bit set":        {lBits, 1 << 2, 1},
		"U lead bit set":           {uBits, 1 << 2, 1}, // U entry 2 leads row 1
		"L value its weight":       {pivots - 7*8, 0, 8},
		"pivot 0":                  {pivots + 8, 0, 8},
		"pivot -1":                 {pivots + 8, math.Float64bits(-1), 8},
		"pivot NaN":                {pivots + 8, math.Float64bits(math.NaN()), 8},
		"pivot +Inf":               {pivots + 8, math.Float64bits(math.Inf(1)), 8},
	} {
		raw := append([]byte(nil), valid...)
		var word [8]byte
		binary.LittleEndian.PutUint64(word[:], w.v)
		copy(raw[w.off:w.off+w.width], word[:])
		if _, err := ReadDILU(bytes.NewReader(raw), zeroWeights(f)); err == nil {
			t.Errorf("%s: accepted", name)
		}
	}
	if _, err := ReadDILU(bytes.NewReader(valid[:len(valid)-1]), w); err == nil {
		t.Error("truncated factors accepted")
	}
	if _, err := ReadDILU(bytes.NewReader(valid), make([]float64, 2)); err == nil {
		t.Error("factors of 3 rows accepted with 2 column weights")
	}
}

func TestDILURejectsBadInput(t *testing.T) {
	coo := sparse.NewCOO(2, 2)
	coo.Add(0, 1, 1)
	coo.Add(1, 0, 1)
	if _, err := FactorDILU(coo.ToCSR()); err == nil {
		t.Fatal("expected error for missing diagonal")
	}
	if _, err := FactorDILU(sparse.Zero(2, 3)); err == nil {
		t.Fatal("expected error for a non-square matrix")
	}
	f, err := FactorILU0(sparse.Identity(3))
	if err != nil {
		t.Fatal(err)
	}
	defer func() {
		if recover() == nil {
			t.Fatal("Eisenstat over ILU(0) factors should panic")
		}
	}()
	f.Eisenstat()
}

// TestDILUApplyIsInverseOfProduct: Apply is M⁻¹ for M = L̂·D⁻¹·Û, aliased or
// not, and agrees with the split solve's two half-passes composed.
func TestDILUApplyIsInverseOfProduct(t *testing.T) {
	rng := rand.New(rand.NewSource(43))
	for _, n := range []int{1, 7, 40, 120} {
		a := randSparseCSR(rng, n, 0.12)
		f, err := FactorDILU(a)
		if err != nil {
			t.Fatal(err)
		}
		x := randVec(rng, n)
		b := make([]float64, n)
		f.Product().MulVec(b, x)
		got := make([]float64, n)
		f.Apply(got, b)
		for i := range got {
			if math.Abs(got[i]-x[i]) > 1e-10*(1+maxAbs(x)) {
				t.Fatalf("n=%d: Apply(M·x)[%d] = %v want %v", n, i, got[i], x[i])
			}
		}
		op := f.Eisenstat()
		half := make([]float64, n)
		op.Left(half, b)
		op.Right(half, half)
		for i := range half {
			if math.Abs(half[i]-got[i]) > 1e-12*(1+maxAbs(got)) {
				t.Fatalf("n=%d: Right(Left(b))[%d] = %v, Apply gives %v", n, i, half[i], got[i])
			}
		}
		f.Apply(b, b)
		if !bitsEqual(b, got) {
			t.Fatalf("n=%d: in-place Apply differs", n)
		}
	}
}

// TestEisenstatMatchesComposedOperator: the one-pass product equals
// D·L̂⁻¹·(A·(Û⁻¹·v)) computed the long way with an explicit product by A,
// to 1e-12 relative; it agrees bit for bit with eisenstatRef, which reads a
// stored K = 2D − diag(A) as the operator did before K was formed per row;
// and the half-passes tolerate aliasing.
// eisenstatRef is Â·v over the wide matrix itself with K = 2D − diag(A)
// computed up front and stored: the arithmetic of Eisenstat.MulVec, entry
// for entry, with none of its layout.
func eisenstatRef(a *sparse.CSR, d, v []float64) []float64 {
	n := a.Rows()
	k := make([]float64, n)
	for i := range k {
		k[i] = 2*d[i] - a.At(i, i)
	}
	col, val := a.ColIdx(), a.Values()
	t := make([]float64, n)
	for i := n - 1; i >= 0; i-- {
		lo, hi := a.RowRange(i)
		s := v[i]
		for p := hi - 1; p >= lo && col[p] > i; p-- {
			s -= val[p] * t[col[p]]
		}
		t[i] = s / d[i]
	}
	dst := make([]float64, n)
	for i := 0; i < n; i++ {
		lo, hi := a.RowRange(i)
		ti := t[i]
		s := v[i] - k[i]*ti
		for p := lo; p < hi && col[p] < i; p++ {
			s -= val[p] * t[col[p]]
		}
		dst[i] = d[i]*ti + s
		t[i] = s / d[i]
	}
	return dst
}

func TestEisenstatMatchesComposedOperator(t *testing.T) {
	rng := rand.New(rand.NewSource(47))
	for _, a := range []*sparse.CSR{
		sparse.Identity(1),
		randSparseCSR(rng, 9, 0.3),
		randSparseCSR(rng, 150, 0.08),
		randSparseDiag(3000, 8, 5),
	} {
		n := a.Rows()
		f, err := FactorDILU(a)
		if err != nil {
			t.Fatal(err)
		}
		op := f.Eisenstat()
		v := randVec(rng, n)
		got := make([]float64, n)
		op.MulVec(got, v)

		tmp := make([]float64, n)
		op.Right(tmp, v)
		av := make([]float64, n)
		a.MulVec(av, tmp)
		want := make([]float64, n)
		op.Left(want, av)
		scale := maxAbs(want)
		for i := range got {
			if math.Abs(got[i]-want[i]) > 1e-12*scale {
				t.Fatalf("n=%d: (Â·v)[%d] = %v, composed %v", n, i, got[i], want[i])
			}
		}

		if ref := eisenstatRef(a, diluPivotsRef(a), v); !bitsEqual(got, ref) {
			t.Fatalf("n=%d: one-pass product differs from the stored-K reference", n)
		}
		alias := append([]float64(nil), av...)
		op.Left(alias, alias)
		if !bitsEqual(alias, want) {
			t.Fatalf("n=%d: aliased Left differs", n)
		}
		alias = append(alias[:0], v...)
		op.Right(alias, alias)
		if !bitsEqual(alias, tmp) {
			t.Fatalf("n=%d: aliased Right differs", n)
		}
	}
}

// TestEisenstatOperatorsShareFactorsConcurrently runs several one-pass
// operators over one factorization from different goroutines — what
// concurrent queries on one engine do — and checks every product against
// the serial one. Under -race it is the check that the sweeps write only
// their own scratch.
func TestEisenstatOperatorsShareFactorsConcurrently(t *testing.T) {
	a := randSparseDiag(2000, 8, 6)
	f, err := FactorDILU(a)
	if err != nil {
		t.Fatal(err)
	}
	v := randVec(rand.New(rand.NewSource(7)), f.N())
	want := make([]float64, f.N())
	f.Eisenstat().MulVec(want, v)
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			op := f.Eisenstat()
			got := make([]float64, f.N())
			for rep := 0; rep < 5; rep++ {
				op.MulVec(got, v)
				if !bitsEqual(got, want) {
					t.Error("concurrent one-pass product differs from serial")
					return
				}
			}
		}()
	}
	wg.Wait()
}

// TestILUMemoryBytesPinned pins MemoryBytes against manually computed
// sizes — the accounting the serving layer's memory budget and the
// benchmark's index_bytes rely on. DILU pays for its one extra diagonal and
// nothing else.
func TestILUMemoryBytesPinned(t *testing.T) {
	a := randSparseDiag(200, 4, 5)
	for name, factor := range map[string]func(*sparse.CSR) (*ILU, error){"ILU0": FactorILU0, "DILU": FactorDILU} {
		f, err := factor(a)
		if err != nil {
			t.Fatal(err)
		}
		n, nnz := int64(f.n), int64(f.NNZ())
		if nnz != int64(a.NNZ()) {
			t.Fatalf("%s: factor nnz %d != matrix nnz %d", name, nnz, a.NNZ())
		}
		want := nnz*8 + // values (split across L and U)
			nnz*2 + // uint16 columns (n ≤ 65 536)
			2*(n+1)*4 // two int32 row-pointer arrays
		if name == "DILU" {
			want += 8 * n // D_S
		}
		if got := f.MemoryBytes(); got != want {
			t.Fatalf("%s: MemoryBytes = %d want %d", name, got, want)
		}
	}
}
