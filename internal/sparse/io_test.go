package sparse

import (
	"bytes"
	"encoding/binary"
	"math/rand"
	"testing"
)

// writePattern serializes the pattern of m.
func writePattern(t testing.TB, m *CSR) []byte {
	t.Helper()
	var buf bytes.Buffer
	p := PatternOf(m)
	if n, err := p.WriteTo(&buf); err != nil || n != int64(buf.Len()) {
		t.Fatalf("WriteTo = %d, %v; wrote %d", n, err, buf.Len())
	}
	return buf.Bytes()
}

// patternBytes is the size of a serialized pattern with int32 row pointers:
// the dimension words, the row pointers, and 2 or 4 bytes per column index.
func patternBytes(rows, cols, nnz int) int {
	width := 4
	if NarrowCols(cols) {
		width = 2
	}
	return 24 + 4*(rows+1) + width*nnz
}

// TestSerializationRoundTrip: the pattern of a random matrix is written in
// the widths it holds and read back exactly, at both column widths.
func TestSerializationRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	for trial := 0; trial < 10; trial++ {
		cols := 1 + rng.Intn(50)
		if trial%2 == 1 {
			cols += 1 << 16 // 32-bit columns
		}
		m := randCSR(rng, 1+rng.Intn(50), cols, 200/float64(cols))
		raw := writePattern(t, m)
		if want := patternBytes(m.rows, m.cols, m.NNZ()); len(raw) != want {
			t.Fatalf("trial %d %v: %d bytes, want %d", trial, m, len(raw), want)
		}
		back, err := ReadPattern(bytes.NewReader(raw))
		if err != nil {
			t.Fatalf("ReadPattern: %v", err)
		}
		w := randVec(m.cols, int64(trial))
		if !back.Expand(w).Equal(PatternOf(m).Expand(w)) || (back.col16 != nil) != NarrowCols(m.cols) {
			t.Fatalf("trial %d: round trip not exact", trial)
		}
	}
}

// TestCSRRowsMatchAssembledMatrix: a matrix handed over as runs of entries
// per row — here a random matrix cut at two random points of every row,
// empty runs and empty rows included — is assembled by CSRFromRows into
// that matrix exactly.
func TestCSRRowsMatchAssembledMatrix(t *testing.T) {
	rng := rand.New(rand.NewSource(44))
	mats := []*CSR{Zero(0, 0), Zero(4, 9), randBigCSR(900, 700, 40, 45)}
	for trial := 0; trial < 20; trial++ {
		mats = append(mats, randCSR(rng, 1+rng.Intn(50), 1+rng.Intn(50), 0.3))
	}
	for mi, m := range mats {
		c := Compact(m)
		cuts := make([][2]int, m.rows)
		for i := range cuts {
			n := m.rowPtr[i+1] - m.rowPtr[i]
			a, b := rng.Intn(n+1), rng.Intn(n+1)
			cuts[i] = [2]int{min(a, b), max(a, b)}
		}
		runs := func(i int, emit func(col []uint16, val []float64)) {
			lo, hi := m.rowPtr[i], m.rowPtr[i+1]
			for _, r := range [][2]int{{lo, lo + cuts[i][0]}, {lo + cuts[i][0], lo + cuts[i][1]}, {lo + cuts[i][1], hi}} {
				emit(c.col16[r[0]:r[1]], c.val[r[0]:r[1]])
			}
		}
		if got := CSRFromRows(m.rows, m.cols, runs); !got.Equal(m) {
			t.Fatalf("matrix %d: CSRFromRows differs from the matrix the runs were cut from", mi)
		}
	}
}

func TestSerializationEmptyMatrix(t *testing.T) {
	back, err := ReadPattern(bytes.NewReader(writePattern(t, Zero(5, 7))))
	if err != nil {
		t.Fatalf("ReadPattern: %v", err)
	}
	if back.Rows() != 5 || back.Cols() != 7 || back.NNZ() != 0 || back.col16 == nil {
		t.Fatalf("got %v", back)
	}
}

// TestReadCSRRejectsGarbage: input too short to hold the dimension words is
// refused by the compact CSR reader.
func TestReadCSRRejectsGarbage(t *testing.T) {
	if _, err := ReadPattern(bytes.NewReader([]byte{1, 2, 3, 4, 5, 6, 7, 8})); err == nil {
		t.Fatal("expected error for a short header")
	}
	if _, err := ReadPattern(bytes.NewReader(nil)); err == nil {
		t.Fatal("expected error for empty input")
	}
}

func TestReadCSRRejectsTruncated(t *testing.T) {
	raw := writePattern(t, Identity(10))
	if _, err := ReadPattern(bytes.NewReader(raw[:len(raw)-9])); err == nil {
		t.Fatal("expected error for truncated stream")
	}
}

// corruptPattern serializes the pattern of m and overwrites the word at
// array position idx of rowPtr (which = 0, 4 bytes) or col (which = 1, 2 or
// 4 bytes as the column count implies).
func corruptPattern(t testing.TB, m *CSR, which, idx int, v uint32) []byte {
	t.Helper()
	raw := writePattern(t, m)
	off := 24 + 4*idx
	if which == 1 {
		off = 24 + 4*(m.rows+1)
		if NarrowCols(m.cols) {
			binary.LittleEndian.PutUint16(raw[off+2*idx:], uint16(v))
			return raw
		}
		off += 4 * idx
	}
	binary.LittleEndian.PutUint32(raw[off:], v)
	return raw
}

// csrCorruptions are single-word corruptions of a serialized pattern with
// cols columns (6, or past 65 536 for 32-bit columns) that leave every
// length consistent: the reader must refuse each by the structural check —
// before that check a matrix indexed out of bounds, or silently aliased
// another column.
func csrCorruptions(t testing.TB, cols int) map[string][]byte {
	m := NewCSR(3, cols, []int{0, 2, 3, 5}, []int{1, 4, 0, 2, 5}, []float64{1, 2, 3, 4, 5})
	out := map[string][]byte{
		"column == cols":        corruptPattern(t, m, 1, 4, uint32(cols)),
		"columns out of order":  corruptPattern(t, m, 1, 1, 0),
		"duplicate column":      corruptPattern(t, m, 1, 4, 2),
		"rowPtr does not start": corruptPattern(t, m, 0, 0, 1),
		"rowPtr decreases":      corruptPattern(t, m, 0, 1, 4),
		"rowPtr negative":       corruptPattern(t, m, 0, 1, 1<<31),
	}
	if NarrowCols(cols) {
		out["column 1<<16-1"] = corruptPattern(t, m, 1, 1, 1<<16-1)
	} else {
		out["column 1<<31"] = corruptPattern(t, m, 1, 1, 1<<31)
	}
	return out
}

// TestReadCSRRejectsCorruptArrays: the corruptions of a pattern with 16-bit
// columns are refused.
func TestReadCSRRejectsCorruptArrays(t *testing.T) {
	for name, raw := range csrCorruptions(t, 6) {
		if m, err := ReadPattern(bytes.NewReader(raw)); err == nil {
			t.Errorf("%s: accepted as %v", name, m)
		}
	}
}

// TestReadCSR32RejectsCorruptArrays: the corruptions of a pattern with
// 32-bit columns are refused, and so is a truncated one.
func TestReadCSR32RejectsCorruptArrays(t *testing.T) {
	const cols = 1<<16 + 6
	for name, raw := range csrCorruptions(t, cols) {
		if m, err := ReadPattern(bytes.NewReader(raw)); err == nil {
			t.Errorf("%s: accepted as %v", name, m)
		}
	}
	valid := writePattern(t, NewCSR(3, cols, []int{0, 2, 3, 5}, []int{1, 4, 0, 2, 5}, []float64{1, 2, 3, 4, 5}))
	if _, err := ReadPattern(bytes.NewReader(valid[:len(valid)-3])); err == nil {
		t.Error("truncated matrix accepted")
	}
}

// TestReadCSRSizesFromInput: with a source that reports its length the
// arrays are allocated once at their declared size, and a declared size the
// input cannot back is refused before anything is allocated for it.
func TestReadCSRSizesFromInput(t *testing.T) {
	m := randBigCSR(3000, 3000, 30, 1)
	raw := writePattern(t, m)
	back, err := ReadPattern(bytes.NewReader(raw))
	if err != nil || !back.Expand(randVec(3000, 1)).Equal(PatternOf(m).Expand(randVec(3000, 1))) {
		t.Fatalf("round trip: err=%v", err)
	}
	if cap(back.col16) != len(back.col16) || cap(back.rowPtr32) != len(back.rowPtr32) {
		t.Fatalf("arrays over-allocated: col %d/%d rowPtr %d/%d",
			len(back.col16), cap(back.col16), len(back.rowPtr32), cap(back.rowPtr32))
	}
	huge := append([]byte(nil), raw[:64]...)
	binary.LittleEndian.PutUint64(huge[0:], 1<<31) // rows
	allocs := testing.AllocsPerRun(10, func() {
		if _, err := ReadPattern(bytes.NewReader(huge)); err == nil {
			t.Fatal("accepted 2^31 rows backed by 40 bytes")
		}
	})
	if allocs > 8 {
		t.Fatalf("refusing an unbacked length took %.0f allocations", allocs)
	}
}
