package sparse

import (
	"bytes"
	"encoding/binary"
	"math/rand"
	"testing"
)

func TestSerializationRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	for trial := 0; trial < 10; trial++ {
		m := randCSR(rng, 1+rng.Intn(50), 1+rng.Intn(50), 0.2)
		var buf bytes.Buffer
		if _, err := m.WriteTo(&buf); err != nil {
			t.Fatalf("WriteTo: %v", err)
		}
		back, err := ReadCSR(&buf)
		if err != nil {
			t.Fatalf("ReadCSR: %v", err)
		}
		if !m.Equal(back) {
			t.Fatalf("trial %d: round trip not bit-exact", trial)
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
		runs := func(i int, emit func(col []uint32, val []float64)) {
			lo, hi := m.rowPtr[i], m.rowPtr[i+1]
			for _, r := range [][2]int{{lo, lo + cuts[i][0]}, {lo + cuts[i][0], lo + cuts[i][1]}, {lo + cuts[i][1], hi}} {
				emit(c.col[r[0]:r[1]], c.val[r[0]:r[1]])
			}
		}
		if got := CSRFromRows(m.rows, m.cols, runs); !got.Equal(m) {
			t.Fatalf("matrix %d: CSRFromRows differs from the matrix the runs were cut from", mi)
		}
	}
}

func TestSerializationEmptyMatrix(t *testing.T) {
	m := Zero(5, 7)
	var buf bytes.Buffer
	if _, err := m.WriteTo(&buf); err != nil {
		t.Fatalf("WriteTo: %v", err)
	}
	back, err := ReadCSR(&buf)
	if err != nil {
		t.Fatalf("ReadCSR: %v", err)
	}
	if back.Rows() != 5 || back.Cols() != 7 || back.NNZ() != 0 {
		t.Fatalf("got %v", back)
	}
}

func TestReadCSRRejectsGarbage(t *testing.T) {
	if _, err := ReadCSR(bytes.NewReader([]byte{1, 2, 3, 4, 5, 6, 7, 8})); err == nil {
		t.Fatal("expected error for bad magic")
	}
	if _, err := ReadCSR(bytes.NewReader(nil)); err == nil {
		t.Fatal("expected error for empty input")
	}
}

func TestReadCSRRejectsTruncated(t *testing.T) {
	m := Identity(10)
	var buf bytes.Buffer
	if _, err := m.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	raw := buf.Bytes()
	if _, err := ReadCSR(bytes.NewReader(raw[:len(raw)-9])); err == nil {
		t.Fatal("expected error for truncated stream")
	}
}

// TestCSR32WriteToRoundTrip: a compact matrix is written in the widths it
// holds — 24 header bytes, 4 per row pointer, 12 per entry — and ReadCSR32
// gives it back exactly, with the int32 row pointers Compact would choose
// even when it held int64 ones, across several chunks of the codec.
func TestCSR32WriteToRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	for _, m := range []*CSR{randCSR(rng, 40, 33, 0.25), Zero(3, 0), randBigCSR(900, 700, 40, 45)} {
		rp64 := make([]int64, len(m.rowPtr))
		col32 := make([]uint32, len(m.col))
		for i, p := range m.rowPtr {
			rp64[i] = int64(p)
		}
		for i, c := range m.col {
			col32[i] = uint32(c)
		}
		for name, c := range map[string]*CSR32{
			"int32 rowPtr": Compact(m),
			"int64 rowPtr": NewCSR32Wide(m.rows, m.cols, rp64, col32, m.val),
		} {
			var buf bytes.Buffer
			n, err := c.WriteTo(&buf)
			if err != nil || n != int64(buf.Len()) {
				t.Fatalf("%s: WriteTo = %d, %v; wrote %d", name, n, err, buf.Len())
			}
			if want := 24 + 4*(m.rows+1) + 12*m.NNZ(); buf.Len() != want {
				t.Errorf("%s %v: %d bytes, want %d", name, m, buf.Len(), want)
			}
			back, err := ReadCSR32(bytes.NewReader(buf.Bytes()))
			if err != nil {
				t.Fatalf("%s: %v", name, err)
			}
			if back.rowPtr32 == nil || !back.ToCSR().Equal(m) || back.MemoryBytes() != Compact(m).MemoryBytes() {
				t.Errorf("%s %v: read back %v, not the matrix written", name, m, back)
			}
		}
	}
}

// TestReadCSR32RejectsCorruptArrays: single-word corruptions of a written
// compact matrix that keep every length consistent are refused by the
// structural check, and a truncated one by the reader.
func TestReadCSR32RejectsCorruptArrays(t *testing.T) {
	m := Compact(NewCSR(3, 6, []int{0, 2, 3, 5}, []int{1, 4, 0, 2, 5}, []float64{1, 2, 3, 4, 5}))
	var buf bytes.Buffer
	if _, err := m.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	valid := buf.Bytes()
	const rowPtrAt, colAt = 24, 24 + 4*4
	for name, w := range map[string]struct {
		off int
		v   uint32
	}{
		"column == cols":        {colAt + 4*4, 6},
		"column 1<<31":          {colAt + 4*1, 1 << 31},
		"columns out of order":  {colAt + 4*1, 0},
		"duplicate column":      {colAt + 4*4, 2},
		"rowPtr does not start": {rowPtrAt, 1},
		"rowPtr decreases":      {rowPtrAt + 4, 4},
		"rowPtr negative":       {rowPtrAt + 4, 1 << 31},
	} {
		raw := append([]byte(nil), valid...)
		binary.LittleEndian.PutUint32(raw[w.off:], w.v)
		if got, err := ReadCSR32(bytes.NewReader(raw)); err == nil {
			t.Errorf("%s: accepted as %v", name, got)
		}
	}
	if _, err := ReadCSR32(bytes.NewReader(valid[:len(valid)-3])); err == nil {
		t.Error("truncated matrix accepted")
	}
}

// corruptCSR serializes m and overwrites the 8-byte word at array position
// idx of rowPtr (which = 0) or col (which = 1).
func corruptCSR(t testing.TB, m *CSR, which, idx int, v uint64) []byte {
	t.Helper()
	var buf bytes.Buffer
	if _, err := m.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	raw := buf.Bytes()
	off := 32 + 8*idx
	if which == 1 {
		off += 8 * (m.rows + 1)
	}
	binary.LittleEndian.PutUint64(raw[off:], v)
	return raw
}

// csrCorruptions are single-word corruptions of a valid serialized matrix
// that leave every length consistent: ReadCSR accepted all of them before it
// validated the arrays it decodes, and the matrix then indexed out of bounds
// (or, once compacted, silently aliased another column).
func csrCorruptions(t testing.TB) map[string][]byte {
	m := NewCSR(3, 6, []int{0, 2, 3, 5}, []int{1, 4, 0, 2, 5}, []float64{1, 2, 3, 4, 5})
	return map[string][]byte{
		"column 1<<40":          corruptCSR(t, m, 1, 1, 1<<40),
		"column == cols":        corruptCSR(t, m, 1, 4, 6),
		"column negative":       corruptCSR(t, m, 1, 0, ^uint64(0)),
		"columns out of order":  corruptCSR(t, m, 1, 1, 0),
		"duplicate column":      corruptCSR(t, m, 1, 4, 2),
		"rowPtr does not start": corruptCSR(t, m, 0, 0, 1),
		"rowPtr decreases":      corruptCSR(t, m, 0, 1, 4),
	}
}

func TestReadCSRRejectsCorruptArrays(t *testing.T) {
	for name, raw := range csrCorruptions(t) {
		if m, err := ReadCSR(bytes.NewReader(raw)); err == nil {
			t.Errorf("%s: accepted as %v", name, m)
		}
	}
}

// TestReadCSRSizesFromInput: with a source that reports its length the
// arrays are allocated once at their declared size, and a declared size the
// input cannot back is refused before anything is allocated for it.
func TestReadCSRSizesFromInput(t *testing.T) {
	m := randBigCSR(3000, 3000, 30, 1)
	var buf bytes.Buffer
	if _, err := m.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	raw := buf.Bytes()
	back, err := ReadCSR(bytes.NewReader(raw))
	if err != nil || !back.Equal(m) {
		t.Fatalf("round trip: err=%v", err)
	}
	if cap(back.col) != len(back.col) || cap(back.val) != len(back.val) || cap(back.rowPtr) != len(back.rowPtr) {
		t.Fatalf("arrays over-allocated: col %d/%d val %d/%d rowPtr %d/%d",
			len(back.col), cap(back.col), len(back.val), cap(back.val), len(back.rowPtr), cap(back.rowPtr))
	}
	huge := append([]byte(nil), raw[:64]...)
	binary.LittleEndian.PutUint64(huge[8:], 1<<40) // rows
	allocs := testing.AllocsPerRun(10, func() {
		if _, err := ReadCSR(bytes.NewReader(huge)); err == nil {
			t.Fatal("accepted 2^40 rows backed by 32 bytes")
		}
	})
	if allocs > 8 {
		t.Fatalf("refusing an unbacked length took %.0f allocations", allocs)
	}
}
