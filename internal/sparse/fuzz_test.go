package sparse

import (
	"bytes"
	"encoding/binary"
	"math/rand"
	"testing"
)

// FuzzReadCSR checks the compact CSR reader (ReadPattern) on arbitrary
// bytes: it never panics, and anything it accepts is a pattern whose
// kernels stay in bounds and which re-serializes to the bytes it was read
// from, at either column width.
func FuzzReadCSR(f *testing.F) {
	// Seed with valid serialized patterns and a few mutations.
	rng := rand.New(rand.NewSource(1))
	valid := writePattern(f, randCSR(rng, 8, 6, 0.4))
	f.Add(valid)
	f.Add(valid[:len(valid)/2])
	f.Add([]byte{})
	f.Add([]byte{0x49, 0x50, 0x65, 0x42}) // shorter than a header
	mutated := append([]byte(nil), valid...)
	mutated[10] ^= 0xFF
	f.Add(mutated)
	for _, raw := range csrCorruptions(f, 6) {
		f.Add(raw)
	}
	f.Add(writePattern(f, randCSR(rng, 4, 1<<16+3, 2.0/(1<<16))))

	f.Fuzz(func(t *testing.T, data []byte) {
		got, err := ReadPattern(bytes.NewReader(data))
		if err != nil {
			return
		}
		// Whatever parsed must be internally consistent and round-trip.
		if err := got.validate(); err != nil {
			t.Fatalf("accepted a matrix that breaks the CSR invariants: %v", err)
		}
		if got.rows < 1<<16 && got.cols <= 1<<17 { // an empty matrix may declare any shape
			got.MulVec(make([]float64, got.rows), make([]float64, got.cols))
		}
		var out bytes.Buffer
		if _, err := got.WriteTo(&out); err != nil {
			t.Fatalf("re-serialize: %v", err)
		}
		if !bytes.Equal(out.Bytes(), data[:out.Len()]) {
			t.Fatal("an accepted pattern does not re-serialize to its bytes")
		}
	})
}

// FuzzValidateNewCSR drives Validate and NewCSR with arbitrary structure
// bytes: rowPtr and col arrays are decoded from the fuzz payloads, and the
// two functions must agree — whenever Validate accepts, NewCSR must build a
// matrix whose kernels run in-bounds (MulVec plus a compact round trip);
// whenever Validate rejects, NewCSR must panic rather than construct.
func FuzzValidateNewCSR(f *testing.F) {
	pack := func(xs ...int16) []byte {
		b := make([]byte, 2*len(xs))
		for i, x := range xs {
			binary.LittleEndian.PutUint16(b[2*i:], uint16(x))
		}
		return b
	}
	// Valid 2x3 with 2 entries; then mutations: decreasing rowPtr, bad
	// column, wrong tail, empty.
	f.Add(uint8(2), uint8(3), pack(0, 1, 2), pack(2, 0))
	f.Add(uint8(2), uint8(3), pack(0, 2, 1), pack(0, 1))
	f.Add(uint8(2), uint8(3), pack(0, 1, 2), pack(2, 9))
	f.Add(uint8(2), uint8(3), pack(0, 1, 5), pack(2, 0))
	f.Add(uint8(0), uint8(0), pack(0), pack())

	f.Fuzz(func(t *testing.T, rows8, cols8 uint8, rowPtrB, colB []byte) {
		rows, cols := int(rows8)%32, int(cols8)%32
		rowPtr := make([]int, len(rowPtrB)/2)
		for i := range rowPtr {
			rowPtr[i] = int(int16(binary.LittleEndian.Uint16(rowPtrB[2*i:])))
		}
		col := make([]int, len(colB)/2)
		for i := range col {
			col[i] = int(int16(binary.LittleEndian.Uint16(colB[2*i:])))
		}
		val := make([]float64, len(col))
		for i := range val {
			val[i] = float64(i) + 0.5
		}

		err := Validate(rows, cols, rowPtr, col)
		var m *CSR
		panicked := func() (p bool) {
			defer func() { p = recover() != nil }()
			m = NewCSR(rows, cols, rowPtr, col, val)
			return
		}()
		if err == nil && panicked {
			t.Fatalf("Validate accepted but NewCSR panicked (rows=%d cols=%d rowPtr=%v col=%v)", rows, cols, rowPtr, col)
		}
		if err != nil && !panicked {
			t.Fatalf("Validate rejected (%v) but NewCSR accepted", err)
		}
		if err != nil {
			return
		}
		// Accepted input: kernels must stay in-bounds and the compact form
		// must round-trip. (NewCSR may have merged duplicates, so validate
		// the built matrix, not the raw input.)
		if verr := Validate(m.Rows(), m.Cols(), m.RowPtr(), m.ColIdx()); verr != nil {
			t.Fatalf("NewCSR built an invalid matrix: %v", verr)
		}
		x := make([]float64, m.Cols())
		for i := range x {
			x[i] = 1
		}
		dst := make([]float64, m.Rows())
		m.MulVec(dst, x)
		c := Compact(m)
		if !c.ToCSR().Equal(m) {
			t.Fatal("compact round trip changed the matrix")
		}
		dst32 := make([]float64, m.Rows())
		c.MulVec(dst32, x)
		for i := range dst {
			if dst[i] != dst32[i] {
				t.Fatalf("compact MulVec differs at %d", i)
			}
		}
	})
}
