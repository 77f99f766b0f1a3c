package sparse

import (
	"encoding/binary"
	"fmt"
	"io"
	"math"

	"bepi/internal/binio"
)

// Binary serialization of sparse matrices, little-endian. A CSR32 — what an
// engine serves S from in the unpreconditioned variants — is written in the
// widths it holds, as one section of the index file (the framing is the
// caller's); a Pattern is the same layout without the values:
//
//	rows, cols, nnz  int64
//	rowPtr  (rows+1) × int32 (× int64 when nnz exceeds the int32 range)
//	col     nnz × uint32
//	val     nnz × float64   (CSR32 only)
//
// The wide CSR keeps the version-1 layout, which version-1 index files hold
// and ReadCSR reads:
//
//	magic   uint32  'BePI' (0x42655049)
//	version uint32  1
//	rows, cols, nnz  int64
//	rowPtr  (rows+1) × int64
//	col     nnz × int64
//	val     nnz × float64

const (
	csrMagic   = 0x42655049
	csrVersion = 1
)

// WriteTo serializes the matrix in the version-1 layout. It implements
// io.WriterTo.
func (m *CSR) WriteTo(w io.Writer) (int64, error) {
	bw := binio.NewWriter(w)
	bw.U32(csrMagic)
	bw.U32(csrVersion)
	bw.Int(m.rows)
	bw.Int(m.cols)
	bw.Int(len(m.col))
	binio.WriteInts(bw, m.rowPtr)
	binio.WriteInts(bw, m.col)
	binio.WriteFloats(bw, m.val)
	return bw.Close()
}

// wideRowPtr reports whether a matrix of nnz entries has int64 row
// pointers: exactly when nnz exceeds the int32 range, the choice Compact
// makes, so a read matrix holds the widths the written one did.
func wideRowPtr(nnz int) bool { return int64(nnz) > math.MaxInt32 }

// writeLayout writes the dimension words and the index arrays.
func (l *layout32) writeLayout(bw *binio.Writer) {
	bw.Int(l.rows)
	bw.Int(l.cols)
	bw.Int(len(l.col))
	switch {
	case l.rowPtr32 != nil:
		binio.WriteInts32(bw, l.rowPtr32)
	case wideRowPtr(len(l.col)):
		binio.WriteInts(bw, l.rowPtr64)
	default: // int64 row pointers NewCSR32Wide was handed for a matrix that fits
		binio.WriteInts32(bw, l.rowPtr64)
	}
	binio.WriteInts32(bw, l.col)
}

// WriteTo serializes the matrix in the compact layout. It implements
// io.WriterTo.
func (m *CSR32) WriteTo(w io.Writer) (int64, error) {
	bw := binio.NewWriter(w)
	m.writeLayout(bw)
	binio.WriteFloats(bw, m.val)
	return bw.Close()
}

// WriteTo serializes the pattern: CSR32's layout without the values. It
// implements io.WriterTo.
func (p *Pattern) WriteTo(w io.Writer) (int64, error) {
	bw := binio.NewWriter(w)
	p.writeLayout(bw)
	return bw.Close()
}

// readHeader reads the three dimension words both layouts share.
func readHeader(br *binio.Reader) (rows, cols, nnz int, err error) {
	var head [3 * 8]byte
	if err := br.Full(head[:]); err != nil {
		return 0, 0, 0, fmt.Errorf("sparse: reading header: %w", err)
	}
	rows = int(int64(binary.LittleEndian.Uint64(head[0:])))
	cols = int(int64(binary.LittleEndian.Uint64(head[8:])))
	nnz = int(int64(binary.LittleEndian.Uint64(head[16:])))
	if rows < 0 || cols < 0 || nnz < 0 {
		return 0, 0, 0, fmt.Errorf("sparse: corrupt header %dx%d nnz=%d", rows, cols, nnz)
	}
	return rows, cols, nnz, nil
}

// readLayout reads what writeLayout wrote, at the widths it is served in —
// nothing is widened or narrowed — and rejects arrays that break the CSR
// invariants (see validate) instead of building a matrix whose kernels
// would read out of bounds.
func readLayout(br *binio.Reader) (layout32, error) {
	rows, cols, nnz, err := readHeader(br)
	if err != nil {
		return layout32{}, err
	}
	if int64(rows) >= maxIndex32 || int64(cols) > maxIndex32 {
		return layout32{}, fmt.Errorf("sparse: %dx%d exceeds the uint32 index range", rows, cols)
	}
	l := layout32{rows: rows, cols: cols}
	var end int64
	if wideRowPtr(nnz) {
		wide, err := br.Ints(rows + 1)
		if err != nil {
			return layout32{}, fmt.Errorf("sparse: reading rowPtr: %w", err)
		}
		l.rowPtr64 = make([]int64, len(wide))
		for i, p := range wide {
			l.rowPtr64[i] = int64(p)
		}
		end = l.rowPtr64[rows]
	} else {
		if l.rowPtr32, err = br.Int32s(rows + 1); err != nil {
			return layout32{}, fmt.Errorf("sparse: reading rowPtr: %w", err)
		}
		end = int64(l.rowPtr32[rows])
	}
	if end != int64(nnz) { // checked again by validate; here it is known before col is read
		return layout32{}, fmt.Errorf("sparse: rowPtr end %d != nnz %d", end, nnz)
	}
	if l.col, err = br.Uint32s(nnz); err != nil {
		return layout32{}, fmt.Errorf("sparse: reading col: %w", err)
	}
	if l.rowPtr32 != nil {
		err = validateCompact(rows, cols, l.rowPtr32, l.col)
	} else {
		err = validateCompact(rows, cols, l.rowPtr64, l.col)
	}
	if err != nil {
		return layout32{}, fmt.Errorf("sparse: corrupt matrix: %w", err)
	}
	return l, nil
}

// ReadCSR32 deserializes a matrix written by CSR32.WriteTo, reading exactly
// its bytes.
func ReadCSR32(r io.Reader) (*CSR32, error) {
	br := binio.NewReader(r)
	l, err := readLayout(br)
	if err != nil {
		return nil, err
	}
	m := &CSR32{layout32: l}
	if m.val, err = br.Floats(len(l.col)); err != nil {
		return nil, fmt.Errorf("sparse: reading val: %w", err)
	}
	return m, nil
}

// ReadPattern deserializes a pattern written by Pattern.WriteTo, reading
// exactly its bytes.
func ReadPattern(r io.Reader) (*Pattern, error) {
	l, err := readLayout(binio.NewReader(r))
	if err != nil {
		return nil, err
	}
	return &Pattern{layout32: l}, nil
}

// ReadCSR deserializes a matrix written by CSR.WriteTo. It reads exactly
// the bytes the matrix occupies (no read-ahead), so matrices can be read
// back from a concatenated stream, and rejects arrays that break the CSR
// invariants (see validate).
func ReadCSR(r io.Reader) (*CSR, error) {
	br := binio.NewReader(r)
	var head [4 + 4]byte
	if err := br.Full(head[:]); err != nil {
		return nil, fmt.Errorf("sparse: reading header: %w", err)
	}
	if magic := binary.LittleEndian.Uint32(head[0:]); magic != csrMagic {
		return nil, fmt.Errorf("sparse: bad magic %#x", magic)
	}
	if version := binary.LittleEndian.Uint32(head[4:]); version != csrVersion {
		return nil, fmt.Errorf("sparse: unsupported version %d", version)
	}
	rows, cols, nnz, err := readHeader(br)
	if err != nil {
		return nil, err
	}
	rowPtr, err := br.Ints(rows + 1)
	if err != nil {
		return nil, fmt.Errorf("sparse: reading rowPtr: %w", err)
	}
	if rowPtr[rows] != nnz { // checked again by validate; here it is known before col is read
		return nil, fmt.Errorf("sparse: rowPtr end %d != nnz %d", rowPtr[rows], nnz)
	}
	col, err := br.Ints(nnz)
	if err != nil {
		return nil, fmt.Errorf("sparse: reading col: %w", err)
	}
	if err := validate(rows, cols, rowPtr, col, true); err != nil {
		return nil, fmt.Errorf("sparse: corrupt matrix: %w", err)
	}
	val, err := br.Floats(nnz)
	if err != nil {
		return nil, fmt.Errorf("sparse: reading val: %w", err)
	}
	return &CSR{rows: rows, cols: cols, rowPtr: rowPtr, col: col, val: val}, nil
}
