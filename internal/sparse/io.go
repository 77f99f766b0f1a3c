package sparse

import (
	"encoding/binary"
	"fmt"
	"io"

	"bepi/internal/binio"
)

// Binary serialization of CSR matrices. The format is a fixed little-endian
// layout so preprocessed indexes can be persisted and memory-mapped-style
// reloaded without re-running the (expensive) preprocessing phase:
//
//	magic   uint32  'BePI' (0x42655049)
//	version uint32  1
//	rows    int64
//	cols    int64
//	nnz     int64
//	rowPtr  (rows+1) × int64
//	col     nnz × int64
//	val     nnz × float64
//
// The layout is the wide one whatever the in-memory index width: a CSR32
// writes the bytes its widened copy would, without making the copy.

const (
	csrMagic   = 0x42655049
	csrVersion = 1
)

func writeCSRHeader(bw *binio.Writer, rows, cols, nnz int) {
	bw.U32(csrMagic)
	bw.U32(csrVersion)
	bw.Int(rows)
	bw.Int(cols)
	bw.Int(nnz)
}

func writeCSR[P int | int32 | int64, C int | uint32](w io.Writer, rows, cols int, rowPtr []P, col []C, val []float64) (int64, error) {
	bw := binio.NewWriter(w)
	writeCSRHeader(bw, rows, cols, len(col))
	binio.WriteInts(bw, rowPtr)
	binio.WriteInts(bw, col)
	binio.WriteFloats(bw, val)
	return bw.Close()
}

// WriteCSRRows serializes the matrix the runs describe in the CSR format:
// the bytes CSRFromRows(...).WriteTo would write, without assembling it. The
// rows are walked once per section of the format (entry count, row
// pointers, columns, values) and no array is copied.
func WriteCSRRows(w io.Writer, rows, cols int, row RowRuns) (int64, error) {
	bw := binio.NewWriter(w)
	end := 0
	count := func(col []uint32, _ []float64) { end += len(col) }
	for i := 0; i < rows; i++ {
		row(i, count)
	}
	writeCSRHeader(bw, rows, cols, end)
	end = 0
	bw.Int(0)
	for i := 0; i < rows; i++ {
		row(i, count)
		bw.Int(end)
	}
	putCols := func(col []uint32, _ []float64) { binio.WriteInts(bw, col) }
	for i := 0; i < rows; i++ {
		row(i, putCols)
	}
	putVals := func(_ []uint32, val []float64) { binio.WriteFloats(bw, val) }
	for i := 0; i < rows; i++ {
		row(i, putVals)
	}
	return bw.Close()
}

// WriteTo serializes the matrix. It implements io.WriterTo.
func (m *CSR) WriteTo(w io.Writer) (int64, error) {
	return writeCSR(w, m.rows, m.cols, m.rowPtr, m.col, m.val)
}

// WriteTo serializes the matrix in the CSR format. It implements
// io.WriterTo.
func (m *CSR32) WriteTo(w io.Writer) (int64, error) {
	if m.rowPtr32 != nil {
		return writeCSR(w, m.rows, m.cols, m.rowPtr32, m.col, m.val)
	}
	return writeCSR(w, m.rows, m.cols, m.rowPtr64, m.col, m.val)
}

// ReadCSR deserializes a matrix written by WriteTo. It reads exactly the
// bytes the matrix occupies (no read-ahead), so matrices can be read back
// from a concatenated stream, and rejects arrays that break the CSR
// invariants (see validate) instead of building a matrix whose kernels would
// read out of bounds.
func ReadCSR(r io.Reader) (*CSR, error) {
	br := binio.NewReader(r)
	var head [4 + 4 + 3*8]byte
	if err := br.Full(head[:]); err != nil {
		return nil, fmt.Errorf("sparse: reading header: %w", err)
	}
	if magic := binary.LittleEndian.Uint32(head[0:]); magic != csrMagic {
		return nil, fmt.Errorf("sparse: bad magic %#x", magic)
	}
	if version := binary.LittleEndian.Uint32(head[4:]); version != csrVersion {
		return nil, fmt.Errorf("sparse: unsupported version %d", version)
	}
	rows := int(int64(binary.LittleEndian.Uint64(head[8:])))
	cols := int(int64(binary.LittleEndian.Uint64(head[16:])))
	nnz := int(int64(binary.LittleEndian.Uint64(head[24:])))
	if rows < 0 || cols < 0 || nnz < 0 {
		return nil, fmt.Errorf("sparse: corrupt header %dx%d nnz=%d", rows, cols, nnz)
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
