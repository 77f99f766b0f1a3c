package sparse

import (
	"encoding/binary"
	"fmt"
	"io"
	"math"

	"bepi/internal/binio"
)

// Binary serialization of a Pattern — what an engine serves each of H's
// off-diagonal blocks from — in the widths it holds, as one section of the
// index file (the framing is the caller's), little-endian:
//
//	rows, cols, nnz  int64
//	rowPtr  (rows+1) × int32 (× int64 when nnz exceeds the int32 range)
//	col     nnz × uint16 (× uint32 when cols exceeds 65 536, see NarrowCols)
//
// Both widths follow from the dimension words, so the reader allocates
// every array at the width it is served in.

// wideRowPtr reports whether a matrix of nnz entries has int64 row
// pointers: exactly when nnz exceeds the int32 range, the choice Compact
// makes, so a read matrix holds the widths the written one did.
func wideRowPtr(nnz int) bool { return int64(nnz) > math.MaxInt32 }

// WriteTo serializes the pattern. It implements io.WriterTo.
func (p *Pattern) WriteTo(w io.Writer) (int64, error) {
	bw := binio.NewWriter(w)
	bw.Int(p.rows)
	bw.Int(p.cols)
	bw.Int(p.NNZ())
	if p.rowPtr32 != nil {
		binio.WriteInts32(bw, p.rowPtr32)
	} else {
		binio.WriteInts(bw, p.rowPtr64)
	}
	if p.col16 != nil {
		binio.WriteUint16s(bw, p.col16)
	} else {
		binio.WriteInts32(bw, p.col32)
	}
	return bw.Close()
}

// ReadPattern deserializes a pattern written by Pattern.WriteTo, reading
// exactly its bytes, at the widths it is served in — nothing is widened or
// narrowed — and rejects arrays that break the CSR invariants (see
// validate) instead of building a pattern whose kernels would read out of
// bounds.
func ReadPattern(r io.Reader) (*Pattern, error) {
	br := binio.NewReader(r)
	var head [3 * 8]byte
	if err := br.Full(head[:]); err != nil {
		return nil, fmt.Errorf("sparse: reading header: %w", err)
	}
	rows := int(int64(binary.LittleEndian.Uint64(head[0:])))
	cols := int(int64(binary.LittleEndian.Uint64(head[8:])))
	nnz := int(int64(binary.LittleEndian.Uint64(head[16:])))
	if rows < 0 || cols < 0 || nnz < 0 {
		return nil, fmt.Errorf("sparse: corrupt header %dx%d nnz=%d", rows, cols, nnz)
	}
	if int64(rows) >= maxIndex32 || int64(cols) > maxIndex32 {
		return nil, fmt.Errorf("sparse: %dx%d exceeds the uint32 index range", rows, cols)
	}
	l := layout32{rows: rows, cols: cols}
	var end int64
	var err error
	if wideRowPtr(nnz) {
		wide, err := br.Ints(rows + 1)
		if err != nil {
			return nil, fmt.Errorf("sparse: reading rowPtr: %w", err)
		}
		l.rowPtr64 = make([]int64, len(wide))
		for i, p := range wide {
			l.rowPtr64[i] = int64(p)
		}
		end = l.rowPtr64[rows]
	} else {
		if l.rowPtr32, err = br.Int32s(rows + 1); err != nil {
			return nil, fmt.Errorf("sparse: reading rowPtr: %w", err)
		}
		end = int64(l.rowPtr32[rows])
	}
	if end != int64(nnz) { // checked again by validate; here it is known before col is read
		return nil, fmt.Errorf("sparse: rowPtr end %d != nnz %d", end, nnz)
	}
	if NarrowCols(cols) {
		l.col16, err = br.Uint16s(nnz)
	} else {
		l.col32, err = br.Uint32s(nnz)
	}
	if err != nil {
		return nil, fmt.Errorf("sparse: reading col: %w", err)
	}
	if err := l.validate(); err != nil {
		return nil, fmt.Errorf("sparse: corrupt matrix: %w", err)
	}
	return &Pattern{layout32: l}, nil
}
