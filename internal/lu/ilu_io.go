package lu

import (
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math"

	"bepi/internal/binio"
	"bepi/internal/sparse"
)

// Binary serialization of DILU factors as the matrix they were computed
// from, in the layout they hold it, little-endian:
//
//	n, nnzL, nnzU  int64
//	L  rowPtr (n+1) × int32, col nnzL × uint16, val nnzL × float64
//	U  rowPtr (n+1) × int32, col nnzU × uint16, val nnzU × float64
//
// with uint32 columns instead when n exceeds 65 536 (sparse.NarrowCols), so
// the width follows from n.
// L is the strict lower triangle, U the upper one with each row led by its
// diagonal entry — A's own D_S, not the pivot: the pivots are a function of
// the rest, and ReadDILU recomputes them. The preprocessing of an index
// writes its S in this layout whichever layout the engine serves it from.

// WriteTo serializes DILU factors; it panics on ILU(0) factors, which do
// not retain their matrix. It implements io.WriterTo.
func (f *ILU) WriteTo(w io.Writer) (int64, error) {
	if f.ds == nil {
		panic("lu: only a DILU factorization retains its matrix")
	}
	bw := binio.NewWriter(w)
	bw.Int(f.n)
	bw.Int(f.l.nnz())
	bw.Int(f.u.nnz())
	binio.WriteInts32(bw, f.l.rowPtr)
	f.l.writeCols(bw)
	binio.WriteFloats(bw, f.l.val)
	binio.WriteInts32(bw, f.u.rowPtr)
	f.u.writeCols(bw)
	for i := 0; i < f.n; i++ {
		lo, hi := f.u.rowSpan(i)
		bw.F64(f.ds[i])
		binio.WriteFloats(bw, f.u.val[lo+1:hi])
	}
	return bw.Close()
}

func (t *triFactor) writeCols(bw *binio.Writer) {
	if t.col16 != nil {
		binio.WriteUint16s(bw, t.col16)
	} else {
		binio.WriteInts32(bw, t.col32)
	}
}

// ReadDILU deserializes factors written by ILU.WriteTo straight into their
// arrays, refuses triangles no factorization could hold and values no
// index's S holds (checkValues), and runs the pivot
// recurrence — the only computation FactorDILU does beyond splitting its
// input, so the factors are FactorDILU's of the same matrix bit for bit.
func ReadDILU(r io.Reader) (*ILU, error) {
	br := binio.NewReader(r)
	var head [3 * 8]byte
	if err := br.Full(head[:]); err != nil {
		return nil, fmt.Errorf("lu: reading DILU header: %w", err)
	}
	n := int64(binary.LittleEndian.Uint64(head[0:]))
	nnzL := int64(binary.LittleEndian.Uint64(head[8:]))
	nnzU := int64(binary.LittleEndian.Uint64(head[16:]))
	if n < 0 || n >= 1<<32 || nnzL < 0 || nnzU < 0 || nnzL+nnzU > math.MaxInt32 {
		return nil, fmt.Errorf("lu: corrupt DILU header n=%d nnz=%d+%d", n, nnzL, nnzU)
	}
	f := &ILU{n: int(n)}
	for _, t := range []struct {
		f     *triFactor
		nnz   int
		upper bool
	}{{&f.l, int(nnzL), false}, {&f.u, int(nnzU), true}} {
		var err error
		if t.f.rowPtr, err = br.Int32s(f.n + 1); err != nil {
			return nil, fmt.Errorf("lu: reading DILU row pointers: %w", err)
		}
		if sparse.NarrowCols(f.n) {
			t.f.col16, err = br.Uint16s(t.nnz)
		} else {
			t.f.col32, err = br.Uint32s(t.nnz)
		}
		if err != nil {
			return nil, fmt.Errorf("lu: reading DILU columns: %w", err)
		}
		if err := t.f.check(f.n, t.upper); err != nil {
			return nil, err
		}
		if t.f.val, err = br.Floats(t.nnz); err != nil {
			return nil, fmt.Errorf("lu: reading DILU values: %w", err)
		}
	}
	if err := f.checkValues(); err != nil {
		return nil, err
	}
	f.derivePivots()
	return f, nil
}

// checkValues refuses values the matrix of an index cannot hold: S is a
// nonsingular M-matrix, so every entry is finite and every diagonal entry —
// the lead of an upper row, D_S before the pivots replace it — positive
// (compared so that NaN fails).
func (f *ILU) checkValues() error {
	if !allFinite(f.l.val) || !allFinite(f.u.val) {
		return errors.New("lu: DILU factors hold a value that is not finite")
	}
	for i := 0; i < f.n; i++ {
		if d := f.u.val[f.u.rowPtr[i]]; !(d > 0) {
			return fmt.Errorf("lu: DILU diagonal entry %d is %v, want positive", i, d)
		}
	}
	return nil
}

// allFinite reports whether every value is finite: v·0 is ±0 for a finite v
// and NaN otherwise, so the sum of the products is NaN exactly when a value
// is not finite — a scan of two independent adds per pair of values, with no
// branch.
func allFinite(vals []float64) bool {
	var s0, s1 float64
	p := 0
	for ; p+2 <= len(vals); p += 2 {
		s0 += vals[p] * 0
		s1 += vals[p+1] * 0
	}
	if p < len(vals) {
		s0 += vals[p] * 0
	}
	return s0+s1 == 0
}

// check refuses a factor that is not a triangle of an n×n matrix stored the
// way the sweeps read it: row pointers from 0 to the entry count, never
// decreasing; columns strictly increasing within a row; every column below
// the row in the strict lower factor, and every row of the upper one led by
// its diagonal.
func (t *triFactor) check(n int, upper bool) error {
	if t.col16 != nil {
		return check(t, t.col16, n, upper)
	}
	return check(t, t.col32, n, upper)
}

func check[C uint16 | uint32](t *triFactor, col []C, n int, upper bool) error {
	if t.rowPtr[0] != 0 || int(t.rowPtr[n]) != len(col) {
		return fmt.Errorf("lu: DILU row pointers run %d..%d over %d entries", t.rowPtr[0], t.rowPtr[n], len(col))
	}
	for i := 0; i < n; i++ {
		lo, hi := t.rowPtr[i], t.rowPtr[i+1]
		if hi < lo || hi > t.rowPtr[n] {
			return fmt.Errorf("lu: DILU row pointers out of order at row %d", i)
		}
		if upper && (lo == hi || int(col[lo]) != i) {
			return fmt.Errorf("lu: upper DILU factor row %d does not lead with its diagonal", i)
		}
		prev := int64(-1)
		for _, j := range col[lo:hi] {
			if c := int64(j); c <= prev || c >= int64(n) || (!upper && c >= int64(i)) {
				return fmt.Errorf("lu: DILU factor row %d holds column %d out of place", i, j)
			}
			prev = int64(j)
		}
	}
	return nil
}
