package lu

import (
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math"
	"math/bits"

	"bepi/internal/binio"
	"bepi/internal/sparse"
)

// Binary serialization of DILU factors as the matrix they were computed
// from, in the layout they hold it, little-endian, given a weight w_j per
// column:
//
//	n, nnzL, nnzU  int64
//	L  rowPtr (n+1) × int32, col nnzL × uint16
//	U  rowPtr (n+1) × int32, col nnzU × uint16
//	L  bitmap ⌈nnzL/8⌉ bytes, U bitmap ⌈nnzU/8⌉ bytes
//	values   float64, one per clear bit: L's, then U's, in storage order
//	pivots   n × float64
//
// with uint32 columns instead when n exceeds 65 536 (sparse.NarrowCols), so
// the width follows from n. L is the strict lower triangle, U the upper one
// with each row led by its diagonal entry. Bit p of a triangle's bitmap
// (bit p%8 of byte p/8, the padding zero) is set when entry p is
// off-diagonal — not the lead of an upper row — and its Float64bits are
// those of its column's weight: the value is then w_j, which the reader is
// handed, and is not written. The leads carry A's own D_S; the pivots
// follow the values, so that ReadDILU runs no recurrence. The rule is
// lossless whatever the values are: an index's S hands it H's column
// weights −(1−c)/outdeg, the value of every H22 entry the Schur fill does
// not touch (most of S); a caller with no weights hands zeros.

// WriterTo returns an encoder of the factors in that layout, classifying
// their entries against weights (one per column) once, so that it can be
// counted and written any number of times without reading an array while
// counting. Its bitmaps are the only allocation. It panics on ILU(0)
// factors, which do not retain their matrix, and on a weight count that is
// not n.
func (f *ILU) WriterTo(weights []float64) io.WriterTo {
	if f.ds == nil {
		panic("lu: only a DILU factorization retains its matrix")
	}
	if len(weights) != f.n {
		panic(fmt.Sprintf("lu: %d column weights for %d columns", len(weights), f.n))
	}
	nl := bitWords(f.l.nnz())
	words := make([]uint64, nl+bitWords(f.u.nnz()))
	e := &diluWriter{f: f, lBits: words[:nl], uBits: words[nl:]}
	f.l.classify(weights, e.lBits)
	f.u.classify(weights, e.uBits)
	for i := 0; i < f.n; i++ {
		p := f.u.rowPtr[i]
		e.uBits[p>>6] &^= 1 << (p & 63)
	}
	e.lClear = f.l.nnz() - popCount(e.lBits)
	e.uClear = f.u.nnz() - popCount(e.uBits)
	return e
}

// diluWriter is DILU factors classified for writing: a bit set for every
// entry written as its column's weight, and the count of clear bits — of
// values written — in each triangle.
type diluWriter struct {
	f              *ILU
	lBits, uBits   []uint64
	lClear, uClear int
}

func (e *diluWriter) WriteTo(w io.Writer) (int64, error) {
	f := e.f
	bw := binio.NewWriter(w)
	bw.Int(f.n)
	bw.Int(f.l.nnz())
	bw.Int(f.u.nnz())
	binio.WriteInts32(bw, f.l.rowPtr)
	f.l.writeCols(bw)
	binio.WriteInts32(bw, f.u.rowPtr)
	f.u.writeCols(bw)
	binio.WriteBits(bw, e.lBits, f.l.nnz())
	binio.WriteBits(bw, e.uBits, f.u.nnz())
	writeClear(bw, e.lBits, e.lClear, f.l.val, nil, nil)
	writeClear(bw, e.uBits, e.uClear, f.u.val, f.u.rowPtr[:f.n], f.ds)
	i := 0
	bw.Stream(f.n, 8, func(b []byte) {
		for o := 0; o < len(b); o += 8 {
			binary.LittleEndian.PutUint64(b[o:], math.Float64bits(f.u.val[f.u.rowPtr[i]]))
			i++
		}
	})
	return bw.Close()
}

func bitWords(n int) int { return (n + 63) / 64 }

func popCount(words []uint64) int {
	var c int
	for _, w := range words {
		c += bits.OnesCount64(w)
	}
	return c
}

// classify sets bit p for every entry p whose value has the Float64bits of
// its column's weight.
func (t *triFactor) classify(weights []float64, set []uint64) {
	if t.col16 != nil {
		classify(t.col16, t.val, weights, set)
	} else {
		classify(t.col32, t.val, weights, set)
	}
}

// classify builds each word of the bitmap in a register with no branch:
// about 57 % of an index's entries are set, at random, which a branch per
// entry mispredicts.
func classify[C uint16 | uint32](col []C, val, weights []float64, set []uint64) {
	val = val[:len(col)]
	for wi := range set {
		lo := wi << 6
		cols := col[lo:min(lo+64, len(col))]
		vals := val[lo : lo+len(cols)]
		var word uint64
		for k, j := range cols {
			d := math.Float64bits(vals[k]) ^ math.Float64bits(weights[j])
			word |= ((d|-d)>>63 ^ 1) << (k & 63) // 1 exactly when d == 0
		}
		set[wi] = word
	}
}

// writeClear writes val at the k positions whose bit is clear, in
// ascending order — at leads[r], the r-th of the ascending positions
// leads, sub[r] instead.
func writeClear(bw *binio.Writer, set []uint64, k int, val []float64, leads []int32, sub []float64) {
	walk := clearBits{set: set, wi: -1}
	lead := 0
	bw.Stream(k, 8, func(b []byte) {
		c, r := walk, lead // in registers, not through the closure, in the loop
		for o := 0; o < len(b); o += 8 {
			p := c.next()
			v := val[p]
			if r < len(leads) && int(leads[r]) == p {
				v = sub[r]
				r++
			}
			binary.LittleEndian.PutUint64(b[o:], math.Float64bits(v))
		}
		walk, lead = c, r
	})
}

// clearBits walks the clear bits of a bitmap in ascending order, a word at
// a time; next must not be called more times than the bitmap has clear
// bits.
type clearBits struct {
	set  []uint64
	wi   int
	left uint64 // the clear bits of set[wi] not yet returned
}

func (c *clearBits) next() int {
	for c.left == 0 {
		c.wi++
		c.left = ^c.set[c.wi]
	}
	p := c.wi<<6 | bits.TrailingZeros64(c.left)
	c.left &= c.left - 1
	return p
}

func (t *triFactor) writeCols(bw *binio.Writer) {
	if t.col16 != nil {
		binio.WriteUint16s(bw, t.col16)
	} else {
		binio.WriteInts32(bw, t.col32)
	}
}

// ReadDILU deserializes factors written by the encoder of WriterTo with the
// same column weights straight into their arrays, in two passes over each
// triangle: every entry first takes its column's weight, then the written
// values are dropped into the entries whose bit is clear, decoded straight
// from the input's chunks. It refuses triangles no factorization could
// hold, bitmaps no encoder writes (a set bit on the lead of an upper row or
// in the padding, or a written value its bit could have stood for), values
// no index's S holds (checkValues), and pivots that are not finite and
// positive. Then it installs the written pivots: the factors are those the
// encoder was made from, bit for bit, and no recurrence runs. A count of
// clear bits that disagrees with the values written shows as a read past,
// or short of, the end of the section the factors were written in.
func ReadDILU(r io.Reader, weights []float64) (*ILU, error) {
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
	if n != int64(len(weights)) {
		return nil, fmt.Errorf("lu: DILU factors of %d rows handed %d column weights", n, len(weights))
	}
	f := &ILU{n: int(n)}
	tris := [2]*triFactor{&f.l, &f.u}
	nnz := [2]int{int(nnzL), int(nnzU)}
	for k, t := range tris {
		var err error
		if t.rowPtr, err = br.Int32s(f.n + 1); err != nil {
			return nil, fmt.Errorf("lu: reading DILU row pointers: %w", err)
		}
		if sparse.NarrowCols(f.n) {
			t.col16, err = br.Uint16s(nnz[k])
		} else {
			t.col32, err = br.Uint32s(nnz[k])
		}
		if err != nil {
			return nil, fmt.Errorf("lu: reading DILU columns: %w", err)
		}
		if err := t.check(f.n, t == &f.u); err != nil {
			return nil, err
		}
	}
	var set [2][]uint64
	for k := range tris {
		var err error
		if set[k], err = br.Bits(nnz[k]); err != nil {
			return nil, fmt.Errorf("lu: reading DILU bitmaps: %w", err)
		}
	}
	for i := 0; i < f.n; i++ {
		if p := f.u.rowPtr[i]; set[1][p>>6]>>(p&63)&1 != 0 {
			return nil, fmt.Errorf("lu: the lead of upper DILU row %d is marked as its column's weight", i)
		}
	}
	// same counts the written values that equal what the first pass put in
	// their entries; only the leads, which are always written, may.
	var same int
	for k, t := range tris {
		t.val = make([]float64, nnz[k])
		t.gatherWeights(weights)
		walk := clearBits{set: set[k], wi: -1}
		val := t.val
		err := br.Stream(nnz[k]-popCount(set[k]), 8, func(b []byte) {
			c := walk // in registers, not through the closure, in the loop
			for o := 0; o < len(b); o += 8 {
				p := c.next()
				v := binary.LittleEndian.Uint64(b[o:])
				if v == math.Float64bits(val[p]) {
					same++
				}
				val[p] = math.Float64frombits(v)
			}
			walk = c
		})
		if err != nil {
			return nil, fmt.Errorf("lu: reading DILU values: %w", err)
		}
	}
	f.ds = make([]float64, f.n)
	for i := range f.ds {
		f.ds[i] = f.u.val[f.u.rowPtr[i]]
		if math.Float64bits(f.ds[i]) == math.Float64bits(weights[i]) {
			same--
		}
	}
	if same != 0 {
		return nil, errors.New("lu: DILU factors write a value their bitmap could have marked as its column's weight")
	}
	if err := f.checkValues(); err != nil {
		return nil, err
	}
	var bad int
	i := 0
	err := br.Stream(f.n, 8, func(b []byte) {
		for o := 0; o < len(b); o += 8 {
			d := math.Float64frombits(binary.LittleEndian.Uint64(b[o:]))
			if !(d > 0 && d <= math.MaxFloat64) {
				bad++
			}
			f.u.val[f.u.rowPtr[i]] = d
			i++
		}
	})
	if err != nil {
		return nil, fmt.Errorf("lu: reading DILU pivots: %w", err)
	}
	if bad > 0 {
		return nil, fmt.Errorf("lu: %d DILU pivots are not finite and positive", bad)
	}
	return f, nil
}

// gatherWeights sets every entry to its column's weight.
func (t *triFactor) gatherWeights(weights []float64) {
	if t.col16 != nil {
		gatherWeights(t.col16, t.val, weights)
	} else {
		gatherWeights(t.col32, t.val, weights)
	}
}

func gatherWeights[C uint16 | uint32](col []C, val, weights []float64) {
	val = val[:len(col)]
	for q, j := range col {
		val[q] = weights[j]
	}
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
