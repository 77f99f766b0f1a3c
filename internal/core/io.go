package core

import (
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math"

	"bepi/internal/binio"
	"bepi/internal/lu"
	"bepi/internal/reorder"
	"bepi/internal/sparse"
)

// Index persistence: a preprocessed engine can be written to disk once and
// reloaded for later query sessions, which is the whole point of a
// preprocessing method. The layout is little-endian:
//
//	magic     uint32 'BPI1'
//	options   c, tol (float64), variant, maxIter, reserved (int64), k (float64), reserved (int64)
//	n, n1, n2, n3, nblocks  int64
//	perm      n × int64
//	blocks    nblocks × int64
//	h12, h21, h31, h32, schur   (sparse.CSR.WriteTo)
//	blockLU   (lu.BlockLU.WriteTo)
//
// The reserved words are written 0 and ignored on read: older files carry a
// GMRES restart length and a solver id there, options that no longer exist.
// The preconditioner is not stored: recomputing the DILU pivots from S on
// load is one O(|S|) pass and avoids format coupling. Matrices are stored
// in the wide layout.

const indexMagic = 0x42504931

// ErrCorruptIndex is wrapped around every error ReadEngine returns: whatever
// the cause — a header no engine could have written, a truncated or
// malformed array, a failing reader — the bytes read do not make an index.
// The cause stays matchable beside it.
var ErrCorruptIndex = errors.New("core: corrupt index")

// WriteTo serializes the engine. It implements io.WriterTo.
func (e *Engine) WriteTo(w io.Writer) (int64, error) {
	bw := binio.NewWriter(w)
	bw.U32(indexMagic)
	bw.F64(e.opts.C)
	bw.F64(e.opts.Tol)
	bw.Int(int(e.opts.Variant))
	bw.Int(e.opts.MaxIter)
	bw.Int(0)
	bw.F64(e.opts.HubRatio)
	bw.Int(0)
	for _, v := range []int{e.n, e.ord.N1, e.ord.N2, e.ord.N3, len(e.ord.Blocks)} {
		bw.Int(v)
	}
	binio.WriteInts(bw, e.ord.Perm)
	binio.WriteInts(bw, e.ord.Blocks)
	n, err := bw.Close()
	// S's section is streamed from whichever structure holds it, in the one
	// CSR format; no wide copy is made.
	writeSchur := e.schur.WriteTo
	if e.ilu != nil {
		writeSchur = e.ilu.WriteMatrixTo
	}
	for _, write := range []func(io.Writer) (int64, error){
		e.h12.WriteTo, e.h21.WriteTo, e.h31.WriteTo, e.h32.WriteTo, writeSchur, e.h11LU.WriteTo,
	} {
		if err != nil {
			return n, err
		}
		var k int64
		k, err = write(w)
		n += k
	}
	return n, err
}

// ReadEngine deserializes an engine written by WriteTo, recomputing the DILU
// preconditioner if the stored variant requires one. Option words, arrays
// and shapes that no engine could have written, or that disagree with each
// other, are rejected here, not discovered by a query.
func ReadEngine(r io.Reader) (*Engine, error) {
	e, err := readEngine(r)
	if err != nil {
		return nil, fmt.Errorf("%w: %w", ErrCorruptIndex, err)
	}
	return e, nil
}

func readEngine(r io.Reader) (*Engine, error) {
	br := binio.NewReader(r)
	var head [4 + 12*8]byte
	if err := br.Full(head[:]); err != nil {
		return nil, fmt.Errorf("reading header: %w", err)
	}
	if magic := binary.LittleEndian.Uint32(head[:]); magic != indexMagic {
		return nil, fmt.Errorf("bad magic %#x", magic)
	}
	word := func(i int) uint64 { return binary.LittleEndian.Uint64(head[4+8*i:]) }
	e := &Engine{}
	e.opts.C, e.opts.Tol = math.Float64frombits(word(0)), math.Float64frombits(word(1))
	e.opts.Variant = Variant(word(2))
	e.opts.MaxIter = int(word(3))
	e.opts.HubRatio = math.Float64frombits(word(5))
	if err := e.opts.validate(); err != nil {
		return nil, fmt.Errorf("header: %w", err)
	}
	e.n = int(word(7))
	ord := &reorder.Ordering{N1: int(word(8)), N2: int(word(9)), N3: int(word(10))}
	nblocks := int(word(11))
	if e.n < 0 || nblocks < 0 || ord.N1+ord.N2+ord.N3 != e.n {
		return nil, fmt.Errorf("header: n=%d partition=%d+%d+%d", e.n, ord.N1, ord.N2, ord.N3)
	}
	if err := checkNodeCount(e.n); err != nil {
		return nil, err
	}
	var err error
	if ord.Perm, err = br.Ints(e.n); err != nil {
		return nil, fmt.Errorf("reading permutation: %w", err)
	}
	ord.Inv = make([]int, e.n)
	for old, nw := range ord.Perm {
		if nw < 0 || nw >= e.n {
			return nil, fmt.Errorf("permutation entry %d out of range", nw)
		}
		ord.Inv[nw] = old
	}
	if ord.Blocks, err = br.Ints(nblocks); err != nil {
		return nil, fmt.Errorf("reading blocks: %w", err)
	}
	if err := ord.Validate(); err != nil {
		return nil, fmt.Errorf("stored ordering invalid: %w", err)
	}
	e.ord = ord

	n1, n2, n3 := ord.N1, ord.N2, ord.N3
	var mats [5]*sparse.CSR
	for i, shape := range [5][2]int{{n1, n2}, {n2, n1}, {n3, n1}, {n3, n2}, {n2, n2}} {
		m, err := sparse.ReadCSR(br)
		if err != nil {
			return nil, fmt.Errorf("reading matrix %d: %w", i, err)
		}
		if m.Rows() != shape[0] || m.Cols() != shape[1] {
			return nil, fmt.Errorf("matrix %d is %v, the partition wants %dx%d", i, m, shape[0], shape[1])
		}
		mats[i] = m
	}
	if e.h11LU, err = lu.ReadBlockLU(br); err != nil {
		return nil, err
	}
	if e.h11LU.N() != n1 {
		return nil, fmt.Errorf("H11 factors cover %d rows, the partition has %d spokes", e.h11LU.N(), n1)
	}
	// Parallelism is a runtime knob, not part of the index format: a loaded
	// engine starts on the shared process-wide pool; callers re-point it
	// with SetParallelism before serving.
	e.pool = poolFor(0)
	if err := e.storeSchur(mats[4]); err != nil {
		return nil, fmt.Errorf("rebuilding DILU: %w", err)
	}
	e.h12, e.h21 = sparse.Compact(mats[0]), sparse.Compact(mats[1])
	e.h31, e.h32 = sparse.Compact(mats[2]), sparse.Compact(mats[3])
	e.prep.N = e.n
	e.prep.N1, e.prep.N2, e.prep.N3 = ord.N1, ord.N2, ord.N3
	e.prep.Blocks = nblocks
	e.prep.HubRatio = e.opts.HubRatio
	e.attachPool()
	return e, nil
}
