package core

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"errors"
	"fmt"
	"io"
	"math"

	"bepi/internal/binio"
	"bepi/internal/lu"
	"bepi/internal/sparse"
)

// Index persistence: a preprocessed engine can be written to disk once and
// reloaded for later query sessions, which is the whole point of a
// preprocessing method. The file is the index in the layout the engine
// serves it from, little-endian (format version 6):
//
//	magic    uint32 'BePI'
//	version  uint32 6
//	sections, each  length int64 · payload · CRC-32C(payload) uint32:
//	  header    c, tol (float64), variant, maxIter (int64), hubRatio (float64),
//	            n, n1, n2, n3 (int64)
//	  ordering  perm n × uint32 (old id → new id)
//	  h12, h21, h31, h32   (sparse.Pattern.WriteTo: int32 row pointers,
//	                        uint16 columns, no values)
//	  weights   n1+n2 × float64: the H blocks' value of each non-deadend
//	            column, 0 at a column no block holds an entry of
//	  S         (lu.ILU.WriterTo under the hub columns' weights: the strict
//	            lower triangle, and the upper one with each row led by S's
//	            diagonal; int32 row pointers, uint16 columns, a bitmap per
//	            triangle marking the entries whose value is their column's
//	            weight, the other values, then the DILU pivots)
//	  blockLU   (lu.BlockLU.WriteTo: the block count and bounds, then the
//	            packed factors)
//
// The H11 block bounds are stored once, in the blockLU section, and the
// permutation once, without its inverse — as the engine holds them.
//
// A column array is 16-bit exactly when its matrix has at most 65 536
// columns (sparse.NarrowCols) and 32-bit otherwise: H12 and H32 span the n2
// hubs, H21 and H31 the n1 spokes, S the hubs — so each width follows from
// the header, and every array is read at the width it is served in.
//
// Where the file is not the index: an entry of S whose value is its hub
// column's weight −(1−c)/outdeg — an H22 entry the Schur fill does not
// touch, most of S — is one bit, restored from the weights section, and
// the pivots are stored, so loading derives nothing. A flipped bit
// anywhere fails a checksum or a length; a file whose checksums were
// recomputed over corrupt bytes still meets the structural and value
// checks: weights no H has (checkWeights), a bitmap no writer produces, a
// non-finite entry of S or of the H11 factors, a diagonal of S or a pivot
// that is not positive are refused.
//
// Versions 1 to 5 — v1 under the magic 'BPI1', with no version word — are
// refused with ErrIndexVersion: re-running `bepi preprocess` rebuilds the
// index in this format.

const (
	indexMagicV1 = 0x42504931 // 'BPI1', the unversioned magic of version 1
	indexMagic   = 0x49506542 // "BePI" as bytes
	indexVersion = 6
)

// ErrCorruptIndex is wrapped around every error ReadEngine returns but
// ErrIndexVersion: whatever the cause — a header no engine could have
// written, a truncated or malformed array, a checksum mismatch, a failing
// reader — the bytes read do not make an index. The cause stays matchable
// beside it.
var ErrCorruptIndex = errors.New("core: corrupt index")

// ErrIndexVersion is what ReadEngine returns for a file of a format version
// this build does not read: an older one, which re-running `bepi
// preprocess` replaces, or a newer one.
var ErrIndexVersion = errors.New("core: unsupported index format version")

// WriteTo serializes the engine in format version 6. It implements
// io.WriterTo. S's entries are classified against the weights once, before
// anything is counted or written. A sink with a Grow(int) method — a
// bytes.Buffer — is told the file's length first, by a counting pass that
// reads no array, so that it allocates once instead of doubling under the
// writes.
func (e *Engine) WriteTo(w io.Writer) (int64, error) {
	s := e.ilu.WriterTo(e.hw[e.ord.n1:])
	write := func(w io.Writer) (int64, error) {
		bw := binio.NewWriter(w)
		bw.U32(indexMagic)
		bw.U32(indexVersion)
		bw.Section(e.writeHeader)
		bw.Section(e.writeOrdering)
		for _, m := range []*sparse.Pattern{e.h12, e.h21, e.h31, e.h32} {
			bw.Section(m.WriteTo)
		}
		bw.Section(e.writeWeights)
		bw.Section(s.WriteTo)
		bw.Section(e.h11LU.WriteTo)
		return bw.Close()
	}
	if g, ok := w.(interface{ Grow(int) }); ok {
		g.Grow(int(binio.Count(write)))
	}
	return write(w)
}

// IndexHash names the engine by its index: the first 8 bytes of the
// SHA-256 of the stream WriteTo writes, in hex, so engines with the same
// index bytes (replicas of one graph, or a loaded copy) hash identically.
// It reads the whole index (about 7 ms at scale 15 on a 2-vCPU Xeon) on the
// first call only: whoever publishes the engine calls it before the engine
// serves (qexec.New, bepi.Dynamic's rebuild), and later calls are loads.
// An engine that cannot be written hashes to "".
func (e *Engine) IndexHash() string {
	e.hashOnce.Do(func() {
		h := sha256.New()
		if _, err := e.WriteTo(h); err == nil {
			e.hash = hex.EncodeToString(h.Sum(nil)[:8])
		}
	})
	return e.hash
}

func (e *Engine) writeHeader(w io.Writer) (int64, error) {
	bw := binio.NewWriter(w)
	bw.F64(e.opts.C)
	bw.F64(e.opts.Tol)
	bw.Int(int(e.opts.Variant))
	bw.Int(e.opts.MaxIter)
	bw.F64(e.opts.HubRatio)
	for _, v := range []int{e.n, e.ord.n1, e.ord.n2, e.ord.n3} {
		bw.Int(v)
	}
	return bw.Close()
}

func (e *Engine) writeOrdering(w io.Writer) (int64, error) {
	bw := binio.NewWriter(w)
	binio.WriteInts32(bw, e.ord.perm)
	return bw.Close()
}

func (e *Engine) writeWeights(w io.Writer) (int64, error) {
	bw := binio.NewWriter(w)
	binio.WriteFloats(bw, e.hw)
	return bw.Close()
}

// ReadEngine deserializes an engine written by WriteTo, deriving nothing:
// S's weight-valued entries come from the weights section, its pivots from
// its own. Option words, arrays, shapes, weights and factor values that
// no engine could have written, or that disagree with each other, are
// rejected here, not discovered by a query.
func ReadEngine(r io.Reader) (*Engine, error) {
	e, err := readEngine(r)
	if errors.Is(err, ErrIndexVersion) {
		return nil, err
	}
	if err != nil {
		return nil, fmt.Errorf("%w: %w", ErrCorruptIndex, err)
	}
	return e, nil
}

func readEngine(r io.Reader) (*Engine, error) {
	br := binio.NewReader(r)
	var word [4]byte
	if err := br.Full(word[:]); err != nil {
		return nil, fmt.Errorf("reading magic: %w", err)
	}
	switch magic := binary.LittleEndian.Uint32(word[:]); magic {
	case indexMagicV1:
		return nil, versionError(1)
	case indexMagic:
	default:
		return nil, fmt.Errorf("bad magic %#x", magic)
	}
	if err := br.Full(word[:]); err != nil {
		return nil, fmt.Errorf("reading version: %w", err)
	}
	switch v := binary.LittleEndian.Uint32(word[:]); v {
	case indexVersion:
		return readSections(br)
	case 0:
		return nil, errors.New("version 0 under the versioned magic")
	default:
		return nil, versionError(v)
	}
}

// versionError is ErrIndexVersion for a file of format version v.
func versionError(v uint32) error {
	if v > indexVersion {
		return fmt.Errorf("%w %d: this build reads version %d", ErrIndexVersion, v, indexVersion)
	}
	return fmt.Errorf("%w %d: this build reads version %d only; re-run `bepi preprocess` to rebuild the index", ErrIndexVersion, v, indexVersion)
}

// readSections reads the sections of a file, the magic and version word
// consumed.
func readSections(br *binio.Reader) (*Engine, error) {
	section := func(what string, read func() error) error {
		if err := br.Section(); err != nil {
			return fmt.Errorf("%s: %w", what, err)
		}
		if err := read(); err != nil {
			return fmt.Errorf("%s: %w", what, err)
		}
		if err := br.EndSection(); err != nil {
			return fmt.Errorf("%s: %w", what, err)
		}
		return nil
	}
	var head [headerWords * 8]byte
	if err := section("header", func() error { return br.Full(head[:]) }); err != nil {
		return nil, err
	}
	var words [headerWords]uint64
	for i := range words {
		words[i] = binary.LittleEndian.Uint64(head[8*i:])
	}
	e, err := engineFromHeader(words)
	if err != nil {
		return nil, err
	}
	err = section("ordering", func() error {
		perm, err := br.Uint32s(e.n)
		if err != nil {
			return err
		}
		return e.setPerm(perm)
	})
	if err != nil {
		return nil, err
	}
	n1, n2, n3 := e.ord.n1, e.ord.n2, e.ord.n3
	shapes := [4][2]int{{n1, n2}, {n2, n1}, {n3, n1}, {n3, n2}}
	var pats [4]*sparse.Pattern
	for i, shape := range shapes {
		err := section(fmt.Sprintf("matrix %d", i), func() error {
			p, err := sparse.ReadPattern(br)
			if err != nil {
				return err
			}
			if p.Rows() != shape[0] || p.Cols() != shape[1] {
				return fmt.Errorf("%v, the partition wants %dx%d", p, shape[0], shape[1])
			}
			pats[i] = p
			return nil
		})
		if err != nil {
			return nil, err
		}
	}
	e.h12, e.h21, e.h31, e.h32 = pats[0], pats[1], pats[2], pats[3]
	err = section("H weights", func() error {
		e.hw, err = br.Floats(n1 + n2)
		return err
	})
	if err != nil {
		return nil, err
	}
	if err := e.checkWeights(); err != nil {
		return nil, err
	}
	var s *lu.ILU
	err = section("S", func() error {
		s, err = lu.ReadDILU(br, e.hw[n1:])
		return err
	})
	if err != nil {
		return nil, err
	}
	if err := section("H11 factors", func() error { return e.readBlockLU(br) }); err != nil {
		return nil, err
	}
	e.ilu = s
	e.prep.SchurNNZ = s.NNZ()
	return e.loaded(), nil
}

// blockCol0 is, for H12, H21, H31 and H32 in turn, the first column of H
// the block spans: H12 and H32 span the hubs, the others the spokes.
func (e *Engine) blockCol0() [4]int {
	n1 := e.ord.n1
	return [4]int{n1, 0, 0, n1}
}

// checkWeights refuses weights no engine holds. A column that holds an
// entry of a stored block carries −(1−c)/outdeg for an out-degree of at
// least one, a number in [−(1−c), 0); any other column carries 0.
func (e *Engine) checkWeights() error {
	used := make([]bool, len(e.hw))
	blocks := [4]*sparse.Pattern{e.h12, e.h21, e.h31, e.h32}
	for i, lo := range e.blockCol0() {
		blocks[i].MarkColumns(0, blocks[i].Rows(), used[lo:lo+blocks[i].Cols()])
	}
	floor := -(1 - e.opts.C)
	for j, w := range e.hw {
		if used[j] && !(w >= floor && w < 0) || !used[j] && w != 0 {
			return fmt.Errorf("H weights: column %d (in a block: %t) has weight %v", j, used[j], w)
		}
	}
	return nil
}

// headerWords is the length of the header section in 8-byte words.
const headerWords = 9

// engineFromHeader starts a loaded engine from the header words in the
// order WriteTo writes them — c, tol, variant, maxIter, hubRatio, n, n1,
// n2, n3 — refusing option words no engine carries and a partition that
// does not add up.
func engineFromHeader(w [headerWords]uint64) (*Engine, error) {
	e := &Engine{}
	e.opts.C, e.opts.Tol = math.Float64frombits(w[0]), math.Float64frombits(w[1])
	e.opts.Variant = Variant(w[2])
	e.opts.MaxIter = int(w[3])
	e.opts.HubRatio = math.Float64frombits(w[4])
	if err := e.opts.validate(); err != nil {
		return nil, fmt.Errorf("header: %w", err)
	}
	e.n = int(w[5])
	e.ord = nodeOrder{n1: int(w[6]), n2: int(w[7]), n3: int(w[8])}
	if e.n < 0 || e.ord.n1 < 0 || e.ord.n2 < 0 || e.ord.n3 < 0 || e.ord.n1+e.ord.n2+e.ord.n3 != e.n {
		return nil, fmt.Errorf("header: n=%d partition=%d+%d+%d", e.n, e.ord.n1, e.ord.n2, e.ord.n3)
	}
	if err := checkNodeCount(e.n); err != nil {
		return nil, err
	}
	return e, nil
}

// setPerm installs the stored permutation, refusing one that is not a
// permutation of the engine's n nodes: an entry out of range, or one
// repeated.
func (e *Engine) setPerm(perm []uint32) error {
	seen := make([]bool, e.n)
	for old, nw := range perm {
		if int64(nw) >= int64(e.n) {
			return fmt.Errorf("permutation entry %d of node %d out of range [0,%d)", nw, old, e.n)
		}
		if seen[nw] {
			return fmt.Errorf("permutation entry %d repeated at node %d", nw, old)
		}
		seen[nw] = true
	}
	e.ord.perm = perm
	return nil
}

func (e *Engine) readBlockLU(br *binio.Reader) error {
	var err error
	if e.h11LU, err = lu.ReadBlockLU(br); err != nil {
		return err
	}
	if e.h11LU.N() != e.ord.n1 {
		return fmt.Errorf("H11 factors cover %d rows, the partition has %d spokes", e.h11LU.N(), e.ord.n1)
	}
	return nil
}

// loaded finishes an engine whose matrices are in place. Parallelism is a
// runtime knob, not part of the index format: a loaded engine starts on the
// shared process-wide pool; callers re-point it with SetParallelism before
// serving.
func (e *Engine) loaded() *Engine {
	e.pool = poolFor(0)
	e.prep.N = e.n
	e.prep.N1, e.prep.N2, e.prep.N3 = e.ord.n1, e.ord.n2, e.ord.n3
	e.prep.Blocks = e.h11LU.NumBlocks()
	e.prep.HubRatio = e.opts.HubRatio
	e.attachPool()
	return e
}
