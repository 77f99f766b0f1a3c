package core

import (
	"io"

	"bepi/internal/par"
	"bepi/internal/sparse"
)

// mat is the read-only matrix contract the query path needs from the
// stored partition blocks and the Schur complement. Both sparse.CSR and
// the bandwidth-lean sparse.CSR32 satisfy it with bit-identical float64
// kernels, so the engine can hold either layout behind one field type and
// switch between them (Options.Compact, SetCompact) without touching the
// query algorithms. Both serialize to the same (wide) bytes.
type mat interface {
	io.WriterTo
	Rows() int
	Cols() int
	NNZ() int
	MulVec(dst, x []float64)
	MulVecT(dst, x []float64)
	MemoryBytes() int64
}

// asCSR returns the wide view of a stored matrix: the matrix itself when
// already wide, a widened copy when compact. The read-only accessors use it
// so the exported API stays layout-independent.
func asCSR(m mat) *sparse.CSR {
	switch v := m.(type) {
	case *sparse.CSR:
		return v
	case *sparse.CSR32:
		return v.ToCSR()
	}
	panic("core: unknown matrix implementation")
}

// matSetPool points a stored matrix (of either layout) at a compute pool.
func matSetPool(m mat, p *par.Pool) {
	switch v := m.(type) {
	case *sparse.CSR:
		v.SetPool(p)
	case *sparse.CSR32:
		v.SetPool(p)
	}
}

// fitsCompact reports whether a matrix's dimensions fit the uint32 index
// range of the compact layout.
func fitsCompact(m mat) bool {
	const lim = int64(1) << 32
	return int64(m.Rows()) < lim && int64(m.Cols()) < lim
}

// compactMat narrows a wide matrix to the compact layout when possible;
// widenMat is the inverse. Both are identity on nil and on matrices
// already in the requested layout.
func compactMat(m mat) mat {
	if c, ok := m.(*sparse.CSR); ok && fitsCompact(c) {
		return sparse.Compact(c)
	}
	return m
}

func widenMat(m mat) mat {
	if c, ok := m.(*sparse.CSR32); ok {
		return c.ToCSR()
	}
	return m
}
