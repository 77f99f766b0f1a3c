// Package dense provides a compact row-major dense matrix used by the
// per-block LU factorization of H11, the Bear baseline's explicit Schur
// inverse, the Hessenberg eigen-solver, and the exact ground-truth solves in
// tests and Appendix-I style experiments.
package dense

import (
	"fmt"
	"math"
)

// Matrix is a row-major dense matrix.
type Matrix struct {
	R, C int
	Data []float64 // len R*C, Data[i*C+j] = element (i, j)
}

// New returns a zero R×C matrix.
func New(r, c int) *Matrix {
	if r < 0 || c < 0 {
		panic(fmt.Sprintf("dense: negative dimension %dx%d", r, c))
	}
	return &Matrix{R: r, C: c, Data: make([]float64, r*c)}
}

// At returns element (i, j).
func (m *Matrix) At(i, j int) float64 { return m.Data[i*m.C+j] }

// Set assigns element (i, j).
func (m *Matrix) Set(i, j int, v float64) { m.Data[i*m.C+j] = v }

// Row returns a view of row i (shared storage).
func (m *Matrix) Row(i int) []float64 { return m.Data[i*m.C : (i+1)*m.C] }

// Clone returns a deep copy.
func (m *Matrix) Clone() *Matrix {
	out := New(m.R, m.C)
	copy(out.Data, m.Data)
	return out
}

// MulVec computes dst = M·x.
func (m *Matrix) MulVec(dst, x []float64) {
	if len(dst) != m.R || len(x) != m.C {
		panic("dense: MulVec dimension mismatch")
	}
	for i := 0; i < m.R; i++ {
		row := m.Data[i*m.C : (i+1)*m.C]
		var s float64
		for j, v := range row {
			s += v * x[j]
		}
		dst[i] = s
	}
}

// Mul returns M·B as a new matrix.
func (m *Matrix) Mul(b *Matrix) *Matrix {
	if m.C != b.R {
		panic(fmt.Sprintf("dense: Mul inner dims %d vs %d", m.C, b.R))
	}
	out := New(m.R, b.C)
	for i := 0; i < m.R; i++ {
		arow := m.Data[i*m.C : (i+1)*m.C]
		orow := out.Data[i*b.C : (i+1)*b.C]
		for t, a := range arow {
			if a == 0 {
				continue
			}
			brow := b.Data[t*b.C : (t+1)*b.C]
			for j, bv := range brow {
				orow[j] += a * bv
			}
		}
	}
	return out
}

// LU factors a square matrix in place into L (unit lower, strict part) and U
// (upper including diagonal) without pivoting. It returns an error if a
// pivot underflows. Pivot-free LU is numerically safe for the strictly
// diagonally dominant systems this repository factors (H and its diagonal
// blocks for any restart probability 0 < c < 1).
func (m *Matrix) LU() error {
	if m.R != m.C {
		panic("dense: LU requires a square matrix")
	}
	n := m.R
	for k := 0; k < n; k++ {
		piv := m.Data[k*n+k]
		if math.Abs(piv) < 1e-300 {
			return fmt.Errorf("dense: zero pivot at %d", k)
		}
		inv := 1 / piv
		for i := k + 1; i < n; i++ {
			l := m.Data[i*n+k] * inv
			m.Data[i*n+k] = l
			if l == 0 {
				continue
			}
			rowK := m.Data[k*n+k+1 : k*n+n]
			rowI := m.Data[i*n+k+1 : i*n+n]
			for j, u := range rowK {
				rowI[j] -= l * u
			}
		}
	}
	return nil
}

// LUSolve solves (LU)x = b in place on b, where m holds packed LU factors
// from LU().
func (m *Matrix) LUSolve(b []float64) {
	n := m.R
	if len(b) != n {
		panic("dense: LUSolve length mismatch")
	}
	// Forward: L y = b (unit diagonal).
	for i := 1; i < n; i++ {
		row := m.Data[i*n : i*n+i]
		var s float64
		for j, l := range row {
			s += l * b[j]
		}
		b[i] -= s
	}
	// Backward: U x = y.
	for i := n - 1; i >= 0; i-- {
		row := m.Data[i*n : (i+1)*n]
		s := b[i]
		for j := i + 1; j < n; j++ {
			s -= row[j] * b[j]
		}
		b[i] = s / row[i]
	}
}

// Solve computes x with A·x = b using a fresh LU factorization (A is not
// modified). Intended for small systems and ground-truth computation.
func (m *Matrix) Solve(b []float64) ([]float64, error) {
	lu := m.Clone()
	if err := lu.LU(); err != nil {
		return nil, err
	}
	x := make([]float64, len(b))
	copy(x, b)
	lu.LUSolve(x)
	return x, nil
}

// Inverse returns A⁻¹ computed column-by-column from an LU factorization.
func (m *Matrix) Inverse() (*Matrix, error) {
	if m.R != m.C {
		panic("dense: Inverse requires a square matrix")
	}
	n := m.R
	lu := m.Clone()
	if err := lu.LU(); err != nil {
		return nil, err
	}
	inv := New(n, n)
	col := make([]float64, n)
	for j := 0; j < n; j++ {
		for i := range col {
			col[i] = 0
		}
		col[j] = 1
		lu.LUSolve(col)
		for i := 0; i < n; i++ {
			inv.Data[i*n+j] = col[i]
		}
	}
	return inv, nil
}

// MemoryBytes reports the storage footprint of the matrix values.
func (m *Matrix) MemoryBytes() int64 { return int64(len(m.Data)) * 8 }

// String returns a short shape description.
func (m *Matrix) String() string { return fmt.Sprintf("Dense{%dx%d}", m.R, m.C) }
