// Package eig computes approximate spectra of (optionally preconditioned)
// sparse operators via Arnoldi projection followed by a shifted complex
// Hessenberg QR iteration. The paper's Figure 7 uses the resulting Ritz
// values to show that ILU preconditioning clusters the Schur complement's
// eigenvalues tightly around 1, which is why preconditioned GMRES converges
// in a fraction of the iterations (Table 4).
package eig

import (
	"math"
	"math/cmplx"
	"math/rand"
	"sort"

	"bepi/internal/solver"
	"bepi/internal/vec"
)

// Preconditioner applies M⁻¹: dst = M⁻¹·src. *lu.ILU satisfies it.
type Preconditioner interface {
	Apply(dst, src []float64)
}

// Arnoldi runs m steps of the Arnoldi iteration on the n-dimensional
// operator a, or on M⁻¹a when pre is non-nil (Fig. 7's spectrum of the
// ILU-preconditioned Schur complement), returning the square upper
// Hessenberg projection H_m (size k×k with k ≤ m; smaller on breakdown).
// The starting vector is pseudo-random with the given seed.
func Arnoldi(a solver.Operator, pre Preconditioner, n, m int, seed int64) [][]complex128 {
	if m > n {
		m = n
	}
	if m <= 0 || n == 0 {
		return nil
	}
	rng := rand.New(rand.NewSource(seed))
	v0 := make([]float64, n)
	for i := range v0 {
		v0[i] = rng.NormFloat64()
	}
	vec.Scale(1/vec.Norm2(v0), v0)

	basis := [][]float64{v0}
	// h[j][i] = entry (i, j) of the Hessenberg matrix, column-major while
	// building (column j has j+2 entries).
	hcols := make([][]float64, 0, m)
	scratch := make([]float64, n)
	steps := 0
	for j := 0; j < m; j++ {
		w := make([]float64, n)
		if pre != nil {
			a.MulVec(scratch, basis[j])
			pre.Apply(w, scratch)
		} else {
			a.MulVec(w, basis[j])
		}
		col := make([]float64, j+2)
		for i := 0; i <= j; i++ {
			col[i] = vec.Dot(w, basis[i])
			vec.AXPY(-col[i], basis[i], w)
		}
		col[j+1] = vec.Norm2(w)
		hcols = append(hcols, col)
		steps = j + 1
		if col[j+1] < 1e-12 {
			break
		}
		vec.Scale(1/col[j+1], w)
		basis = append(basis, w)
	}
	// Square k×k Hessenberg (discard the trailing subdiagonal entry).
	k := steps
	h := make([][]complex128, k)
	for i := range h {
		h[i] = make([]complex128, k)
	}
	for j := 0; j < k; j++ {
		top := j + 1
		if top >= k {
			top = k - 1
		}
		for i := 0; i <= top; i++ {
			h[i][j] = complex(hcols[j][i], 0)
		}
	}
	return h
}

// HessenbergEigenvalues returns the eigenvalues of a (complex) upper
// Hessenberg matrix using the shifted QR iteration with Wilkinson shifts
// and bottom deflation. The input is modified in place.
func HessenbergEigenvalues(h [][]complex128) []complex128 {
	n := len(h)
	eigs := make([]complex128, 0, n)
	act := n
	const maxSweeps = 100
	stall := 0
	for act > 0 {
		if act == 1 {
			eigs = append(eigs, h[0][0])
			act = 0
			break
		}
		// Deflate converged bottom entries.
		sub := cmplx.Abs(h[act-1][act-2])
		scale := cmplx.Abs(h[act-2][act-2]) + cmplx.Abs(h[act-1][act-1])
		if sub <= 1e-14*(scale+1e-300) {
			eigs = append(eigs, h[act-1][act-1])
			act--
			stall = 0
			continue
		}
		// Wilkinson shift: trailing 2×2 eigenvalue nearest h[act-1][act-1].
		mu := wilkinson(h[act-2][act-2], h[act-2][act-1], h[act-1][act-2], h[act-1][act-1])
		if stall > 0 && stall%10 == 0 {
			// Exceptional shift to break rare cycling.
			mu = complex(cmplx.Abs(h[act-1][act-2])+cmplx.Abs(h[act-2][act-3%act]), 0)
		}
		qrStep(h, act, mu)
		stall++
		if stall > maxSweeps*n {
			// Give up on the remaining block: report its diagonal.
			for i := 0; i < act; i++ {
				eigs = append(eigs, h[i][i])
			}
			act = 0
		}
	}
	return eigs
}

// wilkinson returns the eigenvalue of [[a, b], [c, d]] closer to d.
func wilkinson(a, b, c, d complex128) complex128 {
	tr := a + d
	det := a*d - b*c
	disc := cmplx.Sqrt(tr*tr - 4*det)
	l1 := (tr + disc) / 2
	l2 := (tr - disc) / 2
	if cmplx.Abs(l1-d) < cmplx.Abs(l2-d) {
		return l1
	}
	return l2
}

// qrStep performs one explicit shifted QR sweep on the leading act×act
// block of the Hessenberg matrix h: H ← RQ + μI where QR = H − μI.
func qrStep(h [][]complex128, act int, mu complex128) {
	for i := 0; i < act; i++ {
		h[i][i] -= mu
	}
	cs := make([]float64, act-1)
	sn := make([]complex128, act-1)
	// Forward pass: zero the subdiagonal (compute R = Q* H).
	for k := 0; k < act-1; k++ {
		c, s := givensC(h[k][k], h[k+1][k])
		cs[k], sn[k] = c, s
		for j := k; j < act; j++ {
			a, b := h[k][j], h[k+1][j]
			h[k][j] = complex(c, 0)*a + s*b
			h[k+1][j] = -cmplx.Conj(s)*a + complex(c, 0)*b
		}
	}
	// Backward pass: H = R Q (apply rotations on the right).
	for k := 0; k < act-1; k++ {
		c, s := cs[k], sn[k]
		top := k + 2
		if top > act {
			top = act
		}
		for i := 0; i < top; i++ {
			a, b := h[i][k], h[i][k+1]
			h[i][k] = a*complex(c, 0) + b*cmplx.Conj(s)
			h[i][k+1] = -a*s + b*complex(c, 0)
		}
	}
	for i := 0; i < act; i++ {
		h[i][i] += mu
	}
}

// givensC returns c (real) and s (complex) with |c|²+|s|² = 1 such that
// [c s; -conj(s) c]·[a; b] = [r; 0].
func givensC(a, b complex128) (float64, complex128) {
	if b == 0 {
		return 1, 0
	}
	if a == 0 {
		return 0, b / complex(cmplx.Abs(b), 0)
	}
	ta := cmplx.Abs(a)
	d := math.Hypot(ta, cmplx.Abs(b))
	c := ta / d
	s := (a / complex(ta, 0)) * cmplx.Conj(b) / complex(d, 0)
	return c, s
}

// RitzValues returns up to m approximate eigenvalues of the operator
// (preconditioned by pre if non-nil), sorted by decreasing magnitude.
func RitzValues(a solver.Operator, pre Preconditioner, n, m int, seed int64) []complex128 {
	h := Arnoldi(a, pre, n, m, seed)
	if len(h) == 0 {
		return nil
	}
	eigs := HessenbergEigenvalues(h)
	sort.Slice(eigs, func(i, j int) bool { return cmplx.Abs(eigs[i]) > cmplx.Abs(eigs[j]) })
	return eigs
}

// Dispersion summarizes how tightly a set of eigenvalues clusters: it
// returns the centroid and the root-mean-square distance from it. The
// paper's Figure 7 argument is that preconditioning shrinks this dispersion
// dramatically.
func Dispersion(eigs []complex128) (centroid complex128, rms float64) {
	if len(eigs) == 0 {
		return 0, 0
	}
	var sum complex128
	for _, e := range eigs {
		sum += e
	}
	centroid = sum / complex(float64(len(eigs)), 0)
	var ss float64
	for _, e := range eigs {
		d := cmplx.Abs(e - centroid)
		ss += d * d
	}
	return centroid, math.Sqrt(ss / float64(len(eigs)))
}
