// Package vec provides the small set of dense-vector kernels shared by the
// iterative solvers and the BePI engine. Every product that meets a sum is
// rounded by an explicit float64(…) conversion, which forbids the compiler
// to fuse the two into one multiply-add: the kernels round the same way on
// every GOARCH.
package vec

import "math"

// Dot returns the inner product of x and y (lengths must match).
func Dot(x, y []float64) float64 {
	if len(x) != len(y) {
		panic("vec: Dot length mismatch")
	}
	var s float64
	for i, v := range x {
		s += float64(v * y[i])
	}
	return s
}

// Norm2 returns the Euclidean norm of x.
func Norm2(x []float64) float64 {
	// Scaled accumulation avoids overflow for extreme values.
	var scale, ssq float64 = 0, 1
	for _, v := range x {
		if v == 0 {
			continue
		}
		a := math.Abs(v)
		if scale < a {
			r := scale / a
			ssq = 1 + float64(ssq*r*r)
			scale = a
		} else {
			r := a / scale
			ssq += float64(r * r)
		}
	}
	return scale * math.Sqrt(ssq)
}

// AXPY computes y += alpha·x in place.
func AXPY(alpha float64, x, y []float64) {
	if len(x) != len(y) {
		panic("vec: AXPY length mismatch")
	}
	for i, v := range x {
		y[i] += float64(alpha * v)
	}
}

// Scale multiplies x by alpha in place.
func Scale(alpha float64, x []float64) {
	for i := range x {
		x[i] *= alpha
	}
}

// Sub computes dst = x − y.
func Sub(dst, x, y []float64) {
	if len(dst) != len(x) || len(x) != len(y) {
		panic("vec: Sub length mismatch")
	}
	for i := range dst {
		dst[i] = x[i] - y[i]
	}
}

// Sum returns the sum of entries of x.
func Sum(x []float64) float64 {
	var s float64
	for _, v := range x {
		s += v
	}
	return s
}

// Dist2 returns the Euclidean distance between x and y.
func Dist2(x, y []float64) float64 {
	if len(x) != len(y) {
		panic("vec: Dist2 length mismatch")
	}
	var s float64
	for i := range x {
		d := x[i] - y[i]
		s += float64(d * d)
	}
	return math.Sqrt(s)
}

// ArgMax returns the index of the largest entry (first on ties), or -1 for
// an empty vector.
func ArgMax(x []float64) int {
	if len(x) == 0 {
		return -1
	}
	best := 0
	for i := 1; i < len(x); i++ {
		if x[i] > x[best] {
			best = i
		}
	}
	return best
}
