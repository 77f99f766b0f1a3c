package lu

// Eisenstat applies the split-preconditioned operator of a DILU
// factorization,
//
//	Â = D·L̂⁻¹ · A · Û⁻¹,
//
// in one pass over the factors (Eisenstat, SIAM J. Sci. Stat. Comput. 2,
// 1981). Because the factors share A's off-diagonals, A = L̂ + Û − K with
// K = 2D − D_S (formed per row from the stored diagonal D_S of A, never
// stored), and with t = Û⁻¹·v
//
//	A·t = L̂·t + v − K·t   ⇒   Â·v = D·(t + L̂⁻¹·(v − K·t)):
//
// one backward and one forward triangular sweep, and no product with A. A
// system A·x = b is solved as Â·y = Left(b), x = Right(y). The value owns
// the sweep's one scratch vector, so it serves one solve at a time; the
// factorization it reads is shared.
type Eisenstat struct {
	f *ILU
	t []float64
}

// Eisenstat returns a one-pass operator over f, which must come from
// FactorDILU.
func (f *ILU) Eisenstat() *Eisenstat {
	if f.ds == nil {
		panic("lu: Eisenstat needs a DILU factorization")
	}
	return &Eisenstat{f: f, t: make([]float64, f.n)}
}

// ILU returns the factorization the operator reads.
func (o *Eisenstat) ILU() *ILU { return o.f }

// MulVec computes dst = Â·v. dst and v must not alias. It implements the
// iterative solvers' operator contract.
func (o *Eisenstat) MulVec(dst, v []float64) {
	l, u := &o.f.l, &o.f.u
	if u.col16 != nil {
		eisenstatUpper(u.rowPtr, u.col16, u.val, dst, o.t, v)
		eisenstatLower(l.rowPtr, l.col16, l.val, o.f.ds, dst, o.t, v)
	} else {
		eisenstatUpper(u.rowPtr, u.col32, u.val, dst, o.t, v)
		eisenstatLower(l.rowPtr, l.col32, l.val, o.f.ds, dst, o.t, v)
	}
}

// Left computes dst = D·L̂⁻¹·b, the right-hand side of the split system.
// dst and b may alias.
func (o *Eisenstat) Left(dst, b []float64) {
	l, u := &o.f.l, &o.f.u
	if l.col16 != nil {
		eisenstatLeft(l.rowPtr, l.col16, l.val, u.rowPtr, u.val, dst, o.t, b)
	} else {
		eisenstatLeft(l.rowPtr, l.col32, l.val, u.rowPtr, u.val, dst, o.t, b)
	}
}

// Right computes dst = Û⁻¹·y, mapping a solution (or iterate) of the split
// system back to one of A·x = b. dst and y may alias.
func (o *Eisenstat) Right(dst, y []float64) {
	if len(dst) > 0 && &dst[0] != &y[0] {
		copy(dst, y)
	}
	u := &o.f.u
	if u.col16 != nil {
		sweepUpper(u.rowPtr, u.col16, u.val, dst)
	} else {
		sweepUpper(u.rowPtr, u.col32, u.val, dst)
	}
}

// TrafficBytes approximates the bytes one call of each method moves: the
// factor arrays it streams (plus D_S for MulVec) and its vector operands —
// three for MulVec, two for each half-pass.
func (o *Eisenstat) TrafficBytes() (mulVec, left, right int64) {
	vec := int64(8 * o.f.n)
	return o.f.MemoryBytes() + 3*vec, o.f.l.memoryBytes() + 2*vec, o.f.u.memoryBytes() + 2*vec
}

// eisenstatUpper is the backward half of MulVec: t = Û⁻¹·v, with each pivot
// parked in dst so the forward half reads it sequentially instead of
// gathering it from the upper factor.
func eisenstatUpper[C uint16 | uint32](rowPtr []int32, col []C, val, dst, t, v []float64) {
	for i := len(v) - 1; i >= 0; i-- {
		lo, hi := int(rowPtr[i]), int(rowPtr[i+1])
		s := subRowDesc(v[i], col[lo+1:hi], val[lo+1:hi], t)
		d := val[lo]
		t[i] = s / d
		dst[i] = d
	}
}

// eisenstatLower is the forward half: w = L̂⁻¹·(v − K·t) overwrites t row by
// row (t[i] is dead once row i has read it) and dst = D·(t + w). K's entry
// is formed from the pivot the backward half parked and the matrix's own
// diagonal, k = 2·d − ds[i]. The sum d·t[i] + (d·w[i]) uses w's pre-division
// numerator.
func eisenstatLower[C uint16 | uint32](rowPtr []int32, col []C, val, ds, dst, t, v []float64) {
	for i := range v {
		lo, hi := int(rowPtr[i]), int(rowPtr[i+1])
		ti := t[i]
		d := dst[i]
		k := 2*d - ds[i]
		s := subRow(v[i]-k*ti, col[lo:hi], val[lo:hi], t)
		dst[i] = d*ti + s
		t[i] = s / d
	}
}

// eisenstatLeft is forward substitution with L̂ keeping the numerators:
// t = L̂⁻¹·b, dst = D·t.
func eisenstatLeft[C uint16 | uint32](rowPtr []int32, col []C, val []float64, uRowPtr []int32, uVal, dst, t, b []float64) {
	for i := range b {
		lo, hi := int(rowPtr[i]), int(rowPtr[i+1])
		s := subRow(b[i], col[lo:hi], val[lo:hi], t)
		dst[i] = s
		t[i] = s / uVal[uRowPtr[i]]
	}
}
