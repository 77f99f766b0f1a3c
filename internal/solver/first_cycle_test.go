package solver

import (
	"math"
	"math/rand"
	"testing"

	"bepi/internal/lu"
	"bepi/internal/vec"
)

// counted wraps an operator and a preconditioner and counts their uses.
type counted struct {
	a       Operator
	m       Preconditioner
	mulVecs int
	applies int
}

func (c *counted) MulVec(dst, x []float64) { c.mulVecs++; c.a.MulVec(dst, x) }
func (c *counted) Apply(dst, x []float64)  { c.applies++; c.m.Apply(dst, x) }

// gmresRecomputedFirstResidual is GMRES as it ran before its start reused
// t = M⁻¹b: it computes the first residual M⁻¹(b − A·0) with an operator
// product and a second preconditioner sweep. Kept as the reference the
// production solver must match bit for bit.
func gmresRecomputedFirstResidual(a Operator, m Preconditioner, b []float64, tol float64) ([]float64, int) {
	n := len(b)
	x := make([]float64, n)
	t := make([]float64, n)
	m.Apply(t, b)
	normT := vec.Norm2(t)
	scratch := make([]float64, n)
	a.MulVec(scratch, x)
	vec.Sub(scratch, b, scratch)
	z := make([]float64, n)
	m.Apply(z, scratch)
	beta := vec.Norm2(z)
	vec.Scale(1/beta, z)
	v := [][]float64{z}
	var h [][]float64
	var cs, sn []float64
	g := []float64{beta}
	iters := 0
	for j := 0; ; j++ {
		w := make([]float64, n)
		a.MulVec(scratch, v[j])
		m.Apply(w, scratch)
		hj := make([]float64, j+2)
		for i := 0; i <= j; i++ {
			hj[i] = vec.Dot(w, v[i])
			vec.AXPY(-hj[i], v[i], w)
		}
		hj[j+1] = vec.Norm2(w)
		vec.Scale(1/hj[j+1], w)
		v = append(v, w)
		for i := 0; i < j; i++ {
			hj[i], hj[i+1] = cs[i]*hj[i]+sn[i]*hj[i+1], -sn[i]*hj[i]+cs[i]*hj[i+1]
		}
		c, s := givens(hj[j], hj[j+1])
		cs, sn = append(cs, c), append(sn, s)
		hj[j] = c*hj[j] + s*hj[j+1]
		hj[j+1] = 0
		h = append(h, hj)
		g = append(g, -s*g[j])
		g[j] = c * g[j]
		iters++
		if math.Abs(g[j+1])/normT <= tol {
			return assemble(make([]float64, n), v, h, g, iters), iters
		}
	}
}

// TestGMRESFirstCycleReusesPreconditionedRHS checks GMRES's start two ways
// on the package's fixtures: a solve costs exactly one operator product per
// iteration (none for the initial residual) and one preconditioner sweep
// per iteration plus the one for M⁻¹b, and its solution and iteration count
// are those of the sequence that recomputed the first residual.
func TestGMRESFirstCycleReusesPreconditionedRHS(t *testing.T) {
	for _, fx := range []struct {
		seed    int64
		n       int
		density float64
		ilu     bool
	}{
		{1, 40, 0.2, false}, {2, 50, 0.3, false}, {3, 60, 0.15, true}, {4, 200, 0.03, true}, {4, 200, 0.03, false},
	} {
		rng := rand.New(rand.NewSource(fx.seed))
		a := randDiagDominant(rng, fx.n, fx.density)
		b := make([]float64, fx.n)
		for i := range b {
			b[i] = rng.NormFloat64()
		}
		b[0] = math.Copysign(0, -1) // a −0 in b must survive the shortcut too
		var m Preconditioner = identity{}
		if fx.ilu {
			pre, err := lu.FactorILU0(a)
			if err != nil {
				t.Fatal(err)
			}
			m = pre
		}
		c := &counted{a: a, m: m}
		x, stats, err := GMRES(c, b, GMRESOptions{Tol: 1e-10, Precond: c})
		if err != nil {
			t.Fatal(err)
		}
		if c.mulVecs != stats.Iterations || c.applies != stats.Iterations+1 {
			t.Errorf("seed %d ilu=%v: %d iterations cost %d MulVec and %d Apply, want %d and %d",
				fx.seed, fx.ilu, stats.Iterations, c.mulVecs, c.applies, stats.Iterations, stats.Iterations+1)
		}
		want, iters := gmresRecomputedFirstResidual(a, m, b, 1e-10)
		if stats.Iterations != iters {
			t.Errorf("seed %d ilu=%v: %d iterations, reference took %d", fx.seed, fx.ilu, stats.Iterations, iters)
		}
		for i := range want {
			if math.Float64bits(x[i]) != math.Float64bits(want[i]) {
				t.Fatalf("seed %d ilu=%v: x[%d] = %x, reference %x", fx.seed, fx.ilu, i,
					math.Float64bits(x[i]), math.Float64bits(want[i]))
			}
		}
	}
}
