package lu

import (
	"bytes"
	"errors"
	"math"
	"math/rand"
	"slices"
	"strings"
	"sync"
	"testing"

	"bepi/internal/dense"
	"bepi/internal/par"
	"bepi/internal/sparse"
)

// blockDiagCSR builds a strictly diagonally dominant block-diagonal matrix
// with the given block sizes.
func blockDiagCSR(rng *rand.Rand, sizes []int) *sparse.CSR {
	n := 0
	for _, s := range sizes {
		n += s
	}
	a := sparse.NewCOO(n, n)
	lo := 0
	for _, s := range sizes {
		for i := lo; i < lo+s; i++ {
			a.Add(i, i, 4+rng.Float64())
			for j := lo; j < lo+s; j++ {
				if j != i && rng.Float64() < 0.5 {
					a.Add(i, j, rng.NormFloat64())
				}
			}
		}
		lo += s
	}
	return a.ToCSR()
}

// fillFrom is the fill that writes each block from a block-diagonal CSR,
// the way FactorBlockDiag fills it.
func fillFrom(m *sparse.CSR) func(b, lo int, blk *dense.Matrix) error {
	return func(b, lo int, blk *dense.Matrix) error {
		for i := lo; i < lo+blk.R; i++ {
			s, e := m.RowRange(i)
			for p := s; p < e; p++ {
				blk.Set(i-lo, m.ColIdx()[p]-lo, m.Values()[p])
			}
		}
		return nil
	}
}

// sameBits fails unless a and b hold the same float64 bits.
func sameBits(t *testing.T, what string, a, b []float64) {
	t.Helper()
	if len(a) != len(b) {
		t.Fatalf("%s: %d values, want %d", what, len(a), len(b))
	}
	for k := range a {
		if math.Float64bits(a[k]) != math.Float64bits(b[k]) {
			t.Fatalf("%s: value %d is %v, want %v", what, k, a[k], b[k])
		}
	}
}

// TestRefactorBitIdentical checks that refactoring only the changed blocks
// of a perturbed block-diagonal matrix yields factors bit-identical to a
// from-scratch FactorBlockDiag of the perturbed matrix, that the receiver's
// array is not written, and that an empty block list returns the receiver.
func TestRefactorBitIdentical(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	sizes := []int{3, 5, 2, 7, 4}
	m := blockDiagCSR(rng, sizes)
	base, err := FactorBlockDiag(m, sizes)
	if err != nil {
		t.Fatal(err)
	}
	before := slices.Clone(base.data)

	// Perturb blocks 1 and 3 (stay dominant).
	m2 := m.Clone()
	for _, b := range []int{1, 3} {
		lo, hi := base.BlockRange(b)
		for i := lo; i < hi; i++ {
			s, e := m2.RowRange(i)
			for p := s; p < e; p++ {
				if m2.ColIdx()[p] == i {
					m2.Values()[p] += 1
				}
			}
		}
	}

	patched, err := base.Refactor([]int{1, 3}, fillFrom(m2))
	if err != nil {
		t.Fatal(err)
	}
	full, err := FactorBlockDiag(m2, sizes)
	if err != nil {
		t.Fatal(err)
	}
	sameBits(t, "patched factors", patched.data, full.data)
	sameBits(t, "receiver after a refactor", base.data, before)
	if &patched.offsets[0] != &base.offsets[0] {
		t.Fatal("offsets slice not shared")
	}
	if same, err := base.Refactor(nil, fillFrom(m2)); err != nil || same != base {
		t.Fatalf("empty refactor returned %p, %v; want the receiver %p", same, err, base)
	}
}

// TestRefactorErrors checks the out-of-range, out-of-order, fill and
// singular-block error paths, that a failure is reported at the lowest
// listed block, and that a failed refactor leaves the receiver as it was.
func TestRefactorErrors(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	sizes := []int{2, 3}
	m := blockDiagCSR(rng, sizes)
	base, err := FactorBlockDiag(m, sizes)
	if err != nil {
		t.Fatal(err)
	}
	before := slices.Clone(base.data)
	errFill := errors.New("fill refused")
	zero := func(b, lo int, blk *dense.Matrix) error { return nil }
	for _, c := range []struct {
		name   string
		blocks []int
		fill   func(b, lo int, blk *dense.Matrix) error
		want   string
	}{
		{"out of range", []int{5}, fillFrom(m), "out of ascending order"},
		{"negative", []int{-1}, fillFrom(m), "out of ascending order"},
		{"repeated", []int{1, 1}, fillFrom(m), "out of ascending order"},
		{"descending", []int{1, 0}, fillFrom(m), "out of ascending order"},
		{"fill", []int{0}, func(int, int, *dense.Matrix) error { return errFill }, errFill.Error()},
		{"singular", []int{0, 1}, zero, "factoring block 0"},
	} {
		if _, err := base.Refactor(c.blocks, c.fill); err == nil || !strings.Contains(err.Error(), c.want) {
			t.Errorf("%s: error %v, want one containing %q", c.name, err, c.want)
		}
		sameBits(t, c.name+": receiver after a failed refactor", base.data, before)
	}
	// Base must still solve correctly after the failures above.
	x := []float64{1, 2, 3, 4, 5}
	base.Solve(x)
	y := make([]float64, 5)
	m.MulVec(y, x)
	for i, want := range []float64{1, 2, 3, 4, 5} {
		if d := y[i] - want; d > 1e-9 || d < -1e-9 {
			t.Fatalf("base corrupted: residual %v at %d", d, i)
		}
	}
}

// TestBlockLUOneArray: a built (serially and on a pool), a loaded and a
// refactored BlockLU each hold exactly Σs² factor values, in one array, and
// report them as MemoryBytes' 8·Σs² + 8·(nb+1).
func TestBlockLUOneArray(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	sizes := randSizes(60, 6, 4)
	m := blockDiagCSR(rng, sizes)
	squares := 0
	for _, s := range sizes {
		squares += s * s
	}
	built, err := FactorBlockDiag(m, sizes)
	if err != nil {
		t.Fatal(err)
	}
	pooled, err := FactorBlockDiagPool(m, sizes, par.NewPool(3))
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if _, err := built.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	loaded, err := ReadBlockLU(&buf)
	if err != nil {
		t.Fatal(err)
	}
	patched, err := built.Refactor([]int{0, 7, 59}, fillFrom(m))
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		name string
		f    *BlockLU
	}{{"built", built}, {"pooled", pooled}, {"loaded", loaded}, {"refactored", patched}} {
		if len(c.f.data) != squares {
			t.Errorf("%s: %d factor values, want Σs² = %d", c.name, len(c.f.data), squares)
		}
		if want := int64(8*squares + 8*(len(sizes)+1)); c.f.MemoryBytes() != want {
			t.Errorf("%s: MemoryBytes %d, want %d", c.name, c.f.MemoryBytes(), want)
		}
		for b := range sizes {
			if blk := c.f.block(b); &blk.Data[0] != &c.f.data[c.f.at[b]] || blk.R != sizes[b] {
				t.Fatalf("%s: block %d is not its place in the one array", c.name, b)
			}
		}
		sameBits(t, c.name, c.f.data, built.data)
	}
}

// TestBlockLUFactorAllocsFlat: factoring allocates the array once, not a
// value per block, so 1 000 blocks of size 1 cost as many allocations as
// 10, serially and on a pool.
func TestBlockLUFactorAllocsFlat(t *testing.T) {
	pool := par.NewPool(2)
	allocs := func(nb int, p *par.Pool) float64 {
		sizes := make([]int, nb)
		for i := range sizes {
			sizes[i] = 1
		}
		fill := func(b, lo int, blk *dense.Matrix) error {
			blk.Set(0, 0, 2)
			return nil
		}
		return testing.AllocsPerRun(20, func() {
			if _, err := FactorBlocksPool(nb, sizes, fill, p); err != nil {
				t.Fatal(err)
			}
		})
	}
	for _, c := range []struct {
		name string
		p    *par.Pool
	}{{"serial", nil}, {"pool", pool}} {
		few, many := allocs(10, c.p), allocs(1000, c.p)
		t.Logf("%s: %.0f allocs for 10 blocks, %.0f for 1000", c.name, few, many)
		if many > few {
			t.Errorf("%s: %.0f allocs for 1000 blocks, %.0f for 10: the count grows with the blocks", c.name, many, few)
		}
	}
}

// TestRefactorConcurrentSolves runs SolvePool on one BlockLU from several
// goroutines while refactors build from it, and checks every answer equals
// the receiver's own before the refactors, bit for bit: a refactor reads
// the receiver's array and never writes it.
func TestRefactorConcurrentSolves(t *testing.T) {
	sizes := randSizes(1500, 5, 8)
	m := parBlockDiag(sizes, 9)
	pool := par.NewPool(2)
	base, err := FactorBlockDiagPool(m, sizes, pool)
	if err != nil {
		t.Fatal(err)
	}
	if base.N() < parallelMinUnknowns {
		t.Fatalf("test system too small: %d unknowns", base.N())
	}
	rhs := make([]float64, base.N())
	for i := range rhs {
		rhs[i] = float64(i%17) - 8
	}
	want := slices.Clone(rhs)
	base.Solve(want)

	// The refactors re-fill every third block with a shifted diagonal.
	var blocks []int
	for b := 0; b < len(sizes); b += 3 {
		blocks = append(blocks, b)
	}
	shifted := func(b, lo int, blk *dense.Matrix) error {
		if err := fillFrom(m)(b, lo, blk); err != nil {
			return err
		}
		for i := 0; i < blk.R; i++ {
			blk.Set(i, i, blk.At(i, i)+1)
		}
		return nil
	}

	const solvers, rounds = 3, 8
	var wg sync.WaitGroup
	errs := make(chan string, solvers+1)
	for w := 0; w < solvers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			x := make([]float64, len(rhs))
			for r := 0; r < rounds; r++ {
				copy(x, rhs)
				base.SolvePool(x, pool)
				for i := range x {
					if math.Float64bits(x[i]) != math.Float64bits(want[i]) {
						errs <- "a solve on the receiver changed while a refactor built from it"
						return
					}
				}
			}
		}()
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		for r := 0; r < rounds; r++ {
			if _, err := base.Refactor(blocks, shifted); err != nil {
				errs <- err.Error()
				return
			}
		}
	}()
	wg.Wait()
	close(errs)
	for e := range errs {
		t.Error(e)
	}
}
