package lu

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"testing"

	"bepi/internal/sparse"
)

// factorILU0Ref is FactorILU0 as it was before it factored on one working
// copy: rowPtr, col and val all copied, the diagonal found by a linear scan,
// a zero pivot re-checked at every use, and the factors appended entry by
// entry. The reference of TestFactorILU0MatchesReference.
func factorILU0Ref(a *sparse.CSR) (*ILU, error) {
	n := a.Rows()
	rowPtr := append([]int(nil), a.RowPtr()...)
	col := append([]int(nil), a.ColIdx()...)
	val := append([]float64(nil), a.Values()...)
	diagPos := make([]int, n)
	for i := 0; i < n; i++ {
		diagPos[i] = -1
		for p := rowPtr[i]; p < rowPtr[i+1]; p++ {
			if col[p] == i {
				diagPos[i] = p
				break
			}
		}
		if diagPos[i] < 0 {
			return nil, fmt.Errorf("lu: ILU0 missing diagonal at row %d", i)
		}
	}
	pos := make([]int, n)
	for j := range pos {
		pos[j] = -1
	}
	for i := 0; i < n; i++ {
		start, end := rowPtr[i], rowPtr[i+1]
		for p := start; p < end; p++ {
			pos[col[p]] = p
		}
		for p := start; p < end; p++ {
			k := col[p]
			if k >= i {
				break
			}
			piv := val[diagPos[k]]
			if piv == 0 {
				piv = math.Copysign(1e-12, 1)
			}
			lik := val[p] / piv
			val[p] = lik
			for q := diagPos[k] + 1; q < rowPtr[k+1]; q++ {
				j := col[q]
				if t := pos[j]; t >= 0 {
					val[t] -= lik * val[q]
				}
			}
		}
		if v := val[diagPos[i]]; v == 0 {
			val[diagPos[i]] = 1e-12
		}
		for p := start; p < end; p++ {
			pos[col[p]] = -1
		}
	}
	f := &ILU{n: n}
	split := func(t *triFactor, span func(i int) (int, int)) {
		t.rowPtr = make([]int32, n+1)
		var cols []int
		for i := 0; i < n; i++ {
			lo, hi := span(i)
			for p := lo; p < hi; p++ {
				cols = append(cols, col[p])
				t.val = append(t.val, val[p])
			}
			t.rowPtr[i+1] = int32(len(cols))
		}
		if sparse.NarrowCols(n) {
			t.col16 = make([]uint16, len(cols))
			narrowInto(t.col16, cols)
		} else {
			t.col32 = make([]uint32, len(cols))
			narrowInto(t.col32, cols)
		}
	}
	split(&f.l, func(i int) (int, int) { return rowPtr[i], diagPos[i] })
	split(&f.u, func(i int) (int, int) { return diagPos[i], rowPtr[i+1] })
	return f, nil
}

// iluHash folds both natural-order factors — pattern and value bits — into
// one hash.
func iluHash(f *ILU) string {
	h := sha256.New()
	var b [8]byte
	put := func(v uint64) {
		binary.LittleEndian.PutUint64(b[:], v)
		h.Write(b[:])
	}
	for _, t := range []*triFactor{&f.l, &f.u} {
		for _, x := range t.rowPtr {
			put(uint64(x))
		}
		for p := range t.val {
			put(uint64(t.colAt(p)))
		}
		for _, x := range t.val {
			put(math.Float64bits(x))
		}
	}
	return fmt.Sprintf("%x", h.Sum(nil)[:8])
}

func triEqual(a, b *triFactor) bool {
	if !reflect.DeepEqual(a.rowPtr, b.rowPtr) || len(a.val) != len(b.val) || (a.col16 != nil) != (b.col16 != nil) {
		return false
	}
	for p := range a.val {
		if a.colAt(p) != b.colAt(p) || math.Float64bits(a.val[p]) != math.Float64bits(b.val[p]) {
			return false
		}
	}
	return true
}

// TestFactorILU0MatchesReference: the in-place factorization produces the
// reference's factors bit for bit — on random patterns, on a matrix whose
// elimination drives pivots to exactly zero (the replaced-pivot path), and
// against a hash of the level-scheduling implementation's factors on a
// fixed matrix, read back in natural row order — leaves its input
// untouched, and sizes its arrays exactly.
func TestFactorILU0MatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	mats := []*sparse.CSR{
		sparse.Zero(0, 0),
		sparse.Identity(1),
		// Row 1 eliminates to a zero pivot (2 − 2·1), which row 2 divides by.
		sparse.FromDense([][]float64{{1, 1, 0}, {2, 2, 1}, {0, 3, 1}}),
	}
	for trial := 0; trial < 40; trial++ {
		mats = append(mats, randDiagDominantCSR(rng, 1+rng.Intn(60), rng.Float64()*0.3))
	}
	for i, a := range mats {
		before := a.Clone()
		got, err := FactorILU0(a)
		if err != nil {
			t.Fatal(err)
		}
		want, err := factorILU0Ref(a)
		if err != nil {
			t.Fatal(err)
		}
		if !triEqual(&got.l, &want.l) || !triEqual(&got.u, &want.u) {
			t.Fatalf("matrix %d (%v): factors differ from the reference", i, a)
		}
		if !a.Equal(before) {
			t.Fatalf("matrix %d: FactorILU0 modified its input", i)
		}
		for _, f := range []*triFactor{&got.l, &got.u} {
			if cap(f.col16) != len(f.col16) || cap(f.col32) != len(f.col32) || cap(f.val) != len(f.val) {
				t.Fatalf("matrix %d: factor arrays over-allocated", i)
			}
		}
	}
	const frozen = "e101c06697a2c849"
	f, err := FactorILU0(randSparseDiag(4000, 9, 17))
	if err != nil {
		t.Fatal(err)
	}
	if got := iluHash(f); got != frozen {
		t.Errorf("ILU(0) of the fixed matrix hashes to %s, frozen %s", got, frozen)
	}
}

// TestReadBlockLURejectsCorruptOffsets: offsets that do not start at zero,
// decrease, or imply more factor data than the input holds are refused, the
// last before anything is allocated for it.
func TestReadBlockLURejectsCorruptOffsets(t *testing.T) {
	rng := rand.New(rand.NewSource(44))
	m, sizes := randBlockDiag(rng, 4, 6)
	f, err := FactorBlockDiag(m, sizes)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if _, err := f.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	valid := buf.Bytes()
	if _, err := ReadBlockLU(bytes.NewReader(valid)); err != nil {
		t.Fatal(err)
	}
	for name, c := range map[string]struct {
		idx int
		v   uint64
	}{
		"nonzero start":   {0, 1},
		"decreasing":      {2, 0},
		"negative":        {1, ^uint64(0)},
		"block too large": {4, uint64(f.N() + 1000)},
	} {
		raw := append([]byte(nil), valid...)
		binary.LittleEndian.PutUint64(raw[12+8*c.idx:], c.v)
		if _, err := ReadBlockLU(bytes.NewReader(raw)); err == nil {
			t.Errorf("%s: corrupt offsets accepted", name)
		}
	}
}
