package par

import (
	"math/rand"
	"slices"
	"testing"
)

// scatterItems sorts the entries of items [0, len(rowsOf)) into rows by a
// Scatter of len(bounds)-1 parts, part c counting and putting the items
// [bounds[c], bounds[c+1]) on the pool, and returns the row pointers and
// each row's items.
func scatterItems(rows int, rowsOf [][]int, bounds []int, pool *Pool) ([]int, []int) {
	s := NewScatter[int](rows, len(bounds)-1)
	pool.ForBounds(bounds, func(c, lo, hi int) {
		for x := lo; x < hi; x++ {
			for _, i := range rowsOf[x] {
				s.Count(c, i)
			}
		}
	})
	out := make([]int, s.Prefix())
	pool.ForBounds(bounds, func(c, lo, hi int) {
		for x := lo; x < hi; x++ {
			for _, i := range rowsOf[x] {
				out[s.Put(c, i)] = x
			}
		}
	})
	if !s.Filled() {
		panic("scatter not filled")
	}
	return slices.Clone(s.RowPtr()), out
}

// TestScatterSameAtAnyPartCount sorts random entries into rows with 1, 2,
// 3 and 7 parts — balanced and empty ranges among them, and more parts
// than rows — and requires every row to hold its items in ascending order,
// the one-part result, each time.
func TestScatterSameAtAnyPartCount(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for trial := 0; trial < 40; trial++ {
		rows, items := 1+rng.Intn(5), rng.Intn(60)
		if trial%2 == 1 {
			rows = 1 + rng.Intn(200)
		}
		rowsOf := make([][]int, items)
		for x := range rowsOf {
			for k := rng.Intn(5); k > 0; k-- {
				rowsOf[x] = append(rowsOf[x], rng.Intn(rows))
			}
		}
		wantPtr, want := scatterItems(rows, rowsOf, []int{0, items}, nil)
		for i := 0; i < rows; i++ {
			if !slices.IsSorted(want[wantPtr[i]:wantPtr[i+1]]) {
				t.Fatalf("trial %d: row %d holds %v, not in item order", trial, i, want[wantPtr[i]:wantPtr[i+1]])
			}
		}
		for _, parts := range []int{1, 2, 3, 7} {
			bounds := make([]int, parts+1)
			for c := range bounds {
				bounds[c] = c * items / parts
			}
			ptr, got := scatterItems(rows, rowsOf, bounds, NewPool(parts))
			if !slices.Equal(ptr, wantPtr) || !slices.Equal(got, want) {
				t.Fatalf("trial %d, %d parts: rows %v %v, want %v %v", trial, parts, ptr, got, wantPtr, want)
			}
		}
	}
}

// TestScatterFilled reports a sort with an entry counted but never put.
func TestScatterFilled(t *testing.T) {
	for _, parts := range []int{1, 3} {
		s := NewScatter[int32](4, parts)
		s.Count(0, 2)
		s.Count(parts-1, 2)
		s.Prefix()
		s.Put(0, 2)
		if s.Filled() {
			t.Errorf("%d parts: one of two entries put, reported filled", parts)
		}
		s.Put(parts-1, 2)
		if !s.Filled() {
			t.Errorf("%d parts: every entry put, reported short", parts)
		}
	}
}

// TestBoundsByWeightMatchesPrefix requires BoundsByWeight's boundaries to
// be BoundsByPrefix's over the prefix of the same weights.
func TestBoundsByWeightMatchesPrefix(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	for trial := 0; trial < 300; trial++ {
		n := rng.Intn(40)
		w := make([]int, n)
		prefix := make([]int, n+1)
		for i := range w {
			w[i] = rng.Intn(4)
			if rng.Intn(10) == 0 {
				w[i] = 50
			}
			prefix[i+1] = prefix[i] + w[i]
		}
		for _, parts := range []int{1, 2, 3, 7, 64} {
			got := BoundsByWeight(n, parts, func(i int) int { return w[i] })
			if want := BoundsByPrefix(prefix, parts); !slices.Equal(got, want) {
				t.Fatalf("weights %v, %d parts: %v, want %v", w, parts, got, want)
			}
		}
	}
}
