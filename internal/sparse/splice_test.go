package sparse

import (
	"bytes"
	"math/rand"
	"slices"
	"testing"
)

// patternFromRows assembles the pattern whose row i holds the columns
// rows[i], ascending, by PatternBuilder's count-alloc-put.
func patternFromRows(rows [][]int, cols int) *Pattern {
	b := NewPatternBuilder(len(rows), cols, 1)
	for i, r := range rows {
		for range r {
			b.Count(0, i)
		}
	}
	b.Alloc()
	for i, r := range rows {
		for _, j := range r {
			b.Put(0, i, j)
		}
	}
	return b.Pattern()
}

// withRowPtr64 returns a copy of p whose row pointers are int64, the layout
// a pattern of more than 2³¹ entries holds.
func withRowPtr64(p *Pattern) *Pattern {
	q := &Pattern{layout32: layout32{rows: p.rows, cols: p.cols, col16: p.col16, col32: p.col32}}
	q.rowPtr64 = make([]int64, p.rows+1)
	for i := range q.rowPtr64 {
		q.rowPtr64[i] = int64(p.rowStart(i))
	}
	return q
}

func patternBytesOf(t *testing.T, p *Pattern) []byte {
	t.Helper()
	var buf bytes.Buffer
	if _, err := p.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// spliceCase is one splice: the columns replaced, and the rows of the new
// columns' pattern, given the receiver's rows and the spliced row count.
type spliceCase struct {
	name     string
	replaced func(old [][]int, cols int) []int
	nw       func(rng *rand.Rand, old [][]int, rows int, replaced []int) [][]int
}

// scatterRows gives each of the rows listed one to three of the columns
// listed.
func scatterRows(rng *rand.Rand, nRows int, rowsAt, colsFrom []int) [][]int {
	nw := make([][]int, nRows)
	for _, i := range rowsAt {
		for k := 1 + rng.Intn(3); k > 0; k-- {
			if j := colsFrom[rng.Intn(len(colsFrom))]; !slices.Contains(nw[i], j) {
				nw[i] = append(nw[i], j)
			}
		}
		slices.Sort(nw[i])
	}
	return nw
}

// someRows lists 60 random rows below oldRows and, when the splice grows
// the pattern, the first and last appended rows and 20 between.
func someRows(rng *rand.Rand, oldRows, rows int) []int {
	var at []int
	for k := 0; k < 60; k++ {
		at = append(at, rng.Intn(oldRows))
	}
	if rows > oldRows {
		at = append(at, oldRows, rows-1)
		for k := 0; k < 20; k++ {
			at = append(at, oldRows+rng.Intn(rows-oldRows))
		}
	}
	return at
}

func spliceCases() []spliceCase {
	return []spliceCase{
		{"first and last column",
			func(_ [][]int, cols int) []int { return []int{0, cols - 1} },
			func(rng *rand.Rand, old [][]int, rows int, rep []int) [][]int {
				return scatterRows(rng, rows, someRows(rng, len(old), rows), rep)
			}},
		{"column emptied",
			func(old [][]int, _ int) []int { return []int{old[1][0]} },
			func(_ *rand.Rand, _ [][]int, rows int, _ []int) [][]int { return make([][]int, rows) }},
		{"column filling empty rows",
			func(old [][]int, _ int) []int { return []int{old[2][1]} },
			func(rng *rand.Rand, old [][]int, rows int, rep []int) [][]int {
				var at []int
				for i := range rows {
					if i >= len(old) && (i == len(old) || i == rows-1) || i < len(old) && len(old[i]) == 0 {
						at = append(at, i)
					}
				}
				return scatterRows(rng, rows, at, rep)
			}},
		{"every column",
			func(_ [][]int, cols int) []int {
				all := make([]int, cols)
				for j := range all {
					all[j] = j
				}
				return all
			},
			func(rng *rand.Rand, old [][]int, rows int, rep []int) [][]int {
				return scatterRows(rng, rows, someRows(rng, len(old), rows), rep)
			}},
		{"no column",
			func([][]int, int) []int { return nil },
			func(_ *rand.Rand, _ [][]int, rows int, _ []int) [][]int { return make([][]int, rows) }},
	}
}

// TestPatternSplice: at 65 536 and 65 537 columns, with the row count kept
// or grown past 65 536, and over both row-pointer widths of the receiver
// and of the new columns, Splice gives the bytes PatternBuilder assembles
// from the expected rows — the receiver's rows outside the replaced columns
// merged with the new ones — its kernels agree bit for bit with Expand's,
// and neither input is modified.
func TestPatternSplice(t *testing.T) {
	for _, cols := range []int{1 << 16, 1<<16 + 1} {
		rng := rand.New(rand.NewSource(int64(cols)))
		old := make([][]int, 300)
		for i := range old {
			if i%7 == 3 {
				continue // an empty row
			}
			r := []int{rng.Intn(cols), rng.Intn(cols), rng.Intn(cols), rng.Intn(cols)}
			if i%11 == 0 {
				r = append(r, 0)
			}
			if i%13 == 0 {
				r = append(r, cols-1)
			}
			slices.Sort(r)
			old[i] = slices.Compact(r)
		}
		p := patternFromRows(old, cols)
		pBytes := patternBytesOf(t, p)
		for _, c := range spliceCases() {
			for _, rows := range []int{len(old), 1<<16 + 1} {
				rep := c.replaced(old, cols)
				replaced := make([]bool, cols)
				for _, j := range rep {
					replaced[j] = true
				}
				nwRows := c.nw(rng, old, rows, rep)
				want := make([][]int, rows)
				for i := range want {
					if i < len(old) {
						for _, j := range old[i] {
							if !replaced[j] {
								want[i] = append(want[i], j)
							}
						}
					}
					want[i] = append(want[i], nwRows[i]...)
					slices.Sort(want[i])
				}
				wantP := patternFromRows(want, cols)
				wantBytes := patternBytesOf(t, wantP)
				nw := patternFromRows(nwRows, cols)
				nwBytes := patternBytesOf(t, nw)
				w, x := randVec(cols, 5), randVec(cols, 6)
				wantMul := make([]float64, rows)
				wantP.Expand(w).MulVec(wantMul, x)
				for _, recv := range []*Pattern{p, withRowPtr64(p)} {
					for _, in := range []*Pattern{nw, withRowPtr64(nw)} {
						got := recv.Splice(in, replaced)
						if gotBytes := patternBytesOf(t, got); !bytes.Equal(gotBytes, wantBytes) {
							t.Fatalf("%d columns, %d rows, %s: spliced %v, want %v", cols, rows, c.name, got, wantP)
						}
						if !bytes.Equal(patternBytesOf(t, p), pBytes) || !bytes.Equal(patternBytesOf(t, nw), nwBytes) {
							t.Fatalf("%d columns, %d rows, %s: an input was modified", cols, rows, c.name)
						}
						mul, z := make([]float64, rows), make([]float64, cols)
						got.MulVecScaled(mul, z, w, x)
						if i, ok := bitsEqual(mul, wantMul); !ok {
							t.Fatalf("%d columns, %d rows, %s: MulVecScaled differs at %d", cols, rows, c.name, i)
						}
					}
				}
			}
		}
	}
}
