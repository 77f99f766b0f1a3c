package core

import (
	"fmt"
	"math"
	"math/rand"
	"strconv"
	"testing"

	"bepi/internal/dense"
	"bepi/internal/gen"
	"bepi/internal/graph"
	"bepi/internal/lu"
	"bepi/internal/reorder"
)

// TestSchurComplementMatchesDense verifies the columns of S preprocessing
// computes (SchurColumns) against a dense S = H22 − H21·H11⁻¹·H12 computed
// from BuildH's blocks with explicit inversion.
func TestSchurComplementMatchesDense(t *testing.T) {
	rng := rand.New(rand.NewSource(77))
	for trial := 0; trial < 10; trial++ {
		n := 20 + rng.Intn(60)
		g := randGraph(rng, n)
		ord := reorder.HubAndSpoke(g, 0.15+0.3*rng.Float64())
		if ord.N1 == 0 || ord.N2 == 0 {
			continue
		}
		h := BuildH(g, ord.Perm, DefaultC)
		n1, n2 := ord.N1, ord.N2
		l := n1 + n2
		h11 := h.Block(0, n1, 0, n1)
		h12 := h.Block(0, n1, n1, l)
		h21 := h.Block(n1, l, 0, n1)
		h22 := h.Block(n1, l, n1, l)
		got := dense.New(n2, n2)
		_, _, err := SchurColumns(g, ord, DefaultC, nil, func(j int, rows []uint32, vals []float64) {
			for k, i := range rows {
				if got.At(int(i), j) != 0 {
					t.Fatalf("trial %d: column %d holds row %d twice", trial, j, i)
				}
				got.Set(int(i), j, vals[k])
			}
		})
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}

		// Dense reference.
		d11 := dense.New(n1, n1)
		for i, row := range h11.ToDense() {
			copy(d11.Row(i), row)
		}
		inv, err := d11.Inverse()
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		d12 := dense.New(n1, n2)
		for i, row := range h12.ToDense() {
			copy(d12.Row(i), row)
		}
		d21 := dense.New(n2, n1)
		for i, row := range h21.ToDense() {
			copy(d21.Row(i), row)
		}
		cross := d21.Mul(inv).Mul(d12)
		want := h22.ToDense()
		for i := 0; i < n2; i++ {
			for j := 0; j < n2; j++ {
				w := want[i][j] - cross.At(i, j)
				if math.Abs(got.At(i, j)-w) > 1e-9 {
					t.Fatalf("trial %d: S[%d][%d] = %v, want %v", trial, i, j, got.At(i, j), w)
				}
			}
		}
	}
}

// TestProfileSchurMatchesBuild holds ProfileSchur to the build it
// profiles, at every hub ratio of Figure 4's sweep on a hybrid graph and at
// k = 0.2 on the pathological shapes: its partition sizes and |S| are
// Preprocess's PrepStats at that ratio, and |H22| and |H21·H11⁻¹·H12| are
// the entry counts of BuildH's H22 block and of the cross term computed
// over BuildH's blocks (referenceCross).
func TestProfileSchurMatchesBuild(t *testing.T) {
	type fixture struct {
		name string
		g    *graph.Graph
		ks   []float64
	}
	fixtures := []fixture{{"hybrid", gen.Hybrid(gen.DefaultHybrid(10, 8, 1)), []float64{0.1, 0.2, 0.3, 0.4, 0.5}}}
	for i, g := range pathologicalGraphs() {
		fixtures = append(fixtures, fixture{"pathological " + strconv.Itoa(i), g, []float64{0.2}})
	}
	for _, fx := range fixtures {
		for _, k := range fx.ks {
			name := fmt.Sprintf("%s k=%v", fx.name, k)
			p, err := ProfileSchur(fx.g, k, DefaultC)
			if err != nil {
				t.Fatalf("%s: %v", name, err)
			}
			e, err := Preprocess(fx.g, Options{HubRatio: k})
			if err != nil {
				t.Fatalf("%s: %v", name, err)
			}
			st := e.PrepStats()
			if p.K != k || p.N1 != st.N1 || p.N2 != st.N2 || p.N3 != st.N3 || p.SchurNNZ != st.SchurNNZ {
				t.Fatalf("%s: profile %+v, build's k=%v n1=%d n2=%d n3=%d |S|=%d",
					name, p, st.HubRatio, st.N1, st.N2, st.N3, st.SchurNNZ)
			}
			ord := reorder.HubAndSpoke(fx.g, k)
			n1, l := ord.N1, ord.N1+ord.N2
			h := BuildH(fx.g, ord.Perm, DefaultC)
			f, err := lu.FactorBlockDiag(h.Block(0, n1, 0, n1), ord.Blocks)
			if err != nil {
				t.Fatalf("%s: %v", name, err)
			}
			h22 := h.Block(n1, l, n1, l)
			cross := referenceCross(ord.N2, h.Block(n1, l, 0, n1).Transpose(), h.Block(0, n1, n1, l).Transpose(), f)
			if p.H22NNZ != h22.NNZ() || p.CrossNNZ != cross.NNZ() {
				t.Fatalf("%s: |H22| %d, |cross| %d; BuildH's blocks give %d, %d", name, p.H22NNZ, p.CrossNNZ, h22.NNZ(), cross.NNZ())
			}
		}
	}
}

// TestBuildHPermIdentity checks that a nil perm and an identity perm build
// the same matrix.
func TestBuildHPermIdentity(t *testing.T) {
	rng := rand.New(rand.NewSource(78))
	g := randGraph(rng, 50)
	id := make([]int, g.N())
	for i := range id {
		id[i] = i
	}
	a := BuildH(g, nil, DefaultC)
	b := BuildH(g, id, DefaultC)
	if !a.Equal(b) {
		t.Fatal("identity perm changed H")
	}
}

// TestBuildHDeadendColumns checks the structural fact behind the deadend
// reordering: the column of H for a deadend node is exactly e_j.
func TestBuildHDeadendColumns(t *testing.T) {
	rng := rand.New(rand.NewSource(79))
	g := randGraph(rng, 60)
	h := BuildH(g, nil, DefaultC)
	ht := h.Transpose()
	for _, u := range g.Deadends() {
		s, e := ht.RowRange(u)
		if e-s != 1 || ht.ColIdx()[s] != u || ht.Values()[s] != 1 {
			t.Fatalf("deadend %d column is not e_%d", u, u)
		}
	}
}
