package method

import (
	"errors"
	"fmt"
	"time"

	"bepi/internal/core"
	"bepi/internal/dense"
	"bepi/internal/graph"
	"bepi/internal/lu"
	"bepi/internal/reorder"
	"bepi/internal/sparse"
)

// Bear is the state-of-the-art block-elimination baseline (Shin et al.
// [38]): the same deadend + SlashBurn reordering and Schur complement as
// BePI, but with the Schur complement *inverted densely* in the
// preprocessing phase (S⁻¹ is n2×n2 dense). Queries are pure matrix-vector
// products — fast, but the O(n2²) memory and O(n2³) inversion are exactly
// what makes Bear fail on large graphs in the paper's Figure 1.
type Bear struct {
	cfg      Config
	n        int
	ord      *reorder.Ordering
	h11LU    *lu.BlockLU
	sinv     *dense.Matrix
	h12, h21 *sparse.CSR
	h31, h32 *sparse.CSR
	prepTime time.Duration
}

// bearHubRatio is the SlashBurn hub ratio the paper runs Bear with.
const bearHubRatio = 0.001

// NewBear returns the Bear baseline with the paper's hub ratio k = 0.001.
func NewBear(cfg Config) *Bear { return &Bear{cfg: cfg.withDefaults()} }

// Name implements Method.
func (m *Bear) Name() string { return "Bear" }

// IsPreprocessing implements Method.
func (m *Bear) IsPreprocessing() bool { return true }

// Preprocess implements Method.
func (m *Bear) Preprocess(g *graph.Graph) error {
	start := time.Now()
	deadline := func() error {
		if m.cfg.Budget.Deadline > 0 && time.Since(start) > m.cfg.Budget.Deadline {
			return errors.Join(ErrOutOfTime, fmt.Errorf("bear: %v elapsed", time.Since(start).Round(time.Millisecond)))
		}
		return nil
	}
	m.n = g.N()
	ord := reorder.HubAndSpoke(g, bearHubRatio)
	m.ord = ord
	if err := deadline(); err != nil {
		return err
	}
	// The dense inverse needs n2² floats; refuse before allocating.
	if m.cfg.Budget.Memory > 0 {
		need := int64(ord.N2) * int64(ord.N2) * 8
		if need > m.cfg.Budget.Memory {
			return errors.Join(ErrOutOfMemory,
				fmt.Errorf("bear: dense S⁻¹ needs %d bytes for n2=%d", need, ord.N2))
		}
	}
	// S's columns come from BePI's own build, written straight into the
	// dense S, with H11's factors; the blocks the queries multiply by are
	// cut from H.
	n1, n2 := ord.N1, ord.N2
	l := n1 + n2
	sd := dense.New(n2, n2)
	var err error
	m.h11LU, _, err = core.SchurColumns(g, ord, m.cfg.C, nil, func(j int, rows []uint32, vals []float64) {
		for k, i := range rows {
			sd.Set(int(i), j, vals[k])
		}
	})
	if err != nil {
		return fmt.Errorf("bear: %w", err)
	}
	if err := deadline(); err != nil {
		return err
	}
	h := core.BuildH(g, ord.Perm, m.cfg.C)
	m.h12 = h.Block(0, n1, n1, l)
	m.h21 = h.Block(n1, l, 0, n1)
	m.h31 = h.Block(l, m.n, 0, n1)
	m.h32 = h.Block(l, m.n, n1, l)
	// Dense inversion of S via LU + per-column solves, checking the
	// deadline periodically so huge inversions surface as o.o.t.
	if err := sd.LU(); err != nil {
		return fmt.Errorf("bear: LU of S: %w", err)
	}
	m.sinv = dense.New(n2, n2)
	col := make([]float64, n2)
	for j := 0; j < n2; j++ {
		if j%64 == 0 {
			if err := deadline(); err != nil {
				return err
			}
		}
		for i := range col {
			col[i] = 0
		}
		col[j] = 1
		sd.LUSolve(col)
		for i := 0; i < n2; i++ {
			m.sinv.Set(i, j, col[i])
		}
	}
	m.prepTime = time.Since(start)
	if m.cfg.Budget.Memory > 0 && m.MemoryBytes() > m.cfg.Budget.Memory {
		need := m.MemoryBytes()
		m.sinv = nil
		return errors.Join(ErrOutOfMemory, fmt.Errorf("bear: preprocessed data needs %d bytes", need))
	}
	return nil
}

// Query implements Method: Lemma 1's closed form with the precomputed S⁻¹.
func (m *Bear) Query(seed int) ([]float64, QueryInfo, error) {
	if m.sinv == nil {
		return nil, QueryInfo{}, ErrNotPreprocessed
	}
	start := time.Now()
	n1, n2 := m.ord.N1, m.ord.N2
	l := n1 + n2
	c := m.cfg.C
	qp := make([]float64, m.n)
	qp[m.ord.Perm[seed]] = 1

	// q̃2 = c·q2 − H21·H11⁻¹·(c·q1)
	t1 := make([]float64, n1)
	for i := 0; i < n1; i++ {
		t1[i] = c * qp[i]
	}
	m.h11LU.Solve(t1)
	qt2 := make([]float64, n2)
	m.h21.MulVec(qt2, t1)
	for i := range qt2 {
		qt2[i] = c*qp[n1+i] - qt2[i]
	}
	// r2 = S⁻¹ q̃2 — a dense mat-vec, no iteration.
	r2 := make([]float64, n2)
	m.sinv.MulVec(r2, qt2)
	// r1 = H11⁻¹ (c·q1 − H12·r2)
	r1 := make([]float64, n1)
	m.h12.MulVec(r1, r2)
	for i := range r1 {
		r1[i] = c*qp[i] - r1[i]
	}
	m.h11LU.Solve(r1)
	// r3 = c·q3 − H31·r1 − H32·r2
	r3 := make([]float64, m.n-l)
	m.h31.MulVec(r3, r1)
	tmp := make([]float64, m.n-l)
	m.h32.MulVec(tmp, r2)
	for i := range r3 {
		r3[i] = c*qp[l+i] - r3[i] - tmp[i]
	}

	r := make([]float64, m.n)
	for old := 0; old < m.n; old++ {
		nw := m.ord.Perm[old]
		switch {
		case nw < n1:
			r[old] = r1[nw]
		case nw < l:
			r[old] = r2[nw-n1]
		default:
			r[old] = r3[nw-l]
		}
	}
	return r, QueryInfo{Duration: time.Since(start), Iterations: 0}, nil
}

// PrepTime implements Method.
func (m *Bear) PrepTime() time.Duration { return m.prepTime }

// MemoryBytes implements Method: dominated by the dense S⁻¹ (n2² floats).
func (m *Bear) MemoryBytes() int64 {
	if m.sinv == nil {
		return 0
	}
	return m.sinv.MemoryBytes() + m.h11LU.MemoryBytes() +
		m.h12.MemoryBytes() + m.h21.MemoryBytes() +
		m.h31.MemoryBytes() + m.h32.MemoryBytes() +
		int64(2*m.n*8)
}
