package core

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"hash"
	"math"
	"slices"
	"testing"

	"bepi/internal/gen"
	"bepi/internal/graph"
)

// answersHash digests everything a caller can observe of 200 seeds' answers
// on one engine, in three digests. The first, full answers: Float64bits of
// Query and of a three-seed QueryVector and their iteration counts. The
// second, TopKBounded's decisions for k cycling through 1, 10, 100: its
// iterations, its early-stop flag and its node set, sorted, and the ranks
// and score bits of an answer that ran to tolerance. The third, the ranks
// and score bits of the early-stopped answers, which are a mid-solve
// iterate's and move with the arithmetic that assembles it.
func answersHash(t *testing.T, e *Engine) [3]string {
	t.Helper()
	var hs [3]hash.Hash
	for i := range hs {
		hs[i] = sha256.New()
	}
	var word [8]byte
	put := func(h int, v uint64) {
		binary.LittleEndian.PutUint64(word[:], v)
		hs[h].Write(word[:])
	}
	vector := func(r []float64, iters int) {
		put(0, uint64(iters))
		for _, v := range r {
			put(0, math.Float64bits(v))
		}
	}
	n := e.N()
	q := make([]float64, n)
	var set []int
	for i := 0; i < 200; i++ {
		seed := i * 7919 % n
		r, st, err := e.Query(seed)
		if err != nil {
			t.Fatalf("Query(%d): %v", seed, err)
		}
		vector(r, st.Iterations)

		others := [2]int{(seed*31 + 7) % n, (seed + n/2) % n}
		q[seed] += 0.5
		q[others[0]] += 0.3
		q[others[1]] += 0.2
		r, st, err = e.QueryVector(q)
		if err != nil {
			t.Fatalf("QueryVector(%d): %v", seed, err)
		}
		vector(r, st.Iterations)
		q[seed], q[others[0]], q[others[1]] = 0, 0, 0

		top, tst, err := e.TopKBounded(seed, [3]int{1, 10, 100}[i%3])
		if err != nil {
			t.Fatalf("TopKBounded(%d): %v", seed, err)
		}
		put(1, uint64(tst.Iterations))
		if tst.EarlyStopped {
			put(1, 1)
		}
		set = set[:0]
		for _, rk := range top {
			set = append(set, rk.Node)
		}
		slices.Sort(set)
		for _, node := range set {
			put(1, uint64(node))
		}
		ranks := 1
		if tst.EarlyStopped {
			ranks = 2
		}
		for _, rk := range top {
			put(ranks, uint64(rk.Node))
			put(ranks, math.Float64bits(rk.Score))
		}
	}
	var out [3]string
	for i, h := range hs {
		out[i] = fmt.Sprintf("%x", h.Sum(nil)[:8])
	}
	return out
}

// TestAnswersFrozen pins every answer of the query path. The full answers
// and the bounded decisions are the bits the commit before the multi-RHS
// batch stack was deleted produced: the single-RHS path that remained is the
// arithmetic a batch of one always ran, and assembling a bounded check's
// iterate from the solve's kept Krylov images instead of a triangular sweep
// moved neither (digests captured before that change, with this function).
// The early-stopped scores and order were captured with the kept images.
// One set of digests per graph — the worker count and whether the engine was
// built or loaded must not move a bit either.
func TestAnswersFrozen(t *testing.T) {
	graphs := append([]*graph.Graph{gen.RMAT(gen.DefaultRMAT(10, 8, 5))}, pathologicalGraphs()...)
	frozen := [...]struct {
		name string
		hash [3]string
	}{
		{"rmat-10", [3]string{"779260f9a3285e42", "c6a2a73ded916bef", "6ab41da2346092ab"}},
		{"star", [3]string{"22c2d58f6b5bfbf7", "283d7e2101154541", "e3b0c44298fc1c14"}},
		{"chain", [3]string{"2b81c06d6e87a129", "a5e345957de6d286", "e62f3ded79389ebf"}},
		{"clique-spokes", [3]string{"77290a1afc915199", "fd94c8e99c41ba41", "009d74ddd6580f82"}},
		{"deadend-random", [3]string{"fd8658b7e918c871", "f7066757e05aaf80", "98337e9018616039"}},
	}
	what := [3]string{"full answers", "bounded decisions", "early-stopped scores"}
	for i, f := range frozen {
		g := graphs[i]
		for _, workers := range []int{1, 4} {
			built, err := Preprocess(g, Options{Parallelism: workers})
			if err != nil {
				t.Fatalf("%s: %v", f.name, err)
			}
			var buf bytes.Buffer
			if _, err := built.WriteTo(&buf); err != nil {
				t.Fatal(err)
			}
			loaded, err := ReadEngine(&buf)
			if err != nil {
				t.Fatalf("%s: %v", f.name, err)
			}
			loaded.SetParallelism(workers)
			for state, e := range map[string]*Engine{"built": built, "loaded": loaded} {
				got := answersHash(t, e)
				for d := range got {
					if got[d] != f.hash[d] {
						t.Errorf("%s workers=%d %s: %s hash to %s, frozen %s",
							f.name, workers, state, what[d], got[d], f.hash[d])
					}
				}
			}
		}
	}
}
