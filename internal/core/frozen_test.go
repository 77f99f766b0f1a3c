package core

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"math"
	"testing"

	"bepi/internal/gen"
	"bepi/internal/graph"
)

// answersHash digests everything a caller can observe of 200 seeds' answers
// on one engine: Float64bits of Query and of a three-seed QueryVector, the
// iteration counts, and TopKBounded's ranks, score bits and early-stop flag
// for k cycling through 1, 10, 100.
func answersHash(t *testing.T, e *Engine) string {
	t.Helper()
	h := sha256.New()
	var word [8]byte
	put := func(v uint64) {
		binary.LittleEndian.PutUint64(word[:], v)
		h.Write(word[:])
	}
	vector := func(r []float64, iters int) {
		put(uint64(iters))
		for _, v := range r {
			put(math.Float64bits(v))
		}
	}
	n := e.N()
	q := make([]float64, n)
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
		put(uint64(tst.Iterations))
		if tst.EarlyStopped {
			put(1)
		}
		for _, rk := range top {
			put(uint64(rk.Node))
			put(math.Float64bits(rk.Score))
		}
	}
	return fmt.Sprintf("%x", h.Sum(nil)[:8])
}

// TestAnswersFrozen pins every answer of the query path to the bits the
// commit before the multi-RHS batch stack was deleted produced (hashes
// captured there, with this function): the single-RHS path that remained is
// the arithmetic a batch of one always ran. One hash per graph — the worker
// count and whether the engine was built or loaded must not move a bit
// either.
func TestAnswersFrozen(t *testing.T) {
	graphs := append([]*graph.Graph{gen.RMAT(gen.DefaultRMAT(10, 8, 5))}, pathologicalGraphs()...)
	frozen := [...]struct{ name, hash string }{
		{"rmat-10", "10dc9dad86a8e03b"},
		{"star", "859c5a52ce135a0e"},
		{"chain", "5cce8bc31166b96b"},
		{"clique-spokes", "2e6331a25f97c4c9"},
		{"deadend-random", "d8b2db3f6a65486d"},
	}
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
				if got := answersHash(t, e); got != f.hash {
					t.Errorf("%s workers=%d %s: answers hash to %s, frozen %s",
						f.name, workers, state, got, f.hash)
				}
			}
		}
	}
}
