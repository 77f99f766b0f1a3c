package server

import (
	"bytes"
	"context"
	"encoding/json"
	"math"
	"net/http"
	"net/http/httptest"
	"runtime"
	"sync"
	"testing"

	"bepi"
	"bepi/internal/core"
	"bepi/internal/qexec"
)

// TestIndexHashNamesTheIndex: index_hash changes with any change to the
// index, and only with one. Moving one edge of an RMAT graph keeps n, m,
// the partition sizes, the block count and nnz(S) — everything the old
// fingerprint hashed — yet moves the seed's answer; the hash must move
// with it. The same graph built twice, or saved and loaded, hashes the
// same.
func TestIndexHashNamesTheIndex(t *testing.T) {
	const src, from, to = 137, 0, 527
	g := bepi.RMAT(10, 8, 3)
	if !g.HasEdge(src, from) || g.HasEdge(src, to) {
		t.Fatalf("test setup: want edge %d→%d and no edge %d→%d", src, from, src, to)
	}
	var moved []bepi.Edge
	for _, e := range g.Edges() {
		if e == (bepi.Edge{Src: src, Dst: from}) {
			e.Dst = to
		}
		moved = append(moved, e)
	}
	g2, err := bepi.NewGraph(g.N(), moved)
	if err != nil {
		t.Fatal(err)
	}
	build := func(g *bepi.Graph) *bepi.Engine {
		t.Helper()
		eng, err := bepi.New(g)
		if err != nil {
			t.Fatal(err)
		}
		return eng
	}
	hash := func(eng *bepi.Engine) string {
		c := NewCore(eng, qexec.Config{})
		defer c.Close()
		return c.Health().IndexHash
	}
	e1, e2 := build(g), build(g2)
	h1, h2 := hash(e1), hash(e2)
	if len(h1) != 16 || len(h2) != 16 {
		t.Fatalf("hashes %q and %q, want 16 hex digits each", h1, h2)
	}
	if h1 == h2 {
		t.Fatalf("moving edge %d→%d to %d→%d kept index_hash %s", src, from, src, to, h1)
	}
	r1, err := e1.Query(src)
	if err != nil {
		t.Fatal(err)
	}
	r2, err := e2.Query(src)
	if err != nil {
		t.Fatal(err)
	}
	var l1 float64
	for i := range r1 {
		l1 += math.Abs(r1[i] - r2[i])
	}
	if l1 < 1e-4 {
		t.Fatalf("seed %d's answer moved by %g in L1: the two indexes answer alike", src, l1)
	}
	if again := hash(build(g)); again != h1 {
		t.Fatalf("the same graph built twice hashes %s and %s", h1, again)
	}
	var buf bytes.Buffer
	if err := e1.Save(&buf); err != nil {
		t.Fatal(err)
	}
	loaded, err := bepi.Load(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if got := hash(loaded); got != h1 {
		t.Fatalf("a loaded index hashes %s, the built one %s", got, h1)
	}
}

// TestSharedEngineCoresHashOnce: cores over one engine identify it once.
// The first core's executor computes the engine's IndexHash before it
// serves; the later ones find it memoised, and all three report it.
func TestSharedEngineCoresHashOnce(t *testing.T) {
	e, err := bepi.New(bepi.RMAT(8, 6, 5))
	if err != nil {
		t.Fatal(err)
	}
	identified := func() bool { // see qexec's identified
		defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		e.Internal().IndexHash()
		runtime.ReadMemStats(&after)
		return after.Mallocs == before.Mallocs
	}
	cores := []*Core{NewCore(e, qexec.Config{})}
	defer func() {
		for _, c := range cores {
			c.Close()
		}
	}()
	if !identified() {
		t.Fatal("NewCore left the engine it serves unidentified")
	}
	cores = append(cores, NewCore(e, qexec.Config{}), NewCore(e, qexec.Config{}))
	for i, c := range cores {
		if h := c.Health().IndexHash; h != e.Internal().IndexHash() || len(h) != 16 {
			t.Fatalf("core %d reports index_hash %q, the engine's is %q", i, h, e.Internal().IndexHash())
		}
	}
}

// TestSolveAfterSwapKeepsItsEngineTags: a solve that is still running when
// the executor swaps engines answers with the generation and the
// index_hash of the engine it ran on, while the core already reports the
// new engine's.
func TestSolveAfterSwapKeepsItsEngineTags(t *testing.T) {
	e1, err := bepi.New(bepi.RMAT(8, 6, 5))
	if err != nil {
		t.Fatal(err)
	}
	e2, err := bepi.New(bepi.RMAT(8, 6, 99))
	if err != nil {
		t.Fatal(err)
	}
	c := NewCore(e1, qexec.Config{CacheEntries: -1})
	defer c.Close()
	before := c.Health()

	// Stall the solve on e1 until the swap is done.
	release, started := make(chan struct{}), make(chan struct{})
	var once sync.Once
	e1.Internal().SetIterHook(func(int, float64) {
		once.Do(func() { close(started) })
		<-release
	})
	defer e1.Internal().SetIterHook(nil)
	type out struct {
		resp QueryResponse
		err  error
	}
	done := make(chan out, 1)
	go func() {
		resp, err := c.Query(context.Background(), QueryRequest{Seed: 11, Full: true})
		done <- out{resp, err}
	}()
	<-started
	c.Executor().SwapEngine(e2.Internal())
	after := c.Health()
	close(release)
	got := <-done
	if got.err != nil {
		t.Fatal(got.err)
	}
	if after.Generation != before.Generation+1 || after.IndexHash == before.IndexHash {
		t.Fatalf("after the swap the core serves g%d %s, before it g%d %s",
			after.Generation, after.IndexHash, before.Generation, before.IndexHash)
	}
	if got.resp.Generation != before.Generation || got.resp.IndexHash != before.IndexHash {
		t.Fatalf("a solve on the old engine answered g%d %s, want its engine's g%d %s",
			got.resp.Generation, got.resp.IndexHash, before.Generation, before.IndexHash)
	}
}

// TestPersonalizedOneSeedServedFromCache: a weight map with one positive
// weight is its seed's single-seed query, so once /query has cached the
// seed's vector, /personalized answers from the cache (one hit, no solve)
// with the ranking a cold core computes, which is the ranking of the
// engine's own answer for that unit restart vector.
func TestPersonalizedOneSeedServedFromCache(t *testing.T) {
	const seed, zero = 9, 30
	eng, err := bepi.New(bepi.RMAT(8, 6, 5))
	if err != nil {
		t.Fatal(err)
	}
	warm := NewWithConfig(eng, qexec.Config{})
	defer warm.Close()
	cold := NewWithConfig(eng, qexec.Config{CacheEntries: -1})
	defer cold.Close()
	personalized := func(s *Server, body string) []core.Ranked {
		t.Helper()
		rec := httptest.NewRecorder()
		s.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/personalized", bytes.NewBufferString(body)))
		if rec.Code != http.StatusOK {
			t.Fatalf("%s: status %d: %s", body, rec.Code, rec.Body)
		}
		var resp PersonalizedResponse
		if err := json.Unmarshal(rec.Body.Bytes(), &resp); err != nil {
			t.Fatal(err)
		}
		return resp.Top
	}
	if rec, _ := get(t, warm, "/query?seed=9&full=true"); rec.Code != http.StatusOK {
		t.Fatalf("/query: status %d", rec.Code)
	}
	q := make([]float64, eng.N())
	q[seed] = 1
	scores, err := eng.Personalized(q)
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		body  string
		seeds map[int]bool // left out of the ranking
	}{
		{`{"weights":{"9":2.5},"topk":8}`, map[int]bool{seed: true}},
		{`{"weights":{"9":2.5,"30":0},"topk":8}`, map[int]bool{seed: true, zero: true}},
	} {
		body := tc.body
		m0 := warm.Executor().Metrics()
		got := personalized(warm, body)
		m := warm.Executor().Metrics().Delta(m0)
		if m.CacheHits != 1 || m.CacheMisses != 0 || m.Executed != 0 {
			t.Fatalf("%s: %d hits, %d misses, %d solves; want the cached vector", body, m.CacheHits, m.CacheMisses, m.Executed)
		}
		want := core.RankTopKFunc(scores, 8, func(node int) bool {
			return tc.seeds[node] || scores[node] <= 0
		})
		for name, top := range map[string][]core.Ranked{"warm": got, "cold": personalized(cold, body)} {
			if len(top) != len(want) {
				t.Fatalf("%s %s: %d entries, want %d", name, body, len(top), len(want))
			}
			for i := range want {
				if top[i].Node != want[i].Node || math.Float64bits(top[i].Score) != math.Float64bits(want[i].Score) {
					t.Fatalf("%s %s: rank %d = %+v, want %+v", name, body, i, top[i], want[i])
				}
			}
		}
	}
}
