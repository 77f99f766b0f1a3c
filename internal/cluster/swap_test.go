package cluster

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"sync"
	"sync/atomic"
	"testing"

	"bepi"
	"bepi/internal/qexec"
	"bepi/internal/server"
)

// swapTestGraph builds a small connected graph through the public API.
func swapTestGraph(t *testing.T, n int) *bepi.Graph {
	t.Helper()
	var edges []bepi.Edge
	for i := 0; i < n; i++ {
		edges = append(edges,
			bepi.Edge{Src: i, Dst: (i + 1) % n},
			bepi.Edge{Src: i, Dst: (i*3 + 1) % n})
	}
	g, err := bepi.NewGraph(n, edges)
	if err != nil {
		t.Fatalf("NewGraph: %v", err)
	}
	return g
}

// TestClusterGenerationSwapNeverMixes: real dynamic replicas rebuild and
// swap engines while concurrent /personalized calls run through the
// coordinator's handler. Each call is one solve on one replica, so it
// cannot mix generations; none may fail, and each answer carries a
// generation the fleet has served. Run under -race this also exercises the
// swap path against concurrent routing.
func TestClusterGenerationSwapNeverMixes(t *testing.T) {
	const n = 40
	const replicas = 2
	g := swapTestGraph(t, n)

	dyns := make([]*bepi.Dynamic, replicas)
	backends := make([]Backend, replicas)
	for i := 0; i < replicas; i++ {
		d, err := bepi.NewDynamic(g)
		if err != nil {
			t.Fatalf("NewDynamic: %v", err)
		}
		dyns[i] = d
		core := server.NewDynamicCore(d, qexec.Config{})
		defer core.Close()
		backends[i] = NewLocalBackend(fmt.Sprintf("replica-%d", i), core)
	}
	coord, err := New(backends, Config{HealthInterval: -1})
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	defer coord.Close()
	h := NewHandler(coord)

	rounds := 4
	if testing.Short() {
		rounds = 2
	}

	// Updater: apply the same update stream to every replica and rebuild.
	// The rebuilds race each other and the queriers, so between the two
	// Wait calls the fleet is genuinely split across generations.
	done := make(chan struct{})
	var updErr atomic.Value
	go func() {
		defer close(done)
		for r := 0; r < rounds; r++ {
			src, dst := r%n, (r*7+11)%n
			for _, d := range dyns {
				if err := d.AddEdge(src, dst); err != nil {
					updErr.Store(fmt.Errorf("AddEdge: %w", err))
					return
				}
			}
			rebuilds := make([]*bepi.Rebuild, replicas)
			for i, d := range dyns {
				rebuilds[i] = d.StartFlush()
			}
			for _, rb := range rebuilds {
				if err := rb.Wait(); err != nil {
					updErr.Store(fmt.Errorf("rebuild: %w", err))
					return
				}
			}
		}
	}()

	// Queriers: each weight map routes on its smallest seed, and the maps
	// start at seeds owned by both replicas.
	var (
		wg       sync.WaitGroup
		answers  atomic.Int64
		failures atomic.Value
	)
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			// A minimum iteration count keeps the forward exercised even
			// when the rebuild rounds finish faster than the first query.
			for iter := 0; ; iter++ {
				if iter >= 8 {
					select {
					case <-done:
						return
					default:
					}
				}
				s := (w*11 + iter) % (n - 3)
				body := fmt.Sprintf(`{"weights":{"%d":1,"%d":1,"%d":1},"topk":5}`, s, s+1, s+3)
				rec := postPersonalized(h, body)
				if rec.Code != http.StatusOK {
					failures.Store(fmt.Errorf("%s: status %d: %s", body, rec.Code, rec.Body))
					return
				}
				var resp server.PersonalizedResponse
				if err := json.Unmarshal(rec.Body.Bytes(), &resp); err != nil {
					failures.Store(err)
					return
				}
				if resp.Generation < 1 || resp.Generation > uint64(rounds)+1 || resp.IndexHash == "" || len(resp.Top) == 0 {
					failures.Store(fmt.Errorf("%s: answer %+v", body, resp))
					return
				}
				answers.Add(1)
			}
		}(w)
	}
	wg.Wait()
	if err := updErr.Load(); err != nil {
		t.Fatal(err)
	}
	if err := failures.Load(); err != nil {
		t.Fatal(err)
	}
	// Steady state after all replicas applied the same update stream: the
	// answer comes from the final generation.
	m, err := coord.Personalized(context.Background(), map[int]float64{0: 1, 5: 1}, 5)
	if err != nil {
		t.Fatalf("steady-state personalized after swaps: %v", err)
	}
	if want := dyns[0].Generation(); m.Generation != want {
		// Dynamic and executor generations both start at 1 and bump per swap.
		t.Fatalf("steady-state answer at generation %d, want %d", m.Generation, want)
	}
	for i, d := range dyns {
		if d.Generation() == 1 {
			t.Fatalf("replica %d never swapped; the test exercised nothing", i)
		}
	}
	t.Logf("answers=%d final gens=[%d %d]", answers.Load(), dyns[0].Generation(), dyns[1].Generation())
}

// TestClusterSwapSingleQueryTagged: a routed single query during a swap is
// always tagged with the generation and index hash of the engine that
// actually served it.
func TestClusterSwapSingleQueryTagged(t *testing.T) {
	const n = 30
	g := swapTestGraph(t, n)
	d, err := bepi.NewDynamic(g)
	if err != nil {
		t.Fatalf("NewDynamic: %v", err)
	}
	core := server.NewDynamicCore(d, qexec.Config{})
	defer core.Close()
	coord, err := New([]Backend{NewLocalBackend("r0", core)}, Config{HealthInterval: -1})
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	defer coord.Close()

	ctx := context.Background()
	p, err := coord.Query(ctx, 3, 5, false)
	if err != nil {
		t.Fatalf("Query: %v", err)
	}
	if p.Generation != 1 || p.IndexHash == "" {
		t.Fatalf("pre-swap generation %d hash %q, want g1 (executor generations start at 1) with a hash", p.Generation, p.IndexHash)
	}
	if err := d.AddEdge(1, 17); err != nil {
		t.Fatalf("AddEdge: %v", err)
	}
	if err := d.Flush(); err != nil {
		t.Fatalf("Flush: %v", err)
	}
	p2, err := coord.Query(ctx, 3, 5, false)
	if err != nil {
		t.Fatalf("Query after swap: %v", err)
	}
	if p2.Generation != p.Generation+1 {
		t.Fatalf("post-swap generation = %d, want %d", p2.Generation, p.Generation+1)
	}
	if p2.IndexHash == "" || p2.IndexHash == p.IndexHash {
		t.Fatalf("post-swap hash %q should differ from pre-swap %q (the graph changed)",
			p2.IndexHash, p.IndexHash)
	}
}
