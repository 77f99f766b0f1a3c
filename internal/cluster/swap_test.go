package cluster

import (
	"context"
	"errors"
	"fmt"
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

// TestClusterGenerationSwapNeverMixes is the end-to-end merge-guard
// regression: real dynamic replicas rebuild and swap engines while
// personalized scatter-gather merges run against them concurrently. Every
// merge that succeeds must have gathered all its partials under one
// (index hash, generation); a gather straddling a swap may only surface as
// ErrGenerationMix, never as silently mixed scores. Run under -race this
// also exercises the swap path against concurrent routing.
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

	// Queriers: personalized merges across seeds owned by both replicas.
	weights := map[int]float64{}
	ring := coord.Ring()
	first := ring.Owner(0)
	weights[0] = 1
	for s := 1; s < n && len(weights) < 4; s++ {
		if ring.Owner(s) != first || len(weights) >= 2 {
			weights[s] = 1
		}
	}
	var (
		wg       sync.WaitGroup
		merges   atomic.Int64
		mixes    atomic.Int64
		failures atomic.Value
	)
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			// A minimum iteration count keeps the merge path exercised even
			// when the rebuild rounds finish faster than the first query.
			for iter := 0; ; iter++ {
				if iter >= 8 {
					select {
					case <-done:
						return
					default:
					}
				}
				m, err := coord.Personalized(context.Background(), weights, 5)
				switch {
				case err == nil:
					merges.Add(1)
					if m.Tag.Hash == "" {
						failures.Store(fmt.Errorf("merge succeeded with an empty tag"))
						return
					}
				case errors.Is(err, ErrGenerationMix):
					// The honest answer during a rolling swap window.
					mixes.Add(1)
				default:
					failures.Store(fmt.Errorf("personalized: %w", err))
					return
				}
			}
		}()
	}
	wg.Wait()
	if err := updErr.Load(); err != nil {
		t.Fatal(err)
	}
	if err := failures.Load(); err != nil {
		t.Fatal(err)
	}
	// Steady state after all replicas applied the same update stream: tags
	// agree again, so the merge must succeed, at the final generation.
	m, err := coord.Personalized(context.Background(), weights, 5)
	if err != nil {
		t.Fatalf("steady-state personalized after swaps: %v", err)
	}
	merges.Add(1)
	if want := dyns[0].Generation(); m.Tag.Gen != want {
		// Dynamic and executor generations both start at 1 and bump per swap.
		t.Fatalf("steady-state merge at generation %d, want %d", m.Tag.Gen, want)
	}
	if merges.Load() == 0 {
		t.Fatal("no successful merges at all")
	}
	for i, d := range dyns {
		if d.Generation() == 1 {
			t.Fatalf("replica %d never swapped; the test exercised nothing", i)
		}
	}
	t.Logf("merges=%d generation-mix refusals=%d final gens=[%d %d]",
		merges.Load(), mixes.Load(), dyns[0].Generation(), dyns[1].Generation())
}

// TestClusterSwapSingleQueryTagged: a routed single query during a swap is
// always tagged with the generation of the engine that actually served it —
// the (gen, hash) pair a merge would key on.
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
		t.Fatalf("pre-swap tag = %v, want g1 (executor generations start at 1) with a hash", p.Tag())
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
