package server

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"math"
	"net/http"
	"net/http/httptest"
	"runtime"
	"sync"
	"testing"

	"bepi"
	"bepi/internal/qexec"
)

// TestMixedTrafficConcurrency hammers /query and /personalized from many
// goroutines through the qexec path and checks every score against the
// exact engine answer plus a clean shutdown. Run under -race this covers
// the whole serving stack.
func TestMixedTrafficConcurrency(t *testing.T) {
	g := bepi.RMAT(8, 6, 5)
	eng, err := bepi.New(g)
	if err != nil {
		t.Fatal(err)
	}
	s := NewWithConfig(eng, qexec.Config{CacheEntries: 8})

	const seeds = 10
	wantSeed := make([][]float64, seeds)
	wantPPR := make([][]float64, seeds)
	for i := 0; i < seeds; i++ {
		if wantSeed[i], err = eng.Query(i); err != nil {
			t.Fatal(err)
		}
		q := make([]float64, eng.N())
		q[i], q[i+20] = 0.25, 0.75
		if wantPPR[i], err = eng.Personalized(q); err != nil {
			t.Fatal(err)
		}
	}

	const workers = 12
	const opsEach = 25
	var wg sync.WaitGroup
	wg.Add(workers)
	for w := 0; w < workers; w++ {
		go func(w int) {
			defer wg.Done()
			for op := 0; op < opsEach; op++ {
				i := (w*5 + op) % seeds
				if (w+op)%3 == 0 {
					body := fmt.Sprintf(`{"weights":{"%d":0.25,"%d":0.75},"topk":5}`, i, i+20)
					req := httptest.NewRequest(http.MethodPost, "/personalized", bytes.NewReader([]byte(body)))
					rec := httptest.NewRecorder()
					s.ServeHTTP(rec, req)
					if rec.Code != http.StatusOK {
						t.Errorf("personalized %d: status %d: %s", i, rec.Code, rec.Body.String())
						return
					}
					var resp struct {
						Top []RankedEntry `json:"top"`
					}
					if err := json.Unmarshal(rec.Body.Bytes(), &resp); err != nil {
						t.Error(err)
						return
					}
					for _, e := range resp.Top {
						if math.Abs(e.Score-wantPPR[i][e.Node]) > 1e-12 {
							t.Errorf("personalized %d node %d: got %v want %v", i, e.Node, e.Score, wantPPR[i][e.Node])
							return
						}
					}
				} else {
					req := httptest.NewRequest(http.MethodGet, fmt.Sprintf("/query?seed=%d&full=true", i), nil)
					rec := httptest.NewRecorder()
					s.ServeHTTP(rec, req)
					if rec.Code != http.StatusOK {
						t.Errorf("query %d: status %d: %s", i, rec.Code, rec.Body.String())
						return
					}
					var resp QueryResponse
					if err := json.Unmarshal(rec.Body.Bytes(), &resp); err != nil {
						t.Error(err)
						return
					}
					for u, v := range resp.Scores {
						if math.Abs(v-wantSeed[i][u]) > 1e-12 {
							t.Errorf("query %d node %d: got %v want %v", i, u, v, wantSeed[i][u])
							return
						}
					}
				}
			}
		}(w)
	}
	wg.Wait()
	s.Close()

	// After shutdown an uncached query sheds with 503 instead of
	// panicking. (Cached seeds keep serving — the cache outlives the pool.)
	req := httptest.NewRequest(http.MethodGet, "/query?seed=200", nil)
	rec := httptest.NewRecorder()
	s.ServeHTTP(rec, req)
	if rec.Code != http.StatusServiceUnavailable {
		t.Fatalf("post-shutdown query: status %d want 503", rec.Code)
	}
}

// TestQexecMetricsExposed checks /metrics carries the execution-subsystem
// counters: a repeated default (bound-pruned) query must show up as a cache
// hit, counted under topk_cache_hits too when it replayed a certified
// ranking rather than ranking a cached full vector.
func TestQexecMetricsExposed(t *testing.T) {
	s, _ := testServer(t)
	defer s.Close()
	get(t, s, "/query?seed=4")
	rec, body := get(t, s, "/query?seed=4")
	if rec.Code != http.StatusOK {
		t.Fatalf("status %d", rec.Code)
	}
	if body["cached"] != true {
		t.Fatalf("repeat seed not served from cache: %v", body)
	}
	_, metrics := get(t, s, "/metrics")
	if int(metrics["cache_hits"].(float64)) != 1 {
		t.Fatalf("cache_hits = %v, want 1", metrics["cache_hits"])
	}
	wantTopK := 0.0
	if body["early_stopped"] == true {
		wantTopK = 1
	}
	if metrics["topk_cache_hits"] != wantTopK {
		t.Fatalf("topk_cache_hits = %v, want %v (early_stopped=%v)", metrics["topk_cache_hits"], wantTopK, body["early_stopped"])
	}
	if int(metrics["executed"].(float64)) < 1 {
		t.Fatalf("executed = %v, want ≥ 1", metrics["executed"])
	}
}

// TestOverloadReturns429 parks the only solve slot of a depth-1 executor,
// fills its queue with one waiting query, and floods /personalized: every
// flood request must be shed with 429 and counted in /metrics, both as shed
// and as an error. The parked and the waiting query complete once released.
func TestOverloadReturns429(t *testing.T) {
	g := bepi.RMAT(8, 6, 5)
	eng, err := bepi.New(g)
	if err != nil {
		t.Fatal(err)
	}
	s := NewWithConfig(eng, qexec.Config{
		Workers:      1,
		QueueDepth:   1,
		CacheEntries: -1,
	})
	defer s.Close()
	ex := s.core.Executor()
	ce := eng.Internal()
	parkSeed := -1
	for seed := 0; seed < ce.N() && parkSeed < 0; seed++ {
		if _, st, err := ce.Query(seed); err == nil && st.Iterations > 0 {
			parkSeed = seed
		}
	}
	if parkSeed < 0 {
		t.Fatal("no seed on this graph exercises the iterative solver")
	}

	// Every solve waits in its first iteration until released.
	gate, parked := make(chan struct{}), make(chan struct{})
	var parkOnce, releaseOnce sync.Once
	ce.SetIterHook(func(int, float64) {
		parkOnce.Do(func() { close(parked) })
		<-gate
	})
	release := func() { releaseOnce.Do(func() { close(gate) }) }
	defer release()
	held := make(chan error, 2)
	go func() { _, err := ex.Query(context.Background(), parkSeed); held <- err }()
	<-parked
	go func() { _, err := ex.Query(context.Background(), (parkSeed+1)%ce.N()); held <- err }()
	for ex.Metrics().Queued < 1 {
		runtime.Gosched()
	}

	total, shed := 0, 0
	const N = 32
	for i := 0; i < N; i++ {
		body := fmt.Sprintf(`{"weights":{"%d":1}}`, i)
		req := httptest.NewRequest(http.MethodPost, "/personalized", bytes.NewReader([]byte(body)))
		rec := httptest.NewRecorder()
		s.ServeHTTP(rec, req)
		total++
		switch rec.Code {
		case http.StatusTooManyRequests:
			shed++
		default:
			t.Fatalf("unexpected status %d: %s", rec.Code, rec.Body.String())
		}
	}
	if shed == 0 {
		t.Fatal("flooding a depth-1 queue shed nothing")
	}
	_, metrics := get(t, s, "/metrics")
	if int(metrics["shed"].(float64)) != shed {
		t.Fatalf("shed counter %v, callers saw %d", metrics["shed"], shed)
	}
	if got := int(metrics["errors"].(float64)); got != total {
		t.Fatalf("errors = %d, want %d (every burst request failed)", got, total)
	}
	release()
	for i := 0; i < 2; i++ {
		if err := <-held; err != nil {
			t.Fatalf("parked or waiting query failed: %v", err)
		}
	}
}

// TestPersonalizedErrorsCounted locks in the /metrics fix: bad
// /personalized requests must increment the error counter like bad /query
// requests always did.
func TestPersonalizedErrorsCounted(t *testing.T) {
	s, _ := testServer(t)
	defer s.Close()
	for _, body := range []string{`not json`, `{"weights":{}}`, `{"weights":{"1":-1}}`} {
		req := httptest.NewRequest(http.MethodPost, "/personalized", bytes.NewReader([]byte(body)))
		rec := httptest.NewRecorder()
		s.ServeHTTP(rec, req)
		if rec.Code != http.StatusBadRequest {
			t.Fatalf("body %q: status %d", body, rec.Code)
		}
	}
	_, metrics := get(t, s, "/metrics")
	if got := int(metrics["errors"].(float64)); got != 3 {
		t.Fatalf("errors = %d, want 3", got)
	}
}
