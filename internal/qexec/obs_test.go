package qexec

import (
	"bytes"
	"context"
	"errors"
	"log/slog"
	"strings"
	"sync"
	"testing"
	"time"

	"bepi/internal/obs"
)

func spanNames(spans []obs.Span) []string {
	names := make([]string, len(spans))
	for i, s := range spans {
		names[i] = s.Name
	}
	return names
}

func hasSpan(spans []obs.Span, name string) bool {
	for _, s := range spans {
		if s.Name == name {
			return true
		}
	}
	return false
}

// TestObserverIntegration runs miss, hit, top-k and personalized queries
// through one executor and checks that every obs sink saw them: latency and
// queue-wait histograms, solver-iteration counters, stage-span traces, and
// the slow-query log.
func TestObserverIntegration(t *testing.T) {
	e := eng(t)
	var logBuf bytes.Buffer
	o := obs.New(obs.Options{
		SlowQuery: time.Nanosecond, // everything is slow
		Logger:    slog.New(slog.NewJSONHandler(&logBuf, nil)),
	})
	ex := New(e, Config{Obs: o})
	defer ex.Close()
	ctx := context.Background()

	if _, err := ex.Query(ctx, 5); err != nil { // miss → solve
		t.Fatal(err)
	}
	res, err := ex.Query(ctx, 5) // hit
	if err != nil {
		t.Fatal(err)
	}
	if !res.Cached {
		t.Fatal("second identical query not served from cache")
	}
	if top, _, err := ex.TopK(ctx, 5, 10); err != nil || len(top) == 0 {
		t.Fatalf("TopK: %v (%d results)", err, len(top))
	}
	q := make([]float64, e.N())
	q[7] = 1
	if _, err := ex.Personalized(ctx, q); err != nil {
		t.Fatal(err)
	}

	if got := o.QueryLatency.Snapshot().Count; got != 4 {
		t.Errorf("QueryLatency observed %d queries, want 4", got)
	}
	// Two engine solves: the seed-5 miss and the personalized query.
	if got := o.QueueWait.Snapshot().Count; got != 2 {
		t.Errorf("QueueWait observed %d solves, want 2", got)
	}
	if got := o.Iterations.Snapshot().Count; got != 2 {
		t.Errorf("Iterations observed %d solves, want 2", got)
	}
	if got := o.Residual.Snapshot().Count; got != 2 {
		t.Errorf("Residual observed %d solves, want 2", got)
	}
	if got := o.SolveLatency.Snapshot().Count; got != 2 {
		t.Errorf("SolveLatency observed %d solves, want 2", got)
	}
	if o.SolverIters.Load() == 0 {
		t.Error("SolverIters never incremented: engine iteration hook not wired")
	}

	traces := o.Tracer.Recent(0)
	if len(traces) != 4 {
		t.Fatalf("trace ring has %d traces, want 4", len(traces))
	}
	// Newest first: personalized, top-k (hit), hit, miss.
	if traces[0].Kind != "personalized" || traces[0].Seed != -1 {
		t.Errorf("newest trace = %q seed %d, want personalized/-1", traces[0].Kind, traces[0].Seed)
	}
	if !hasSpan(traces[1].Spans, "rank") || !traces[1].Cached {
		t.Errorf("top-k trace: want cached with rank span, got cached=%v spans=%v",
			traces[1].Cached, spanNames(traces[1].Spans))
	}
	if !traces[2].Cached || !hasSpan(traces[2].Spans, "cache") {
		t.Errorf("hit trace: want cached with cache span, got cached=%v spans=%v",
			traces[2].Cached, spanNames(traces[2].Spans))
	}
	miss := traces[3]
	for _, want := range []string{"cache", "admission", "solve"} {
		if !hasSpan(miss.Spans, want) {
			t.Errorf("miss trace lacks %q span: %v", want, spanNames(miss.Spans))
		}
	}
	if miss.Iterations < 1 || miss.Total <= 0 {
		t.Errorf("miss trace incomplete: %+v", miss)
	}

	if got := o.SlowLog.Count(); got != 4 {
		t.Errorf("slow log counted %d queries, want 4", got)
	}
	if s := logBuf.String(); !strings.Contains(s, "slow query") || !strings.Contains(s, `"solve"`) {
		t.Errorf("slow log output missing record or stage breakdown:\n%s", s)
	}
}

// TestTimedOutQueryTraced: a query that runs past Config.Timeout is traced
// like any other, its trace finished with the deadline error and kept in
// the ring.
func TestTimedOutQueryTraced(t *testing.T) {
	e := freshEngine(t, 8, 6, 7)
	seed := iteratingSeed(t, e)
	o := obs.New(obs.Options{TraceSample: 1})
	const timeout = 20 * time.Millisecond
	ex := New(e, Config{Timeout: timeout, CacheEntries: -1, Obs: o})
	defer ex.Close()
	// The solve's first iteration outlasts the deadline, which the solver
	// sees before its second.
	e.SetIterHook(func(iter int, _ float64) {
		if iter == 1 {
			time.Sleep(2 * timeout)
		}
	})
	if _, err := ex.Query(context.Background(), seed); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("got %v, want context.DeadlineExceeded", err)
	}
	traces := o.Tracer.Recent(0)
	if len(traces) != 1 {
		t.Fatalf("trace ring has %d traces, want the timed-out query's", len(traces))
	}
	if tr := traces[0]; tr.Seed != seed || !strings.Contains(tr.Err, context.DeadlineExceeded.Error()) {
		t.Fatalf("trace of seed %d with error %q, want seed %d with the deadline error", tr.Seed, tr.Err, seed)
	}
}

// TestConcurrentObservationScrape races the telemetry readers (a scraper
// snapshotting histograms, metrics and traces in a loop) against full query
// traffic — the production interleaving of /metrics and /debug/traces with
// serving. Run under -race via `make race-par`.
func TestConcurrentObservationScrape(t *testing.T) {
	e := eng(t)
	o := obs.New(obs.Options{TraceCapacity: 64})
	ex := New(e, Config{Obs: o})
	defer ex.Close()

	stop := make(chan struct{})
	var scraper sync.WaitGroup
	scraper.Add(1)
	go func() {
		defer scraper.Done()
		for {
			select {
			case <-stop:
				return
			default:
			}
			_ = o.QueryLatency.Snapshot().Quantile(0.99)
			_ = o.QueueWait.Snapshot()
			_ = o.SolverIters.Load()
			_ = o.Tracer.Recent(16)
			_ = ex.Metrics().HitRate()
		}
	}()

	var clients sync.WaitGroup
	for c := 0; c < 4; c++ {
		clients.Add(1)
		go func(c int) {
			defer clients.Done()
			ctx := context.Background()
			for i := 0; i < 25; i++ {
				if _, err := ex.Query(ctx, (c*25+i)%e.N()); err != nil {
					t.Errorf("query: %v", err)
					return
				}
			}
		}(c)
	}
	clients.Wait()
	close(stop)
	scraper.Wait()

	if got := o.QueryLatency.Snapshot().Count; got != 100 {
		t.Fatalf("latency histogram saw %d queries, want 100", got)
	}
}

// TestObsDisabled checks that obs.Disabled turns the whole layer off
// without breaking the query path.
func TestObsDisabled(t *testing.T) {
	e := eng(t)
	ex := New(e, Config{Obs: obs.Disabled})
	defer ex.Close()
	for i := 0; i < 3; i++ {
		if _, err := ex.Query(context.Background(), i); err != nil {
			t.Fatal(err)
		}
	}
	o := ex.Observer()
	if o.QueryLatency.Snapshot().Count != 0 || len(o.Tracer.Recent(0)) != 0 {
		t.Fatal("disabled observer recorded telemetry")
	}
}
