package obs

import (
	"errors"
	"testing"
	"time"
)

// fakeClock is a deterministic clock advancing a fixed step per reading.
type fakeClock struct {
	t    time.Time
	step time.Duration
}

func (c *fakeClock) now() time.Time {
	c.t = c.t.Add(c.step)
	return c.t
}

func TestTraceSpansDeterministicClock(t *testing.T) {
	base := time.Date(2026, 8, 6, 0, 0, 0, 0, time.UTC)
	clk := &fakeClock{t: base, step: time.Millisecond}
	tr := NewTracer(4, 1, clk.now)

	at := tr.Begin("query", 7) // reads the clock once: start = base+1ms
	if at == nil {
		t.Fatal("sample=1 must trace every query")
	}
	t0 := clk.now() // base+2ms
	t1 := clk.now() // base+3ms
	at.AddSpan("cache", t0, t1)
	t2 := clk.now() // base+4ms
	at.AddSpan("solve", t1, t2)
	at.SetBatch(3)
	at.SetSolve(21, 1e-10)
	at.SetErr(errors.New("boom"))
	at.Finish(clk.now()) // base+5ms

	got := tr.Recent(0)
	if len(got) != 1 {
		t.Fatalf("recent: %d traces", len(got))
	}
	g := got[0]
	if g.Kind != "query" || g.Seed != 7 || g.ID != 1 {
		t.Fatalf("identity wrong: %+v", g)
	}
	if g.Total != 4*time.Millisecond {
		t.Fatalf("total %v want 4ms", g.Total)
	}
	want := []Span{
		{Name: "cache", Start: time.Millisecond, Dur: time.Millisecond},
		{Name: "solve", Start: 2 * time.Millisecond, Dur: time.Millisecond},
	}
	if len(g.Spans) != len(want) {
		t.Fatalf("spans %v", g.Spans)
	}
	for i, w := range want {
		sp := g.Spans[i]
		if sp.Name != w.Name || sp.Start != w.Start || sp.Dur != w.Dur {
			t.Errorf("span %d: got %+v want %+v", i, sp, w)
		}
	}
	if g.BatchSize != 3 || g.Iterations != 21 || g.Residual != 1e-10 || g.Err != "boom" {
		t.Fatalf("fields wrong: %+v", g)
	}
	if !g.Time.Equal(base.Add(time.Millisecond)) {
		t.Fatalf("start time %v", g.Time)
	}
}

func TestTracerRingWrapsNewestFirst(t *testing.T) {
	clk := &fakeClock{t: time.Unix(0, 0), step: time.Microsecond}
	tr := NewTracer(3, 1, clk.now)
	for i := 0; i < 5; i++ {
		at := tr.Begin("query", i)
		at.Finish(clk.now())
	}
	got := tr.Recent(0)
	if len(got) != 3 {
		t.Fatalf("ring holds %d", len(got))
	}
	for i, wantSeed := range []int{4, 3, 2} {
		if got[i].Seed != wantSeed {
			t.Errorf("recent[%d].Seed = %d want %d", i, got[i].Seed, wantSeed)
		}
	}
	if got2 := tr.Recent(2); len(got2) != 2 || got2[0].Seed != 4 {
		t.Fatalf("limited recent wrong: %v", got2)
	}
}

func TestTracerSampling(t *testing.T) {
	tr := NewTracer(8, 3, nil)
	var sampled int
	for i := 0; i < 9; i++ {
		if at := tr.Begin("query", i); at != nil {
			sampled++
			at.Finish(time.Now())
		}
	}
	if sampled != 3 {
		t.Fatalf("sampled %d of 9 at rate 3", sampled)
	}
}

func TestTraceNilSafe(t *testing.T) {
	var tr *Tracer
	at := tr.Begin("query", 0)
	if at != nil {
		t.Fatal("nil tracer must not sample")
	}
	// Every ActiveTrace method must be a no-op on nil.
	at.AddSpan("x", time.Now(), time.Now())
	at.SetCached()
	at.SetBatch(1)
	at.SetSolve(1, 0)
	at.SetErr(errors.New("x"))
	at.Finish(time.Now())
	if at.Spans() != nil {
		t.Fatal("nil spans")
	}
	if tr.Recent(10) != nil {
		t.Fatal("nil tracer recent")
	}
}
