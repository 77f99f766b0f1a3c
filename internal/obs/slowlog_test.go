package obs

import (
	"bytes"
	"errors"
	"log/slog"
	"strings"
	"testing"
	"time"
)

func TestSlowLog(t *testing.T) {
	var buf bytes.Buffer
	logger := slog.New(slog.NewJSONHandler(&buf, nil))
	sl := NewSlowLog(logger, 100*time.Millisecond)

	if sl.Slow(50 * time.Millisecond) {
		t.Fatal("below threshold must not be slow")
	}
	if !sl.Slow(100 * time.Millisecond) {
		t.Fatal("at threshold must be slow")
	}
	spans := []Span{{Name: "solve", Start: 0, Dur: 90 * time.Millisecond}}
	sl.Log("query", 42, "deadbeefcafe0001", 120*time.Millisecond, false, 17, 3e-10, errors.New("late"), spans)
	out := buf.String()
	for _, want := range []string{
		`"msg":"slow query"`, `"kind":"query"`, `"seed":42`,
		`"iterations":17`, `"error":"late"`, `"solve":`,
		`"trace_id":"deadbeefcafe0001"`,
	} {
		if !strings.Contains(out, want) {
			t.Errorf("missing %s in %s", want, out)
		}
	}
	if sl.Count() != 1 {
		t.Fatalf("count %d", sl.Count())
	}
}

func TestSlowLogNilSafe(t *testing.T) {
	var sl *SlowLog
	if sl.Slow(time.Hour) {
		t.Fatal("nil log is never slow")
	}
	sl.Log("query", 0, "", time.Hour, false, 0, 0, nil, nil)
	if sl.Count() != 0 {
		t.Fatal("nil accessors")
	}
}

func TestObserverDefaultsAndDisabled(t *testing.T) {
	o := New(Options{})
	if o.QueryLatency == nil || o.Tracer == nil {
		t.Fatal("defaults missing")
	}
	if o.SlowLog != nil {
		t.Fatal("slow log must be off by default")
	}
	if o.Now().IsZero() {
		t.Fatal("default clock")
	}
	o2 := New(Options{SlowQuery: time.Second, TraceCapacity: -1})
	if o2.SlowLog == nil || o2.Tracer != nil {
		t.Fatal("slow log on / tracing off expected")
	}
	// Disabled and nil observers must be inert but usable.
	Disabled.QueryLatency.Observe(1)
	Disabled.Tracer.Begin("query", 0).Finish(Disabled.Now())
	var nilObs *Observer
	if nilObs.Now().IsZero() {
		t.Fatal("nil observer clock")
	}
}
