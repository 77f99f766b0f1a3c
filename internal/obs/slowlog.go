package obs

import (
	"context"
	"log/slog"
	"sync/atomic"
	"time"
)

// SlowLog emits a structured log record for every query slower than its
// threshold. It exists so that the one query in ten thousand that missed
// its latency budget leaves evidence — which stage ate the time, how many
// solver iterations it took, whether it fought the cache — without anyone
// having had a profiler attached.
type SlowLog struct {
	log       *slog.Logger
	threshold time.Duration
	count     atomic.Int64
}

// NewSlowLog builds a slow-query log at the given threshold. logger nil
// means slog.Default().
func NewSlowLog(logger *slog.Logger, threshold time.Duration) *SlowLog {
	if logger == nil {
		logger = slog.Default()
	}
	return &SlowLog{log: logger, threshold: threshold}
}

// Slow reports whether d crosses the threshold; false on a nil log, so the
// caller only assembles the record's attributes for queries that will
// actually be logged.
func (s *SlowLog) Slow(d time.Duration) bool {
	return s != nil && d >= s.threshold
}

// Count reports how many slow queries have been logged.
func (s *SlowLog) Count() int64 {
	if s == nil {
		return 0
	}
	return s.count.Load()
}

// Log writes one slow-query record. traceID correlates the line with
// /debug/traces and /debug/events ("" when the query was untraced); spans
// may be nil (e.g. when the query was not sampled by the tracer), otherwise
// the per-stage breakdown is emitted inline so the one line is actionable
// without a second lookup.
func (s *SlowLog) Log(kind string, seed int, traceID string, total time.Duration,
	cached bool, iterations int, residual float64, err error, spans []Span) {
	if s == nil {
		return
	}
	s.count.Add(1)
	attrs := []slog.Attr{
		slog.String("kind", kind),
		slog.Int("seed", seed),
		slog.Duration("total", total),
		slog.Duration("threshold", s.threshold),
		slog.Bool("cached", cached),
		slog.Int("iterations", iterations),
		slog.Float64("residual", residual),
	}
	if traceID != "" {
		attrs = append(attrs, slog.String("trace_id", traceID))
	}
	if err != nil {
		attrs = append(attrs, slog.String("error", err.Error()))
	}
	if len(spans) > 0 {
		stage := make([]any, 0, len(spans))
		for _, sp := range spans {
			stage = append(stage, slog.Duration(sp.Name, sp.Dur))
		}
		attrs = append(attrs, slog.Group("stages", stage...))
	}
	s.log.LogAttrs(context.Background(), slog.LevelWarn, "slow query", attrs...)
}
