package obs

import (
	"sync/atomic"
	"time"
)

// Event is one entry in the flight recorder: a structured, timestamped
// operational occurrence (shard ejected, retry, engine swap, admission
// rejection, ...) with an optional trace-ID correlation so /debug/events
// and /debug/traces join on the same key.
type Event struct {
	Seq     uint64            `json:"seq"`
	Time    time.Time         `json:"time"`
	Kind    string            `json:"kind"`
	TraceID string            `json:"trace_id,omitempty"`
	Fields  map[string]string `json:"fields,omitempty"`
}

// EventLog is an always-on bounded flight recorder. Record is lock-free —
// one atomic counter bump plus one atomic pointer store into a power-of-two
// ring — so it is safe to call from retry loops, health checks, and the
// admission fast path without a mutex ever appearing on a serving path.
// Readers snapshot pointers without stopping writers; an entry being
// overwritten concurrently is simply skipped or read in its old, fully
// consistent form (pointers are published whole).
type EventLog struct {
	clock Clock
	seq   atomic.Uint64
	ring  []atomic.Pointer[Event]
	mask  uint64
}

// DefaultEventCapacity is the flight-recorder ring size used by New: large
// enough to hold the interesting prefix of an incident (events are rare —
// per-anomaly, not per-query), small enough to serialize in one response.
const DefaultEventCapacity = 1024

// NewEventLog builds a recorder holding the last `capacity` events
// (rounded up to a power of two; ≤ 0 selects DefaultEventCapacity). clock
// nil means time.Now.
func NewEventLog(capacity int, clock Clock) *EventLog {
	if capacity <= 0 {
		capacity = DefaultEventCapacity
	}
	n := 1
	for n < capacity {
		n <<= 1
	}
	return &EventLog{clock: clock, ring: make([]atomic.Pointer[Event], n), mask: uint64(n - 1)}
}

// Record appends one event. traceID may be "" (no correlation); fields may
// be nil. Nil-safe, so a disabled observer costs one branch.
func (l *EventLog) Record(kind, traceID string, fields map[string]string) {
	if l == nil {
		return
	}
	seq := l.seq.Add(1)
	ev := &Event{Seq: seq, Time: l.clock.now(), Kind: kind, TraceID: traceID, Fields: fields}
	l.ring[(seq-1)&l.mask].Store(ev)
}

// Recent returns up to max events, newest first. Pass max ≤ 0 for the whole
// ring. Taken under concurrent Record calls the result is a consistent
// point-in-time sample: each returned event is whole, ordering is by
// sequence number, and entries that were overwritten mid-scan are dropped
// rather than duplicated.
func (l *EventLog) Recent(max int) []Event {
	if l == nil {
		return nil
	}
	head := l.seq.Load()
	n := uint64(len(l.ring))
	if head < n {
		n = head
	}
	if max > 0 && uint64(max) < n {
		n = uint64(max)
	}
	out := make([]Event, 0, n)
	lastSeq := head + 1
	for i := uint64(0); i < uint64(len(l.ring)) && uint64(len(out)) < n; i++ {
		seq := head - i
		if seq == 0 {
			break
		}
		ev := l.ring[(seq-1)&l.mask].Load()
		// A slot may hold a newer event than the one we targeted if a
		// writer lapped us; keep the scan monotone by sequence instead of
		// emitting out-of-order duplicates.
		if ev == nil || ev.Seq >= lastSeq {
			continue
		}
		out = append(out, *ev)
		lastSeq = ev.Seq
	}
	return out
}
