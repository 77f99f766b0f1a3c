package obs

import (
	"sync"
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

// EventLog is an always-on bounded flight recorder: a power-of-two ring
// of the most recent events. Record takes the next sequence number and
// stores the event in its slot under one mutex, as Tracer's ring does, so
// the ring always holds the newest events in sequence order. Events are
// per anomaly, not per query, so the lock is off the serving hot path.
type EventLog struct {
	clock Clock
	mu    sync.Mutex
	seq   uint64 // events recorded; the newest has Seq == seq
	ring  []*Event
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
	return &EventLog{clock: clock, ring: make([]*Event, n), mask: uint64(n - 1)}
}

// Record appends one event. traceID may be "" (no correlation); fields may
// be nil. Nil-safe, so a disabled observer costs one branch.
func (l *EventLog) Record(kind, traceID string, fields map[string]string) {
	if l == nil {
		return
	}
	ev := &Event{Time: l.clock.now(), Kind: kind, TraceID: traceID, Fields: fields}
	l.mu.Lock()
	l.seq++
	ev.Seq = l.seq
	l.ring[(l.seq-1)&l.mask] = ev
	l.mu.Unlock()
}

// Recent returns up to max events, newest first. Pass max ≤ 0 for the whole
// ring. It copies the events out under the ring's lock, so the result is a
// point-in-time snapshot in descending sequence order.
func (l *EventLog) Recent(max int) []Event {
	if l == nil {
		return nil
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	n := min(l.seq, uint64(len(l.ring)))
	if max > 0 && uint64(max) < n {
		n = uint64(max)
	}
	out := make([]Event, n)
	for i := range out {
		out[i] = *l.ring[(l.seq-1-uint64(i))&l.mask]
	}
	return out
}
