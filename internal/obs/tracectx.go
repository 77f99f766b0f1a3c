package obs

import (
	"context"
	"fmt"
	"math/rand/v2"
	"net/http"
	"strings"
	"sync/atomic"
)

// TraceHeader is the HTTP header that carries a trace context across
// process boundaries: the cluster coordinator sets it on every fan-out
// request it traces, and a shard that receives it records its own spans
// under the same trace ID so the coordinator can reassemble the tree.
const TraceHeader = "X-Bepi-Trace"

// TraceContext identifies a position in a distributed trace: the trace the
// request belongs to and the span that caused this request (the parent of
// whatever span the receiver opens). The zero value means "not traced".
type TraceContext struct {
	TraceID string // hex, process-unique prefix + counter; "" = not traced
	SpanID  uint64 // parent span on the sending side; 0 = root
}

// Valid reports whether the context identifies a trace.
func (tc TraceContext) Valid() bool { return tc.TraceID != "" }

// HeaderValue encodes the context for the X-Bepi-Trace header as
// "<traceID>-<parent span hex>".
func (tc TraceContext) HeaderValue() string {
	return fmt.Sprintf("%s-%016x", tc.TraceID, tc.SpanID)
}

// ParseTraceHeader decodes an X-Bepi-Trace header value. It accepts the
// full "<traceID>-<span>" form and a bare trace ID (parent 0); ok is false
// for an empty or malformed value.
func ParseTraceHeader(v string) (tc TraceContext, ok bool) {
	v = strings.TrimSpace(v)
	if v == "" {
		return TraceContext{}, false
	}
	id, span := v, ""
	if i := strings.LastIndexByte(v, '-'); i > 0 {
		id, span = v[:i], v[i+1:]
	}
	if !isHex(id) {
		return TraceContext{}, false
	}
	tc.TraceID = id
	if span != "" {
		if _, err := fmt.Sscanf(span, "%x", &tc.SpanID); err != nil {
			return TraceContext{}, false
		}
	}
	return tc, true
}

func isHex(s string) bool {
	if s == "" {
		return false
	}
	for i := 0; i < len(s); i++ {
		c := s[i]
		if (c < '0' || c > '9') && (c < 'a' || c > 'f') && (c < 'A' || c > 'F') {
			return false
		}
	}
	return true
}

// TraceRequest resolves an incoming request's tracing context, on a shard
// and a coordinator alike. A propagated X-Bepi-Trace header wins: the
// upstream root already decided this request is traced, and adopting its
// trace ID makes this process's spans join the caller's tree. Otherwise
// ?trace=1 mints a fresh trace ID, making a single ad-hoc request traceable
// regardless of the sampling rate. The resolved ID is echoed in the
// X-Bepi-Trace response header, so the caller knows what to ask
// /debug/traces?trace=<id> for.
func TraceRequest(w http.ResponseWriter, r *http.Request) context.Context {
	ctx := r.Context()
	tc, ok := ParseTraceHeader(r.Header.Get(TraceHeader))
	if !ok {
		if r.URL.Query().Get("trace") != "1" {
			return ctx
		}
		tc = TraceContext{TraceID: NewTraceID()}
	}
	w.Header().Set(TraceHeader, tc.TraceID)
	return WithTrace(ctx, tc)
}

type traceCtxKey struct{}

// WithTrace returns a context carrying tc. A request whose context carries
// a valid TraceContext is always traced (sampling is bypassed), so the
// sampling decision made at the tree's root governs the whole tree.
func WithTrace(ctx context.Context, tc TraceContext) context.Context {
	return context.WithValue(ctx, traceCtxKey{}, tc)
}

// TraceFrom extracts the TraceContext from ctx, if any.
func TraceFrom(ctx context.Context) (TraceContext, bool) {
	if ctx == nil {
		return TraceContext{}, false
	}
	tc, ok := ctx.Value(traceCtxKey{}).(TraceContext)
	return tc, ok && tc.Valid()
}

// Trace and span IDs: a per-process random prefix keeps IDs from different
// machines distinct, an atomic counter keeps them distinct within the
// process, and a splitmix64 finalizer spreads span IDs so collisions within
// a trace are vanishingly unlikely.
var (
	idPrefix = rand.Uint64()
	idSeq    atomic.Uint64
)

// NewTraceID mints a fresh trace ID (16 hex digits).
func NewTraceID() string {
	return fmt.Sprintf("%016x", splitmix64(idPrefix+idSeq.Add(1)))
}

// newSpanID mints a span ID unique within the process.
func newSpanID() uint64 {
	// Offset the stream so span IDs never collide with trace IDs minted
	// from the same counter.
	return splitmix64((idPrefix ^ 0x9e3779b97f4a7c15) + idSeq.Add(1))
}

func splitmix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}
