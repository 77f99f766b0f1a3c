package cluster

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/url"
	"strconv"
	"strings"
	"time"

	"bepi/internal/obs"
	"bepi/internal/server"
)

// Partial is one replica's answer to a single-seed query: the shard's
// /query answer, a ranking or the full score vector tagged with the engine
// identity it was computed under, with Replica naming the shard. Scores
// may be shared with the replica's cache and MUST be treated as read-only.
type Partial = server.QueryResponse

// Backend is one replica as the coordinator sees it: a name (its ring
// identity) plus the query and health-check calls. Implementations must be
// safe for concurrent use.
type Backend interface {
	Name() string
	// Query answers a single-seed query; full requests the whole score
	// vector, otherwise a top-k ranking — bound-pruned by default, from a
	// full-tolerance solve when exact is set, as the coordinator's
	// /query?exact=true asks.
	Query(ctx context.Context, seed, topk int, full, exact bool) (Partial, error)
	// Personalized answers a multi-seed query with one solve on the
	// replica, which validates and normalizes the weights.
	Personalized(ctx context.Context, weights map[int]float64, topk int) (server.PersonalizedResponse, error)
	// Health probes the replica's readiness.
	Health(ctx context.Context) (server.HealthResponse, error)
}

// TraceSource is an optional Backend capability: fetch the replica's trace
// records belonging to one distributed trace. The coordinator's
// /debug/traces?trace=ID handler fans out over it to assemble the
// cross-process trace tree.
type TraceSource interface {
	Traces(ctx context.Context, traceID string, max int) ([]obs.Trace, error)
}

// SnapshotSource is an optional Backend capability: fetch the replica's
// mergeable metrics snapshot for fleet-wide aggregation at the coordinator.
type SnapshotSource interface {
	MetricsSnapshot(ctx context.Context) (obs.MetricsSnapshot, error)
}

// BackendError is a replica-side failure with its HTTP-shaped status and
// the replica's back-off hint, so the coordinator can decide between
// retrying the ring successor and failing fast.
type BackendError struct {
	Replica    string
	Status     int
	RetryAfter time.Duration
	Msg        string
}

func (e *BackendError) Error() string {
	if e.Replica == "" { // the coordinator's own refusal
		return fmt.Sprintf("%s (status %d)", e.Msg, e.Status)
	}
	return fmt.Sprintf("replica %s: %s (status %d)", e.Replica, e.Msg, e.Status)
}

// Retryable reports whether an error is worth retrying on the ring
// successor: replica overload (429), unavailability (5xx), and transport
// errors are; validation errors (4xx) are not — the successor would reject
// them identically. The caller's own expired/canceled context is final.
func Retryable(err error) bool {
	var be *BackendError
	if errors.As(err, &be) {
		switch be.Status {
		case http.StatusTooManyRequests,
			http.StatusInternalServerError,
			http.StatusBadGateway,
			http.StatusServiceUnavailable,
			http.StatusGatewayTimeout:
			return true
		}
		return false
	}
	if errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded) {
		return false
	}
	// Transport-level failure (connection refused, reset, timeout): the
	// replica may be down; its successor is the right next stop.
	return err != nil
}

// RetryAfterOf returns the replica's back-off hint, or 0.
func RetryAfterOf(err error) time.Duration {
	var be *BackendError
	if errors.As(err, &be) {
		return be.RetryAfter
	}
	return 0
}

// LocalBackend serves coordinator traffic from an in-process server.Core —
// the zero-copy replica path used by tests and the `cluster` bench
// experiment, and the reason the serving core is transport-agnostic.
type LocalBackend struct {
	name string
	core *server.Core
}

// NewLocalBackend wraps a serving core as a named replica.
func NewLocalBackend(name string, c *server.Core) *LocalBackend {
	return &LocalBackend{name: name, core: c}
}

// Name implements Backend.
func (b *LocalBackend) Name() string { return b.name }

// Query implements Backend over the core's transport-agnostic query path.
func (b *LocalBackend) Query(ctx context.Context, seed, topk int, full, exact bool) (Partial, error) {
	p, err := b.core.Query(ctx, server.QueryRequest{Seed: seed, TopK: topk, Full: full, Exact: exact})
	if err != nil {
		return Partial{}, b.backendError(err)
	}
	p.Replica = b.name
	return p, nil
}

// Personalized implements Backend over the core's personalized path.
func (b *LocalBackend) Personalized(ctx context.Context, weights map[int]float64, topk int) (server.PersonalizedResponse, error) {
	resp, err := b.core.Personalized(ctx, weights, topk)
	if err != nil {
		return server.PersonalizedResponse{}, b.backendError(err)
	}
	return resp, nil
}

// backendError gives a core error the status and back-off hint the
// shard's HTTP binding would answer it with.
func (b *LocalBackend) backendError(err error) *BackendError {
	status := server.StatusOf(err)
	return &BackendError{
		Replica:    b.name,
		Status:     status,
		RetryAfter: time.Duration(server.RetryAfterSeconds(status)) * time.Second,
		Msg:        err.Error(),
	}
}

// Traces implements TraceSource over the core's in-process trace ring.
func (b *LocalBackend) Traces(ctx context.Context, traceID string, max int) ([]obs.Trace, error) {
	return b.core.Executor().Observer().Tracer.ByTraceID(traceID, max), nil
}

// MetricsSnapshot implements SnapshotSource over the in-process core.
func (b *LocalBackend) MetricsSnapshot(ctx context.Context) (obs.MetricsSnapshot, error) {
	s := b.core.MetricsSnapshot()
	s.Replica = b.name
	return s, nil
}

// Health implements Backend.
func (b *LocalBackend) Health(ctx context.Context) (server.HealthResponse, error) {
	return b.core.Health(), nil
}

// HTTPBackend serves coordinator traffic from a remote bepi-serve replica
// over its public HTTP endpoints (/query, /personalized, /healthz).
type HTTPBackend struct {
	name   string
	base   string
	client *http.Client
}

// NewHTTPBackend wraps a replica address ("host:port" or a full URL) as a
// backend. A nil client is a zero http.Client, which sends through the
// process-wide http.DefaultTransport and so shares its connection pool;
// the per-request deadline comes from the caller's context.
func NewHTTPBackend(addr string, client *http.Client) *HTTPBackend {
	base := addr
	if !strings.Contains(base, "://") {
		base = "http://" + base
	}
	base = strings.TrimRight(base, "/")
	if client == nil {
		client = &http.Client{}
	}
	return &HTTPBackend{name: addr, base: base, client: client}
}

// Name implements Backend.
func (b *HTTPBackend) Name() string { return b.name }

// do issues a request and returns the 200 response, whose body the caller
// closes; any other status (and its Retry-After hint) becomes a
// BackendError. A non-nil body is sent as JSON. A non-empty accept is sent
// as the Accept header. A trace context on ctx is forwarded as the
// X-Bepi-Trace header, so the shard's executor records its spans under the
// coordinator's trace.
func (b *HTTPBackend) do(ctx context.Context, method, path, accept string, body []byte) (*http.Response, error) {
	var rd io.Reader
	if body != nil {
		rd = bytes.NewReader(body)
	}
	req, err := http.NewRequestWithContext(ctx, method, b.base+path, rd)
	if err != nil {
		return nil, err
	}
	if body != nil {
		req.Header.Set("Content-Type", server.TypeJSON)
	}
	if accept != "" {
		req.Header.Set("Accept", accept)
	}
	if tc, ok := obs.TraceFrom(ctx); ok {
		req.Header.Set(obs.TraceHeader, tc.HeaderValue())
	}
	resp, err := b.client.Do(req)
	if err != nil {
		return nil, err
	}
	if resp.StatusCode != http.StatusOK {
		defer resp.Body.Close()
		msg, ra := server.ReadError(resp)
		return nil, &BackendError{Replica: b.name, Status: resp.StatusCode, RetryAfter: ra, Msg: msg}
	}
	return resp, nil
}

// get issues a GET and decodes the JSON body into out.
func (b *HTTPBackend) get(ctx context.Context, path string, out any) error {
	resp, err := b.do(ctx, http.MethodGet, path, "", nil)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	return server.ReadJSON(resp.Body, out)
}

// Query implements Backend over GET /query. A full-vector query asks for
// the binary vector body and takes either form back (an old shard answers
// JSON). A body that does not decode — corrupt or cut short — is returned
// as a plain error, which Retryable treats like a transport failure: the
// coordinator moves to the ring successor.
func (b *HTTPBackend) Query(ctx context.Context, seed, topk int, full, exact bool) (Partial, error) {
	v := url.Values{}
	v.Set("seed", strconv.Itoa(seed))
	if topk > 0 {
		v.Set("topk", strconv.Itoa(topk))
	}
	accept := ""
	if full {
		v.Set("full", "true")
		accept = server.AcceptVector
	}
	if exact {
		v.Set("exact", "true")
	}
	resp, err := b.do(ctx, http.MethodGet, "/query?"+v.Encode(), accept, nil)
	if err != nil {
		return Partial{}, err
	}
	defer resp.Body.Close()
	var p Partial
	if server.IsVector(resp) {
		p, err = server.DecodeVector(resp.Body, resp.ContentLength)
	} else {
		err = server.ReadJSON(resp.Body, &p)
	}
	if err != nil {
		return Partial{}, fmt.Errorf("replica %s: %w", b.name, err)
	}
	p.Replica = b.name
	return p, nil
}

// Personalized implements Backend over POST /personalized, whose body and
// answer the shard defines.
func (b *HTTPBackend) Personalized(ctx context.Context, weights map[int]float64, topk int) (server.PersonalizedResponse, error) {
	body, err := json.Marshal(server.PersonalizedRequest{Weights: weights, TopK: topk})
	if err != nil {
		// A weight JSON cannot carry (NaN, ±Inf) fails on every replica alike.
		return server.PersonalizedResponse{}, &BackendError{Replica: b.name, Status: http.StatusBadRequest, Msg: err.Error()}
	}
	resp, err := b.do(ctx, http.MethodPost, "/personalized", "", body)
	if err != nil {
		return server.PersonalizedResponse{}, err
	}
	defer resp.Body.Close()
	var pr server.PersonalizedResponse
	if err := server.ReadJSON(resp.Body, &pr); err != nil {
		return server.PersonalizedResponse{}, fmt.Errorf("replica %s: %w", b.name, err)
	}
	return pr, nil
}

// Traces implements TraceSource over GET /debug/traces?trace=ID.
func (b *HTTPBackend) Traces(ctx context.Context, traceID string, max int) ([]obs.Trace, error) {
	v := url.Values{}
	v.Set("trace", traceID)
	if max > 0 {
		v.Set("n", strconv.Itoa(max))
	}
	var resp server.TraceResponse
	if err := b.get(ctx, "/debug/traces?"+v.Encode(), &resp); err != nil {
		return nil, err
	}
	return resp.Traces, nil
}

// MetricsSnapshot implements SnapshotSource over GET /metrics/snapshot.
func (b *HTTPBackend) MetricsSnapshot(ctx context.Context) (obs.MetricsSnapshot, error) {
	var s obs.MetricsSnapshot
	if err := b.get(ctx, "/metrics/snapshot", &s); err != nil {
		return obs.MetricsSnapshot{}, err
	}
	if s.Replica == "" {
		s.Replica = b.name
	}
	return s, nil
}

// Health implements Backend over GET /healthz.
func (b *HTTPBackend) Health(ctx context.Context) (server.HealthResponse, error) {
	var h server.HealthResponse
	err := b.get(ctx, "/healthz", &h)
	return h, err
}
