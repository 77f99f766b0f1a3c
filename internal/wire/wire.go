// Package wire is the one place both serving tiers (internal/server, the
// shard, and internal/cluster, the coordinator) encode and decode HTTP
// bodies. JSON is the default for every endpoint; a /query response that
// carries a full score vector has a second, negotiated form — the binary
// vector body in vector.go — chosen by the request's Accept header.
package wire

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"strings"
	"time"
)

// Media types of the two body formats.
const (
	TypeJSON   = "application/json"
	TypeVector = "application/x-bepi-vector"
)

// AcceptVector is the Accept header of a client that prefers the binary
// vector body and still understands JSON (an old shard answers JSON).
const AcceptVector = TypeVector + ", " + TypeJSON

// WriteJSON writes v as a JSON response body with the given status.
func WriteJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", TypeJSON)
	w.WriteHeader(status)
	_ = json.NewEncoder(w).Encode(v) // a failed write means the client is gone
}

// WriteError writes the {"error": msg} body every endpoint fails with;
// retryAfter > 0 adds the Retry-After back-off hint, in seconds.
func WriteError(w http.ResponseWriter, status, retryAfter int, msg string) {
	if retryAfter > 0 {
		w.Header().Set("Retry-After", strconv.Itoa(retryAfter))
	}
	WriteJSON(w, status, map[string]string{"error": msg})
}

// WantsProm reports whether a /metrics request asked for the Prometheus
// text format: a Prometheus scraper advertises text/plain (or the
// OpenMetrics type) in Accept, and `?format=prometheus` forces it. JSON is
// the default, on the shard and the coordinator alike.
func WantsProm(r *http.Request) bool {
	if r.URL.Query().Get("format") == "prometheus" {
		return true
	}
	accept := r.Header.Get("Accept")
	return strings.Contains(accept, "text/plain") ||
		strings.Contains(accept, "application/openmetrics-text")
}

// ReadJSON decodes one JSON value from a request or response body.
func ReadJSON(r io.Reader, v any) error { return json.NewDecoder(r).Decode(v) }

// MaxRequestBytes bounds the body of a POST from outside the cluster
// (/personalized on either tier, /edges on a shard): 8 MiB holds a weight
// for every node of a graph with a few hundred thousand nodes, or a
// quarter of a million edges in one update.
const MaxRequestBytes = 8 << 20

// ReadRequest decodes a request's JSON body of at most MaxRequestBytes into
// v. On failure it returns the status to answer with — 413 for a body over
// the bound, 400 for one that does not decode — and the message.
func ReadRequest(w http.ResponseWriter, r *http.Request, v any) (int, error) {
	err := ReadJSON(http.MaxBytesReader(w, r.Body, MaxRequestBytes), v)
	var tooLarge *http.MaxBytesError
	switch {
	case err == nil:
		return http.StatusOK, nil
	case errors.As(err, &tooLarge):
		return http.StatusRequestEntityTooLarge, fmt.Errorf("request body over %d bytes", MaxRequestBytes)
	default:
		return http.StatusBadRequest, fmt.Errorf("bad JSON: %w", err)
	}
}

// ReadError decodes what WriteError wrote, as the receiver of a non-200
// response sees it: the message of the {"error": ...} body (the raw body
// when it is not that shape) and the sender's Retry-After hint (0 when
// absent). It reads at most 4 KB of the body and does not close it.
func ReadError(resp *http.Response) (msg string, retryAfter time.Duration) {
	body, _ := io.ReadAll(io.LimitReader(resp.Body, 4096)) // a partial body is still the best message there is
	msg = strings.TrimSpace(string(body))
	var decoded struct {
		Error string `json:"error"`
	}
	if json.Unmarshal(body, &decoded) == nil && decoded.Error != "" {
		msg = decoded.Error
	}
	if secs, err := strconv.Atoi(resp.Header.Get("Retry-After")); err == nil && secs > 0 {
		retryAfter = time.Duration(secs) * time.Second
	}
	return msg, retryAfter
}
