package cluster

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"bepi"
	"bepi/internal/core"
	"bepi/internal/obs"
	"bepi/internal/qexec"
	"bepi/internal/server"
)

// shardProbe wraps a replica's Personalized: it counts attempts, answers
// with failStatus instead when that is set, and keeps the last response it
// passed on.
type shardProbe struct {
	Backend
	failStatus int
	calls      atomic.Int32

	mu   sync.Mutex
	last server.PersonalizedResponse
}

func (p *shardProbe) Personalized(ctx context.Context, weights map[int]float64, topk int) (server.PersonalizedResponse, error) {
	p.calls.Add(1)
	if p.failStatus != 0 {
		return server.PersonalizedResponse{}, &BackendError{Replica: p.Name(), Status: p.failStatus, Msg: "scripted failure"}
	}
	resp, err := p.Backend.Personalized(ctx, weights, topk)
	p.mu.Lock()
	p.last = resp
	p.mu.Unlock()
	return resp, err
}

func (p *shardProbe) lastResponse() server.PersonalizedResponse {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.last
}

// probedFleet is three replicas, each a serving core over its own engine
// built from g, behind shardProbes, and a coordinator over them.
func probedFleet(t *testing.T, g *bepi.Graph) (*Coordinator, map[string]*shardProbe) {
	t.Helper()
	probes := map[string]*shardProbe{}
	var backends []Backend
	for i := 0; i < 3; i++ {
		c := server.NewCore(wireEngine(t, g), qexec.Config{})
		t.Cleanup(c.Close)
		p := &shardProbe{Backend: NewLocalBackend(fmt.Sprintf("replica-%d", i), c)}
		probes[p.Name()] = p
		backends = append(backends, p)
	}
	c, err := New(backends, testConfig())
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(c.Close)
	return c, probes
}

// attempts counts the Personalized calls that reached the probes.
func attempts(probes map[string]*shardProbe) int {
	n := 0
	for _, p := range probes {
		n += int(p.calls.Load())
	}
	return n
}

// postPersonalized sends body to h's /personalized.
func postPersonalized(h http.Handler, body string) *httptest.ResponseRecorder {
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/personalized", strings.NewReader(body)))
	return rec
}

// engineRanking is the oracle for a personalized query: the weights
// normalized to a restart vector, solved by bepi.Engine.Personalized, and
// ranked as a shard ranks, seeds and non-positive scores left out.
func engineRanking(t *testing.T, eng *bepi.Engine, weights map[int]float64, topk int) []server.RankedEntry {
	t.Helper()
	q := make([]float64, eng.N())
	var sum float64
	for node, w := range weights {
		q[node] += w
		sum += w
	}
	for i := range q {
		q[i] /= sum
	}
	scores, err := eng.Personalized(q)
	if err != nil {
		t.Fatal(err)
	}
	return core.RankTopKFunc(scores, topk, func(node int) bool {
		_, seed := weights[node]
		return seed || scores[node] <= 0
	})
}

// TestCoordinatorForwardMatchesEngine: the coordinator's answer to a
// multi-seed query is bepi.Engine.Personalized's ranking of the same
// restart vector — the same nodes and the same float64 bits — with topk up
// to and past the width of any list, and with a zero-weight seed.
func TestCoordinatorForwardMatchesEngine(t *testing.T) {
	g := bepi.RMAT(8, 6, 5)
	c, _ := probedFleet(t, g)
	eng := wireEngine(t, g)
	for _, weights := range []map[int]float64{
		{3: 1, 17: 2, 40: 0.5},
		{3: 1, 17: 0, 40: 0.5},
	} {
		for _, topk := range []int{1, 5, 10, 64, 200} {
			want := engineRanking(t, eng, weights, topk)
			got, err := c.Personalized(context.Background(), weights, topk)
			if err != nil {
				t.Fatalf("%v topk %d: %v", weights, topk, err)
			}
			if len(got.Top) != len(want) || len(want) == 0 {
				t.Fatalf("%v topk %d: %d entries, engine %d", weights, topk, len(got.Top), len(want))
			}
			for i := range want {
				if got.Top[i].Node != want[i].Node ||
					math.Float64bits(got.Top[i].Score) != math.Float64bits(want[i].Score) {
					t.Fatalf("%v topk %d entry %d: %+v, engine %+v", weights, topk, i, got.Top[i], want[i])
				}
			}
		}
	}
}

// TestCoordinatorForwardBodyIsShardResponse: the coordinator's
// /personalized body is the response of one replica, the ring owner of the
// smallest seed, unchanged.
func TestCoordinatorForwardBodyIsShardResponse(t *testing.T) {
	c, probes := probedFleet(t, bepi.RMAT(8, 6, 5))
	rec := postPersonalized(NewHandler(c), `{"weights":{"40":0.5,"3":1,"17":2},"topk":8}`)
	if rec.Code != http.StatusOK {
		t.Fatalf("status %d: %s", rec.Code, rec.Body)
	}
	owner := probes[c.Ring().Owner(3)]
	if n := attempts(probes); n != 1 || owner.calls.Load() != 1 {
		t.Fatalf("%d attempts, %d on the owner of seed 3; want the one attempt on the owner", n, owner.calls.Load())
	}
	want, err := json.Marshal(owner.lastResponse())
	if err != nil {
		t.Fatal(err)
	}
	if got := strings.TrimSpace(rec.Body.String()); got != string(want) {
		t.Fatalf("body %s\nshard answered %s", got, want)
	}
}

// TestCoordinatorForwardRetriesSuccessor: an owner that answers 503 is
// retried on its ring successor, whose answer is the one the owner would
// have given.
func TestCoordinatorForwardRetriesSuccessor(t *testing.T) {
	c, probes := probedFleet(t, bepi.RMAT(8, 6, 5))
	weights := map[int]float64{3: 1, 17: 2, 40: 0.5}
	order := c.Ring().Successors(3, 2)
	want, err := probes[order[0]].Backend.Personalized(context.Background(), weights, 8)
	if err != nil {
		t.Fatal(err)
	}
	probes[order[0]].failStatus = http.StatusServiceUnavailable
	got, err := c.Personalized(context.Background(), weights, 8)
	if err != nil {
		t.Fatalf("Personalized: %v", err)
	}
	if probes[order[0]].calls.Load() != 1 || probes[order[1]].calls.Load() != 1 {
		t.Fatalf("attempts: owner %d, successor %d; want 1 and 1", probes[order[0]].calls.Load(), probes[order[1]].calls.Load())
	}
	if !reflect.DeepEqual(got, probes[order[1]].lastResponse()) {
		t.Fatalf("answer %+v is not the successor's %+v", got, probes[order[1]].lastResponse())
	}
	got.DurationMS, want.DurationMS = 0, 0
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("successor answered %+v, owner %+v", got, want)
	}
	if rs := c.Replicas(); rs[0].Retries+rs[1].Retries+rs[2].Retries != 1 {
		t.Fatalf("retries %+v, want one", rs)
	}
}

// TestCoordinatorForwardBadRequestOneAttempt: weights the replica refuses
// come back with its 400 after one attempt; empty weights never leave the
// coordinator.
func TestCoordinatorForwardBadRequestOneAttempt(t *testing.T) {
	c, probes := probedFleet(t, bepi.RMAT(8, 6, 5))
	h := NewHandler(c)
	for _, tc := range []struct {
		body     string
		attempts int
	}{
		{`{"weights":{"3":-1,"5":1}}`, 1},
		{`{"weights":{"3":1,"100000":1}}`, 1},
		{`{"weights":{"3":0}}`, 1},
		{`{"weights":{}}`, 0},
	} {
		before := attempts(probes)
		rec := postPersonalized(h, tc.body)
		if rec.Code != http.StatusBadRequest {
			t.Errorf("%s: status %d (%s), want 400", tc.body, rec.Code, rec.Body)
		}
		if n := attempts(probes) - before; n != tc.attempts {
			t.Errorf("%s: %d attempts, want %d", tc.body, n, tc.attempts)
		}
	}
}

// stallBackend answers nothing until its caller's context ends.
type stallBackend struct {
	*fakeBackend
}

func (s stallBackend) Personalized(ctx context.Context, weights map[int]float64, topk int) (server.PersonalizedResponse, error) {
	s.mu.Lock()
	s.queried++
	s.mu.Unlock()
	<-ctx.Done()
	return server.PersonalizedResponse{}, ctx.Err()
}

// TestCoordinatorForwardCallerDeadlineIsFinal: when the caller's deadline
// passes during an attempt, the coordinator returns the deadline and tries
// no successor.
func TestCoordinatorForwardCallerDeadlineIsFinal(t *testing.T) {
	stalls := []stallBackend{{newFake("r0", 10)}, {newFake("r1", 10)}}
	c, err := New([]Backend{stalls[0], stalls[1]}, testConfig())
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(c.Close)
	ctx, cancel := context.WithTimeout(context.Background(), 50*time.Millisecond)
	defer cancel()
	start := time.Now()
	_, err = c.Personalized(ctx, map[int]float64{1: 1, 2: 1}, 5)
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("err = %v, want the caller's deadline", err)
	}
	if n := stalls[0].queries() + stalls[1].queries(); n != 1 {
		t.Fatalf("%d attempts, want 1", n)
	}
	if d := time.Since(start); d > 2*time.Second {
		t.Fatalf("returned after %v", d)
	}
}

// TestCoordinatorForwardOversizeBody: a /personalized body over
// server.MaxRequestBytes is refused with 413 before any replica is asked.
func TestCoordinatorForwardOversizeBody(t *testing.T) {
	c, probes := probedFleet(t, bepi.RMAT(6, 4, 5))
	body := `{"weights":{"1":1},"pad":"` + strings.Repeat("x", server.MaxRequestBytes) + `"}`
	rec := postPersonalized(NewHandler(c), body)
	if rec.Code != http.StatusRequestEntityTooLarge {
		t.Fatalf("status %d, want 413", rec.Code)
	}
	if n := attempts(probes); n != 0 {
		t.Fatalf("%d replica attempts for a refused body", n)
	}
}

// TestConfigFieldCount pins cluster.Config: a coordinator knob is added
// only with a benchmark row that justifies it.
func TestConfigFieldCount(t *testing.T) {
	if n := reflect.TypeOf(Config{}).NumField(); n != 3 {
		t.Fatalf("cluster.Config has %d fields, want 3", n)
	}
}

// TestCoordinatorRemovedMergeLeavesNoTrace: the coordinator's metrics and
// /personalized bodies name no merge mode and no counter of the merges,
// generation guard and batches it no longer has.
func TestCoordinatorRemovedMergeLeavesNoTrace(t *testing.T) {
	c := newTestCoordinator(t, testConfig(), newFake("r0", 10), newFake("r1", 10))
	h := NewHandler(c)
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/personalized",
		strings.NewReader(`{"weights":{"2":1,"7":3},"topk":5}`)))
	if rec.Code != http.StatusOK {
		t.Fatalf("/personalized: status %d: %s", rec.Code, rec.Body)
	}
	bodies := map[string]string{"/personalized": rec.Body.String()}
	for _, path := range []string{"/metrics", "/metrics.prom"} {
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, path, nil))
		if rec.Code != http.StatusOK {
			t.Fatalf("%s: status %d", path, rec.Code)
		}
		bodies[path] = rec.Body.String()
	}
	for path, body := range bodies {
		for _, gone := range []string{"rank_merge", "escalation", "full_fallback", `"mode"`,
			"merges", "refetch", "generation_mix", "batches"} {
			if strings.Contains(body, gone) {
				t.Errorf("%s still mentions %q", path, gone)
			}
		}
	}
}

// TestCoordinatorMetricsContentNegotiation is the shard's /metrics
// negotiation table run against the coordinator: both tiers answer the
// same Accept headers with the same format.
func TestCoordinatorMetricsContentNegotiation(t *testing.T) {
	h := NewHandler(newTestCoordinator(t, testConfig(), newFake("r0", 10)))
	for _, tc := range []struct {
		path, accept string
		wantProm     bool
	}{
		{"/metrics", "", false},
		{"/metrics", "application/json", false},
		{"/metrics", "text/plain", true},
		{"/metrics", "application/openmetrics-text; version=1.0.0", true},
		{"/metrics?format=prometheus", "", true},
		{"/metrics.prom", "", true},
	} {
		req := httptest.NewRequest(http.MethodGet, tc.path, nil)
		if tc.accept != "" {
			req.Header.Set("Accept", tc.accept)
		}
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, req)
		isProm := strings.HasPrefix(rec.Header().Get("Content-Type"), "text/plain")
		if isProm != tc.wantProm {
			t.Errorf("%s (Accept=%q): prometheus=%v, want %v", tc.path, tc.accept, isProm, tc.wantProm)
		}
	}
}

// TestCoordinatorDebugCount: the coordinator's debug endpoints parse ?n=
// as the shard's do — a negative n is a 400, and a huge one is capped.
func TestCoordinatorDebugCount(t *testing.T) {
	cfg := testConfig()
	cfg.Obs = obs.New(obs.Options{TraceSample: 1, TraceCapacity: 1024})
	c := newTestCoordinator(t, cfg, newFake("r0", 10))
	for seed := 0; seed < 600; seed++ {
		if _, err := c.Query(context.Background(), seed%10, 3, false); err != nil {
			t.Fatal(err)
		}
	}
	h := NewHandler(c)
	for _, path := range []string{"/debug/traces", "/debug/events"} {
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, path+"?n=-1", nil))
		if rec.Code != http.StatusBadRequest {
			t.Errorf("%s?n=-1: status %d, want 400", path, rec.Code)
		}
		rec = httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, path+"?n=100000", nil))
		var body struct{ Count int }
		if err := json.Unmarshal(rec.Body.Bytes(), &body); rec.Code != http.StatusOK || err != nil {
			t.Fatalf("%s?n=100000: status %d, %v", path, rec.Code, err)
		}
		if body.Count > 512 {
			t.Errorf("%s?n=100000: %d items, want at most 512", path, body.Count)
		}
	}
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/debug/traces?n=100000", nil))
	if !strings.Contains(rec.Body.String(), `"count":512`) {
		t.Errorf("600 traced queries, ?n=100000 should return the 512-item cap: %.200s", rec.Body)
	}
}
