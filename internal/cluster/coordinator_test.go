package cluster

import (
	"context"
	"errors"
	"net/http"
	"sync"
	"testing"

	"bepi/internal/server"
)

// fakeBackend is a scriptable replica for coordinator tests.
type fakeBackend struct {
	name string
	n    int // nodes in the pretend graph

	mu         sync.Mutex
	hash       string
	gen        uint64
	failStatus int   // non-zero: Query fails with this status
	failLeft   int   // -1 = fail forever, else countdown
	healthErr  error // non-nil: Health fails
	queried    int
}

func newFake(name string, n int) *fakeBackend {
	return &fakeBackend{name: name, n: n, hash: "abc", gen: 1, failLeft: -1}
}

func (f *fakeBackend) Name() string { return f.name }

// setFail scripts the next k queries (k = -1: all) to fail with status.
func (f *fakeBackend) setFail(status, k int) {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.failStatus = status
	f.failLeft = k
}

func (f *fakeBackend) queries() int {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.queried
}

// fail counts a call and returns the scripted failure when one applies.
// The caller holds f.mu.
func (f *fakeBackend) fail() error {
	f.queried++
	if f.failStatus != 0 && f.failLeft != 0 {
		if f.failLeft > 0 {
			f.failLeft--
		}
		return &BackendError{Replica: f.name, Status: f.failStatus, Msg: "scripted failure"}
	}
	return nil
}

func (f *fakeBackend) Query(ctx context.Context, seed, topk int, full, exact bool) (Partial, error) {
	f.mu.Lock()
	defer f.mu.Unlock()
	if err := f.fail(); err != nil {
		return Partial{}, err
	}
	p := Partial{Seed: seed, Replica: f.name, Generation: f.gen, IndexHash: f.hash}
	// A recognizable per-seed answer: 0.5 at the seed, 0.25 at its ring
	// neighbour, zero elsewhere.
	if full {
		p.Scores = make([]float64, f.n)
		p.Scores[seed%f.n] = 0.5
		p.Scores[(seed+1)%f.n] = 0.25
	} else {
		p.Top = []server.RankedEntry{
			{Node: seed % f.n, Score: 0.5},
			{Node: (seed + 1) % f.n, Score: 0.25},
		}
		if topk > 0 && topk < len(p.Top) {
			p.Top = p.Top[:topk]
		}
	}
	return p, nil
}

// Personalized answers with each seed's ring neighbour, scored by its
// weight.
func (f *fakeBackend) Personalized(ctx context.Context, weights map[int]float64, topk int) (server.PersonalizedResponse, error) {
	f.mu.Lock()
	defer f.mu.Unlock()
	if err := f.fail(); err != nil {
		return server.PersonalizedResponse{}, err
	}
	resp := server.PersonalizedResponse{Generation: f.gen, IndexHash: f.hash}
	for seed, w := range weights {
		resp.Top = append(resp.Top, server.RankedEntry{Node: (seed + 1) % f.n, Score: w})
	}
	return resp, nil
}

func (f *fakeBackend) Health(ctx context.Context) (server.HealthResponse, error) {
	f.mu.Lock()
	defer f.mu.Unlock()
	if f.healthErr != nil {
		return server.HealthResponse{}, f.healthErr
	}
	return server.HealthResponse{Status: "ok", Nodes: f.n, Generation: f.gen, IndexHash: f.hash}, nil
}

// testConfig keeps retries fast and the background checker off so tests
// drive membership deterministically via CheckNow.
func testConfig() Config {
	return Config{HealthInterval: -1}
}

func newTestCoordinator(t *testing.T, cfg Config, fakes ...*fakeBackend) *Coordinator {
	t.Helper()
	backends := make([]Backend, len(fakes))
	for i, f := range fakes {
		backends[i] = f
	}
	c, err := New(backends, cfg)
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	t.Cleanup(c.Close)
	return c
}

// TestCoordinatorAffinity: every query for a seed lands on the seed's ring
// owner, and repeated queries never wander.
func TestCoordinatorAffinity(t *testing.T) {
	fakes := []*fakeBackend{newFake("r0", 100), newFake("r1", 100), newFake("r2", 100)}
	c := newTestCoordinator(t, testConfig(), fakes...)
	for seed := 0; seed < 200; seed++ {
		want := c.Ring().Owner(seed)
		for rep := 0; rep < 3; rep++ {
			p, err := c.Query(context.Background(), seed, 10, false)
			if err != nil {
				t.Fatalf("seed %d: %v", seed, err)
			}
			if p.Replica != want {
				t.Fatalf("seed %d served by %q, owner is %q", seed, p.Replica, want)
			}
		}
	}
}

// TestCoordinatorRetryToSuccessor: a failing owner is retried on the ring
// successor; the answer comes back and the retry is counted.
func TestCoordinatorRetryToSuccessor(t *testing.T) {
	fakes := map[string]*fakeBackend{
		"r0": newFake("r0", 10), "r1": newFake("r1", 10), "r2": newFake("r2", 10),
	}
	c := newTestCoordinator(t, testConfig(), fakes["r0"], fakes["r1"], fakes["r2"])
	seed := 0
	order := c.Ring().Successors(seed, 3)
	fakes[order[0]].setFail(http.StatusServiceUnavailable, -1)

	p, err := c.Query(context.Background(), seed, 10, false)
	if err != nil {
		t.Fatalf("Query: %v", err)
	}
	if p.Replica != order[1] {
		t.Fatalf("served by %q, want first successor %q", p.Replica, order[1])
	}
	var retried int64
	for _, rs := range c.Replicas() {
		retried += rs.Retries
	}
	if retried == 0 {
		t.Fatal("retry not counted")
	}
}

// TestCoordinatorNonRetryableFailsFast: validation errors (4xx) never walk
// the ring — the successor would reject identically.
func TestCoordinatorNonRetryableFailsFast(t *testing.T) {
	fakes := []*fakeBackend{newFake("r0", 10), newFake("r1", 10)}
	for _, f := range fakes {
		f.setFail(http.StatusBadRequest, -1)
	}
	c := newTestCoordinator(t, testConfig(), fakes...)
	_, err := c.Query(context.Background(), 3, 10, false)
	var be *BackendError
	if !errors.As(err, &be) || be.Status != http.StatusBadRequest {
		t.Fatalf("err = %v, want 400 BackendError", err)
	}
	if total := fakes[0].queries() + fakes[1].queries(); total != 1 {
		t.Fatalf("%d attempts for a non-retryable error, want 1", total)
	}
}

// TestCoordinatorEjectionReadmission: consecutive health-probe failures
// eject a replica from the ring (its keys move to survivors); consecutive
// successes readmit it (keys move back).
func TestCoordinatorEjectionReadmission(t *testing.T) {
	fakes := map[string]*fakeBackend{
		"r0": newFake("r0", 100), "r1": newFake("r1", 100), "r2": newFake("r2", 100),
	}
	c := newTestCoordinator(t, testConfig(), fakes["r0"], fakes["r1"], fakes["r2"])
	victim := c.Ring().Owner(42)
	fakes[victim].mu.Lock()
	fakes[victim].healthErr = errors.New("probe refused")
	fakes[victim].mu.Unlock()

	ctx := context.Background()
	for i := 0; i < failThreshold-1; i++ {
		c.CheckNow(ctx)
		if !c.Ring().Has(victim) {
			t.Fatalf("ejected after %d failures, threshold is %d", i+1, failThreshold)
		}
	}
	c.CheckNow(ctx)
	if c.Ring().Has(victim) {
		t.Fatal("not ejected at failThreshold")
	}
	// Ejected replica's keys now route to survivors.
	p, err := c.Query(ctx, 42, 10, false)
	if err != nil {
		t.Fatalf("Query after ejection: %v", err)
	}
	if p.Replica == victim {
		t.Fatal("query routed to ejected replica")
	}

	fakes[victim].mu.Lock()
	fakes[victim].healthErr = nil
	fakes[victim].mu.Unlock()
	for i := 0; i < readmitThreshold; i++ {
		c.CheckNow(ctx)
	}
	if !c.Ring().Has(victim) {
		t.Fatal("not readmitted after readmitThreshold successes")
	}
	p, err = c.Query(ctx, 42, 10, false)
	if err != nil {
		t.Fatalf("Query after readmission: %v", err)
	}
	if p.Replica != victim {
		t.Fatalf("seed 42 served by %q after readmission, want owner %q back", p.Replica, victim)
	}
	var ej, re int64
	for _, rs := range c.Replicas() {
		ej += rs.Ejections
		re += rs.Readmissions
	}
	if ej != 1 || re != 1 {
		t.Fatalf("ejections=%d readmissions=%d, want 1/1", ej, re)
	}
}

// TestCoordinatorAllEjected: an empty ring answers ErrNoReplicas instead of
// hanging or panicking.
func TestCoordinatorAllEjected(t *testing.T) {
	f := newFake("r0", 10)
	f.healthErr = errors.New("down")
	c := newTestCoordinator(t, testConfig(), f)
	for i := 0; i < failThreshold; i++ {
		c.CheckNow(context.Background())
	}
	if _, err := c.Query(context.Background(), 1, 10, false); !errors.Is(err, ErrNoReplicas) {
		t.Fatalf("err = %v, want ErrNoReplicas", err)
	}
	if _, err := c.Personalized(context.Background(), map[int]float64{1: 1}, 10); !errors.Is(err, ErrNoReplicas) {
		t.Fatalf("personalized err = %v, want ErrNoReplicas", err)
	}
}
