package cluster

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"bepi"
	"bepi/internal/qexec"
	"bepi/internal/server"
)

// schemaFleet is one real shard with its cache off, so every request
// solves and two requests for one seed answer alike, behind a coordinator
// that reaches it over HTTP.
func schemaFleet(t *testing.T) (eng *bepi.Engine, shardURL, addr string, coord http.Handler) {
	t.Helper()
	eng = wireEngine(t, bepi.RMAT(8, 6, 5))
	srv := server.NewWithConfig(eng, qexec.Config{CacheEntries: -1})
	hs := httptest.NewServer(srv)
	t.Cleanup(func() { hs.Close(); srv.Close() })
	addr = strings.TrimPrefix(hs.URL, "http://")
	c, err := New([]Backend{NewHTTPBackend(addr, nil)}, testConfig())
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(c.Close)
	return eng, hs.URL, addr, NewHandler(c)
}

func coordinatorBody(t *testing.T, h http.Handler, path string) []byte {
	t.Helper()
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, path, nil))
	if rec.Code != http.StatusOK {
		t.Fatalf("coordinator %s: status %d: %s", path, rec.Code, rec.Body)
	}
	return rec.Body.Bytes()
}

// TestCoordinatorQueryBodyIsShardBody: for a top-k and a full query, the
// coordinator answers with exactly the shard's JSON body plus "replica":
// the same keys, spelled the shard's way, with the same values, but for
// duration_ms, which each request measures for itself.
func TestCoordinatorQueryBodyIsShardBody(t *testing.T) {
	_, shardURL, addr, h := schemaFleet(t)
	for _, path := range []string{"/query?seed=9&topk=5", "/query?seed=9&full=true"} {
		resp, err := http.Get(shardURL + path)
		if err != nil {
			t.Fatal(err)
		}
		shardBody, err := io.ReadAll(resp.Body)
		resp.Body.Close()
		if err != nil || resp.StatusCode != http.StatusOK {
			t.Fatalf("shard %s: status %d, %v", path, resp.StatusCode, err)
		}
		var shard, coord map[string]json.RawMessage
		if err := json.Unmarshal(shardBody, &shard); err != nil {
			t.Fatal(err)
		}
		if err := json.Unmarshal(coordinatorBody(t, h, path), &coord); err != nil {
			t.Fatal(err)
		}
		if _, ok := shard["replica"]; ok {
			t.Fatalf("shard %s names a replica: %s", path, shardBody)
		}
		if want, _ := json.Marshal(addr); !bytes.Equal(coord["replica"], want) {
			t.Fatalf("coordinator %s: replica %s, want %s", path, coord["replica"], want)
		}
		delete(coord, "replica")
		if len(coord) != len(shard) {
			t.Fatalf("%s: coordinator keys %v, shard keys %v", path, keys(coord), keys(shard))
		}
		for k, v := range shard {
			if k == "duration_ms" {
				continue
			}
			if got, ok := coord[k]; !ok || !bytes.Equal(got, v) {
				t.Fatalf("%s: coordinator %q = %.80s, shard %.80s", path, k, got, v)
			}
		}
	}
}

func keys(m map[string]json.RawMessage) []string {
	var out []string
	for k := range m {
		out = append(out, k)
	}
	return out
}

// TestCoordinatorBodyFillsPartial: decoding the coordinator's JSON body
// into a Partial fills every field a client of /query reads — the seed,
// the ranking's nodes and scores, the score vector, early_stopped, the
// replica and the shard's duration — not just those whose Go names
// happen to match the keys case-insensitively.
func TestCoordinatorBodyFillsPartial(t *testing.T) {
	eng, _, addr, h := schemaFleet(t)
	seed := -1
	for s := 0; s < eng.N() && seed < 0; s++ {
		if _, early, err := eng.TopKBounded(s, 5); err == nil && early {
			seed = s
		}
	}
	if seed < 0 {
		t.Fatal("test setup: no seed whose top-5 search stops early")
	}
	want, err := eng.Query(seed)
	if err != nil {
		t.Fatal(err)
	}
	var top, full Partial
	if err := json.Unmarshal(coordinatorBody(t, h, fmt.Sprintf("/query?seed=%d&topk=5", seed)), &top); err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(coordinatorBody(t, h, fmt.Sprintf("/query?seed=%d&full=true", seed)), &full); err != nil {
		t.Fatal(err)
	}
	for _, p := range []Partial{top, full} {
		if p.Seed != seed || p.Replica != addr || !(p.DurationMS > 0) || p.IndexHash == "" || p.Generation != 1 {
			t.Fatalf("seed %d replica %q duration %v hash %q generation %d", p.Seed, p.Replica, p.DurationMS, p.IndexHash, p.Generation)
		}
	}
	if !top.EarlyStopped || len(top.Top) != 5 {
		t.Fatalf("top-5: early_stopped %v, %d entries", top.EarlyStopped, len(top.Top))
	}
	for i, e := range top.Top {
		if e.Node == seed || !(e.Score > 0) || math.Abs(e.Score-want[e.Node]) > 1e-3 {
			t.Fatalf("rank %d = %+v, the seed's score there is %g", i, e, want[e.Node])
		}
	}
	if full.EarlyStopped || full.Top != nil || !sameBits(full.Scores, want) {
		t.Fatalf("full: early_stopped %v, %d ranked, scores equal %v", full.EarlyStopped, len(full.Top), sameBits(full.Scores, want))
	}
}

// TestCoordinatorOwnRefusalNamesNoReplica: a refusal the coordinator makes
// itself, before any replica is asked, says what is wrong without naming
// an empty replica.
func TestCoordinatorOwnRefusalNamesNoReplica(t *testing.T) {
	h := NewHandler(newTestCoordinator(t, testConfig(), newFake("r0", 10)))
	rec := postPersonalized(h, `{"weights":{}}`)
	if rec.Code != http.StatusBadRequest {
		t.Fatalf("status %d: %s", rec.Code, rec.Body)
	}
	if got, want := rec.Body.String(), "{\"error\":\"weights must be non-empty (status 400)\"}\n"; got != want {
		t.Fatalf("body %q, want %q", got, want)
	}
}

// TestCoordinatorExactQueryIsFullTolerance: /query?topk=K&exact=true through
// the coordinator reaches the shard as an exact query, so no ranking comes
// from an early-stopped solve and each is the shard's own exact answer, bit
// for bit — on a fixture where most default rankings do stop early.
func TestCoordinatorExactQueryIsFullTolerance(t *testing.T) {
	core := server.NewCore(wireEngine(t, bepi.RMAT(10, 8, 5)), qexec.Config{CacheEntries: -1})
	t.Cleanup(core.Close)
	c, err := New([]Backend{NewLocalBackend("r0", core)}, testConfig())
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(c.Close)
	h := NewHandler(c)
	stopped := 0
	for seed := 0; seed < 40; seed++ {
		var bounded, exact Partial
		for p, path := range map[*Partial]string{
			&bounded: fmt.Sprintf("/query?seed=%d&topk=10", seed),
			&exact:   fmt.Sprintf("/query?seed=%d&topk=10&exact=true", seed),
		} {
			if err := json.Unmarshal(coordinatorBody(t, h, path), p); err != nil {
				t.Fatal(err)
			}
		}
		if bounded.EarlyStopped {
			stopped++
		}
		want, err := core.Query(context.Background(), server.QueryRequest{Seed: seed, TopK: 10, Exact: true})
		if err != nil {
			t.Fatal(err)
		}
		if exact.EarlyStopped || len(exact.Top) != len(want.Top) {
			t.Fatalf("seed %d: exact=true answered early_stopped %v with %d entries, the shard's exact answer %d",
				seed, exact.EarlyStopped, len(exact.Top), len(want.Top))
		}
		for i := range want.Top {
			if exact.Top[i].Node != want.Top[i].Node || math.Float64bits(exact.Top[i].Score) != math.Float64bits(want.Top[i].Score) {
				t.Fatalf("seed %d: exact entry %d is %+v, the shard's %+v", seed, i, exact.Top[i], want.Top[i])
			}
		}
	}
	if stopped == 0 {
		t.Fatal("no default ranking stopped early: the fixture cannot tell an exact query from a bounded one")
	}
	t.Logf("%d of 40 default rankings stopped early; no exact one did", stopped)
}
