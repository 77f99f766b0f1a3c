package cluster

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"bepi"
	"bepi/internal/qexec"
	"bepi/internal/server"
	"bepi/internal/wire"
)

// wireShard is one real shard server on a loopback listener, optionally
// behind a handler that misbehaves.
func wireShard(t *testing.T, eng *bepi.Engine, wrap func(http.Handler) http.Handler) (addr string, srv *server.Server) {
	t.Helper()
	srv = server.NewWithConfig(eng, qexec.Config{})
	var h http.Handler = srv
	if wrap != nil {
		h = wrap(h)
	}
	hs := httptest.NewServer(h)
	t.Cleanup(func() { hs.Close(); srv.Close() })
	return strings.TrimPrefix(hs.URL, "http://"), srv
}

func wireEngine(t *testing.T, g *bepi.Graph) *bepi.Engine {
	t.Helper()
	eng, err := bepi.New(g)
	if err != nil {
		t.Fatal(err)
	}
	return eng
}

func sameBits(a, b []float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if math.Float64bits(a[i]) != math.Float64bits(b[i]) {
			return false
		}
	}
	return true
}

// TestWirePartialGolden pins the coordinator's default body to bytes
// captured from the pre-wire writeJSON for the same Partial values: the
// benchmark's client unmarshals exactly this.
func TestWirePartialGolden(t *testing.T) {
	for _, tc := range []struct {
		p    Partial
		want string
	}{
		{Partial{
			Seed: 7, Replica: "127.0.0.1:9001", Scores: []float64{0.15, 0, 1e-300, 0.3, 5e-324, math.Copysign(0, -1), 1.0 / 3},
			Iterations: 9, DurationMS: 1.234, Cached: true, Generation: 3, IndexHash: "00c0ffee00c0ffee",
		}, "{\"Seed\":7,\"Replica\":\"127.0.0.1:9001\",\"Top\":null,\"Scores\":[0.15,0,1e-300,0.3,5e-324,-0,0.3333333333333333],\"Iterations\":9,\"Cached\":true,\"EarlyStopped\":false,\"Generation\":3,\"IndexHash\":\"00c0ffee00c0ffee\",\"DurationMS\":1.234}\n"},
		{Partial{
			Seed: 7, Replica: "127.0.0.1:9001", Top: []server.RankedEntry{{Node: 3, Score: 0.25}, {Node: 11, Score: 1.0 / 3}},
			Iterations: 4, DurationMS: 0.5, EarlyStopped: true, Generation: 1, IndexHash: "00c0ffee00c0ffee",
		}, "{\"Seed\":7,\"Replica\":\"127.0.0.1:9001\",\"Top\":[{\"node\":3,\"score\":0.25},{\"node\":11,\"score\":0.3333333333333333}],\"Scores\":null,\"Iterations\":4,\"Cached\":false,\"EarlyStopped\":true,\"Generation\":1,\"IndexHash\":\"00c0ffee00c0ffee\",\"DurationMS\":0.5}\n"},
	} {
		rec := httptest.NewRecorder()
		wire.WriteJSON(rec, http.StatusOK, tc.p)
		if got := rec.Body.String(); got != tc.want {
			t.Errorf("body\n%q\nwant\n%q", got, tc.want)
		}
	}
}

// TestCoordinatorHugeTopK: a topk beyond the node count answers through the
// coordinator's /query and /personalized, and every shard keeps serving. A
// shard once sized a ranking heap by topk and died with an uncatchable
// out-of-memory, and the coordinator, retrying on ring successors, took
// each replica it reached down with it.
func TestCoordinatorHugeTopK(t *testing.T) {
	eng := wireEngine(t, bepi.RMAT(8, 6, 5))
	var backends []Backend
	for i := 0; i < 2; i++ {
		addr, _ := wireShard(t, eng, nil)
		backends = append(backends, NewHTTPBackend(addr, nil))
	}
	coord, err := New(backends, testConfig())
	if err != nil {
		t.Fatal(err)
	}
	defer coord.Close()
	h := NewHandler(coord)
	serve := func(method, path, body string) []byte {
		t.Helper()
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest(method, path, strings.NewReader(body)))
		if rec.Code != http.StatusOK {
			t.Fatalf("%s %s: status %d: %s", method, path, rec.Code, rec.Body)
		}
		return rec.Body.Bytes()
	}
	var p Partial
	if err := json.Unmarshal(serve(http.MethodGet, "/query?seed=0&topk=1099511627776", ""), &p); err != nil {
		t.Fatal(err)
	}
	if len(p.Top) != eng.N()-1 {
		t.Fatalf("/query: %d entries, want every node but the seed (%d)", len(p.Top), eng.N()-1)
	}
	personalized := func(topk int) []server.RankedEntry {
		t.Helper()
		var m struct{ Top []server.RankedEntry }
		body := fmt.Sprintf(`{"weights":{"1":1,"2":3},"topk":%d}`, topk)
		if err := json.Unmarshal(serve(http.MethodPost, "/personalized", body), &m); err != nil {
			t.Fatal(err)
		}
		return m.Top
	}
	huge, all := personalized(1<<40), personalized(eng.N())
	if len(huge) == 0 || len(huge) != len(all) {
		t.Fatalf("/personalized topk=2⁴⁰: %d entries, topk=N %d", len(huge), len(all))
	}
	for i := range huge {
		if huge[i] != all[i] {
			t.Fatalf("/personalized rank %d: %+v, want %+v", i, huge[i], all[i])
		}
	}
	for seed := 0; seed < 32; seed++ { // both shards still answer
		serve(http.MethodGet, fmt.Sprintf("/query?seed=%d&topk=5", seed), "")
	}
	for _, rs := range coord.Replicas() {
		if rs.Errors != 0 || rs.Retries != 0 || rs.Routed == 0 {
			t.Fatalf("replica %s: %d errors, %d retries, %d routed", rs.Name, rs.Errors, rs.Retries, rs.Routed)
		}
	}
}

// TestWireNegotiationCoordinator is the negotiation matrix over the
// coordinator's /query handler, in front of a real shard over HTTP (so the
// internal hop is binary throughout and the client's choice is independent
// of it).
func TestWireNegotiationCoordinator(t *testing.T) {
	eng := wireEngine(t, bepi.RMAT(8, 6, 5))
	addr, _ := wireShard(t, eng, nil)
	coord, err := New([]Backend{NewHTTPBackend(addr, nil)}, testConfig())
	if err != nil {
		t.Fatal(err)
	}
	defer coord.Close()
	h := NewHandler(coord)
	want, err := eng.Query(9)
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		name, path, accept string
		binary             bool
	}{
		{"no Accept, full", "/query?seed=9&full=true", "", false},
		{"vector, full", "/query?seed=9&full=true", wire.TypeVector, true},
		{"vector, full, debug", "/query?seed=9&full=true&debug=1", wire.AcceptVector, false},
		{"vector, top-k", "/query?seed=9&topk=5", wire.AcceptVector, false},
	} {
		req := httptest.NewRequest(http.MethodGet, tc.path, nil)
		if tc.accept != "" {
			req.Header.Set("Accept", tc.accept)
		}
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, req)
		resp := rec.Result()
		if resp.StatusCode != http.StatusOK || resp.Header.Get("Vary") != "Accept" {
			t.Fatalf("%s: status %d, Vary %q: %s", tc.name, resp.StatusCode, resp.Header.Get("Vary"), rec.Body)
		}
		if wire.IsVector(resp) != tc.binary {
			t.Fatalf("%s: Content-Type %q", tc.name, resp.Header.Get("Content-Type"))
		}
		body := rec.Body.Bytes()
		if tc.binary {
			v, err := wire.DecodeVector(bytes.NewReader(body), resp.ContentLength)
			if err != nil {
				t.Fatalf("%s: %v", tc.name, err)
			}
			if v.Seed != 9 || v.Replica != addr || v.IndexHash == "" || !sameBits(v.Scores, want) {
				t.Fatalf("%s: seed %d replica %q hash %q, scores equal = %v", tc.name, v.Seed, v.Replica, v.IndexHash, sameBits(v.Scores, want))
			}
			continue
		}
		var p Partial
		if err := json.Unmarshal(body, &p); err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		var old bytes.Buffer
		if err := json.NewEncoder(&old).Encode(p); err != nil { // what the handler's own writeJSON used to do
			t.Fatal(err)
		}
		if !bytes.Equal(body, old.Bytes()) {
			t.Fatalf("%s: body is not what the old encoder writes for the same Partial", tc.name)
		}
		if p.Replica != addr || (p.Scores != nil && !sameBits(p.Scores, want)) {
			t.Fatalf("%s: replica %q, %d scores", tc.name, p.Replica, len(p.Scores))
		}
	}
}

// badVector makes a shard answer vector requests with a damaged binary body
// of the declared length: wrong magic, a body cut short, or a score count
// that disagrees with Content-Length.
func badVector(damage string) func(http.Handler) http.Handler {
	return func(next http.Handler) http.Handler {
		return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			if r.Header.Get("Accept") != wire.AcceptVector {
				next.ServeHTTP(w, r)
				return
			}
			rec := httptest.NewRecorder()
			next.ServeHTTP(rec, r)
			body := rec.Body.Bytes()
			w.Header().Set("Content-Type", wire.TypeVector)
			w.Header().Set("Content-Length", fmt.Sprint(len(body)))
			switch damage {
			case "magic":
				body[0] ^= 0xff
			case "truncated":
				body = body[:len(body)/2] // the server then drops the connection
			case "count":
				body[37]++
			}
			_, _ = w.Write(body)
		})
	}
}

// TestWireCorruptVectorRetried: a shard whose binary body is corrupt or cut
// short costs one retry, not a wrong or partial answer — HTTPBackend.Query
// reports a retryable error, the coordinator answers from the ring
// successor, and the client sees one complete response.
func TestWireCorruptVectorRetried(t *testing.T) {
	g := bepi.RMAT(8, 6, 5)
	for _, damage := range []string{"magic", "truncated", "count"} {
		t.Run(damage, func(t *testing.T) {
			eng := wireEngine(t, g)
			badAddr, _ := wireShard(t, eng, badVector(damage))
			goodAddr, _ := wireShard(t, wireEngine(t, g), nil)
			bad := NewHTTPBackend(badAddr, nil)

			_, err := bad.Query(context.Background(), 3, 0, true, false)
			if err == nil || !Retryable(err) {
				t.Fatalf("Query on a damaged body: err = %v, want a retryable error", err)
			}
			if !errors.Is(err, wire.ErrCorruptVector) {
				t.Fatalf("err = %v, want ErrCorruptVector", err)
			}
			// Top-k answers never take the binary path, so they still work.
			if _, err := bad.Query(context.Background(), 3, 5, false, false); err != nil {
				t.Fatalf("top-k query on the same shard: %v", err)
			}

			coord, err := New([]Backend{bad, NewHTTPBackend(goodAddr, nil)}, testConfig())
			if err != nil {
				t.Fatal(err)
			}
			defer coord.Close()
			front := httptest.NewServer(NewHandler(coord))
			defer front.Close()
			seed := 0
			for coord.Ring().Owner(seed) != badAddr {
				seed++
			}
			want, err := eng.Query(seed)
			if err != nil {
				t.Fatal(err)
			}
			// Several clients at once, so -race sees the retry path under load.
			errs := make(chan error, 4)
			for c := 0; c < cap(errs); c++ {
				go func() {
					resp, err := http.Get(fmt.Sprintf("%s/query?seed=%d&full=true", front.URL, seed))
					if err != nil {
						errs <- err
						return
					}
					defer resp.Body.Close()
					body, err := io.ReadAll(resp.Body)
					var p Partial
					switch {
					case err != nil:
						errs <- err
					case resp.StatusCode != http.StatusOK:
						errs <- fmt.Errorf("status %d: %s", resp.StatusCode, body)
					case json.Unmarshal(body, &p) != nil:
						errs <- fmt.Errorf("body is not one complete JSON value: %.80s", body)
					case p.Replica != goodAddr || !sameBits(p.Scores, want):
						errs <- fmt.Errorf("answer from %q, scores equal = %v", p.Replica, sameBits(p.Scores, want))
					default:
						errs <- nil
					}
				}()
			}
			for c := 0; c < cap(errs); c++ {
				if err := <-errs; err != nil {
					t.Error(err)
				}
			}
			for _, rs := range coord.Replicas() {
				if rs.Name == goodAddr && rs.Retries < int64(cap(errs)) {
					t.Errorf("successor saw %d retries, want %d", rs.Retries, cap(errs))
				}
			}
		})
	}
}

// TestWireShardIgnoringAccept: an old shard answers a vector request with
// JSON, and HTTPBackend takes it.
func TestWireShardIgnoringAccept(t *testing.T) {
	eng := wireEngine(t, bepi.RMAT(8, 6, 5))
	addr, _ := wireShard(t, eng, func(next http.Handler) http.Handler {
		return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			r.Header.Del("Accept")
			next.ServeHTTP(w, r)
		})
	})
	p, err := NewHTTPBackend(addr, nil).Query(context.Background(), 9, 0, true, false)
	if err != nil {
		t.Fatal(err)
	}
	want, err := eng.Query(9)
	if err != nil {
		t.Fatal(err)
	}
	if p.Seed != 9 || p.Replica != addr || p.IndexHash == "" || !sameBits(p.Scores, want) {
		t.Fatalf("partial %+v", Partial{Seed: p.Seed, Replica: p.Replica, IndexHash: p.IndexHash})
	}
}

// TestWirePersonalizedMatchesLocal: a forwarded multi-seed query gives the
// same answer, bit for bit, whether it crossed HTTP to the shard's
// /personalized (HTTPBackend) or never left the process (LocalBackend).
func TestWirePersonalizedMatchesLocal(t *testing.T) {
	g := swapTestGraph(t, 60)
	weights := map[int]float64{3: 1, 17: 2, 40: 0.5, 41: 1}
	fleet := func(backend func(c *server.Core) Backend) *Coordinator {
		var backends []Backend
		for i := 0; i < 2; i++ {
			c := server.NewCore(wireEngine(t, g), qexec.Config{})
			t.Cleanup(c.Close)
			backends = append(backends, backend(c))
		}
		coord, err := New(backends, testConfig())
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(coord.Close)
		return coord
	}
	n := 0
	local := func(c *server.Core) Backend {
		n++
		return NewLocalBackend(fmt.Sprintf("local-%d", n), c)
	}
	overHTTP := func(c *server.Core) Backend {
		hs := httptest.NewServer(server.NewFromCore(c))
		t.Cleanup(hs.Close)
		return NewHTTPBackend(hs.URL, nil)
	}
	want, err := fleet(local).Personalized(context.Background(), weights, 8)
	if err != nil {
		t.Fatalf("local: %v", err)
	}
	got, err := fleet(overHTTP).Personalized(context.Background(), weights, 8)
	if err != nil {
		t.Fatalf("http: %v", err)
	}
	if got.Generation != want.Generation || got.IndexHash != want.IndexHash || got.IndexHash == "" {
		t.Fatalf("http answered g%d %q, local g%d %q", got.Generation, got.IndexHash, want.Generation, want.IndexHash)
	}
	if len(got.Top) != len(want.Top) || len(got.Top) == 0 {
		t.Fatalf("%d entries, local %d", len(got.Top), len(want.Top))
	}
	for i := range want.Top {
		if got.Top[i].Node != want.Top[i].Node || math.Float64bits(got.Top[i].Score) != math.Float64bits(want.Top[i].Score) {
			t.Fatalf("entry %d = %+v, local %+v", i, got.Top[i], want.Top[i])
		}
	}
}

// TestWireBackendDeadlineNotCorrupt: a caller whose context ends while the
// body is in flight gets its context's error, which is final — not a
// corrupt-body error that would send the coordinator to a successor.
func TestWireBackendDeadlineNotCorrupt(t *testing.T) {
	release := make(chan struct{})
	hs := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", wire.TypeVector)
		w.Header().Set("Content-Length", "4096")
		_, _ = w.Write([]byte("BPV1"))
		w.(http.Flusher).Flush()
		<-release
	}))
	defer hs.Close()
	defer close(release)
	ctx, cancel := context.WithTimeout(context.Background(), 50*time.Millisecond)
	defer cancel()
	_, err := NewHTTPBackend(hs.URL, nil).Query(ctx, 1, 0, true, false)
	if !errors.Is(err, context.DeadlineExceeded) || Retryable(err) {
		t.Fatalf("err = %v (retryable %v), want the context's deadline, final", err, Retryable(err))
	}
}
