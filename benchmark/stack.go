package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"strconv"
	"sync/atomic"
	"time"

	"bepi"
	"bepi/internal/cluster"
	"bepi/internal/qexec"
	"bepi/internal/server"
)

// The serving stack under test is what `bepi-serve` runs, built with the
// same constructors and default configs, inside the benchmark process:
//
//	client ─HTTP→ coordinator (cluster.NewHandler over cluster.New)
//	       ─HTTP→ 2 shards (server.NewWithConfig over bepi.Load) → qexec → engine
//
// every hop on a real loopback TCP listener. Tracing, when on, wraps the
// layer boundaries from outside: a middleware around the coordinator
// handler, a decorator around each cluster.Backend, a middleware around
// each shard handler. A request id header ties one request's spans
// together.

const (
	numShards = 2
	reqHeader = "X-Bench-Req"

	layerClient  = "loadgen.client"
	layerCoord   = "cluster.http"
	layerBackend = "cluster.backend_call"
	layerShard   = "server.http"
	layerCore    = "server.core_query" // reported: the response's duration_ms
)

// servingWaterfall is the nesting of one served request's spans.
var servingWaterfall = []layerDef{
	{layerClient, ""}, {layerCoord, layerClient}, {layerBackend, layerCoord}, {layerShard, layerBackend}, {layerCore, layerShard},
}

type reqKey struct{}

type shard struct {
	srv   *server.Server
	http  *http.Server
	addr  string
	bytes atomic.Int64 // traced runs: response body bytes written
	resps atomic.Int64
}

type stack struct {
	shards    []*shard
	coord     *cluster.Coordinator
	coordHTTP *http.Server
	coordAddr string
	client    *http.Client
}

// countingWriter counts response body bytes.
type countingWriter struct {
	http.ResponseWriter
	n int64
}

func (w *countingWriter) Write(b []byte) (int, error) {
	n, err := w.ResponseWriter.Write(b)
	w.n += int64(n)
	return n, err
}

// spanMiddleware records one span per request that carries a request id
// (health probes and untagged requests pass through untouched) and puts the
// id in the request context for the layers below.
func spanMiddleware(rec *recorder, layer string, next http.Handler, sh *shard) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		id, _ := strconv.ParseUint(r.Header.Get(reqHeader), 10, 64)
		if id == 0 {
			next.ServeHTTP(w, r)
			return
		}
		cw := &countingWriter{ResponseWriter: w}
		t0 := time.Now()
		next.ServeHTTP(cw, r.WithContext(context.WithValue(r.Context(), reqKey{}, id)))
		rec.add(id, layer, t0, time.Now())
		if sh != nil {
			sh.bytes.Add(cw.n)
			sh.resps.Add(1)
		}
	})
}

// tracedBackend records a span around every coordinator→shard call.
type tracedBackend struct {
	cluster.Backend
	rec *recorder
}

func (b tracedBackend) Query(ctx context.Context, seed, topk int, full, exact bool) (cluster.Partial, error) {
	t0 := time.Now()
	p, err := b.Backend.Query(ctx, seed, topk, full, exact)
	if id, ok := ctx.Value(reqKey{}).(uint64); ok {
		b.rec.add(id, layerBackend, t0, time.Now())
	}
	return p, err
}

// reqIDTransport forwards the request id from the call's context to the
// shard as a header.
type reqIDTransport struct{ base http.RoundTripper }

func (t reqIDTransport) RoundTrip(r *http.Request) (*http.Response, error) {
	if id, ok := r.Context().Value(reqKey{}).(uint64); ok {
		r = r.Clone(r.Context())
		r.Header.Set(reqHeader, strconv.FormatUint(id, 10))
	}
	return t.base.RoundTrip(r)
}

func listen(h http.Handler) (*http.Server, string, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, "", err
	}
	srv := &http.Server{Handler: h, ReadHeaderTimeout: 5 * time.Second}
	go func() { _ = srv.Serve(ln) }() // returns ErrServerClosed once close() shuts it down
	return srv, ln.Addr().String(), nil
}

// newStack starts two shards, each serving its own copy of the index loaded
// with bepi.Load as `bepi-serve -index` does, and a coordinator over them.
// rec == nil leaves every layer unwrapped.
func newStack(index []byte, rec *recorder) (*stack, error) {
	s := &stack{}
	var backends []cluster.Backend
	for i := 0; i < numShards; i++ {
		eng, err := bepi.Load(bytes.NewReader(index))
		if err != nil {
			s.close()
			return nil, fmt.Errorf("loading shard %d index: %w", i, err)
		}
		sh := &shard{srv: server.NewWithConfig(eng, qexec.Config{})}
		var h http.Handler = sh.srv
		if rec != nil {
			h = spanMiddleware(rec, layerShard, h, sh)
		}
		if sh.http, sh.addr, err = listen(h); err != nil {
			sh.srv.Close()
			s.close()
			return nil, err
		}
		s.shards = append(s.shards, sh)
		var b cluster.Backend
		if rec == nil {
			b = cluster.NewHTTPBackend(sh.addr, nil)
		} else {
			b = tracedBackend{
				Backend: cluster.NewHTTPBackend(sh.addr, &http.Client{Transport: reqIDTransport{http.DefaultTransport}}),
				rec:     rec,
			}
		}
		backends = append(backends, b)
	}
	var err error
	if s.coord, err = cluster.New(backends, cluster.Config{}); err != nil {
		s.close()
		return nil, err
	}
	var h http.Handler = cluster.NewHandler(s.coord)
	if rec != nil {
		h = spanMiddleware(rec, layerCoord, h, nil)
	}
	if s.coordHTTP, s.coordAddr, err = listen(h); err != nil {
		s.close()
		return nil, err
	}
	// The load generator's own client: at most two connections.
	s.client = &http.Client{Transport: &http.Transport{MaxConnsPerHost: 2, MaxIdleConnsPerHost: 2}}
	return s, nil
}

// close shuts the listeners down, waits for their goroutines, and stops the
// coordinator's health checker and the shards' execution pools.
func (s *stack) close() {
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if s.client != nil {
		s.client.CloseIdleConnections()
	}
	if s.coordHTTP != nil {
		_ = s.coordHTTP.Shutdown(ctx) // teardown: a timeout only means a connection lingered
	}
	if s.coord != nil {
		s.coord.Close()
	}
	for _, sh := range s.shards {
		_ = sh.http.Shutdown(ctx) // as above
		sh.srv.Close()
	}
	http.DefaultTransport.(*http.Transport).CloseIdleConnections()
}

// queryPath is the /query request the workloads send.
func queryPath(seed int, full, trace bool) string {
	p := "/query?seed=" + strconv.Itoa(seed)
	if full {
		p += "&full=true"
	} else {
		p += "&topk=10"
	}
	if trace {
		p += "&debug=1"
	}
	return p
}

// httpGet issues GET url with the request id header (0 = none), reads the
// whole body and decodes it into out. It returns the body size.
func httpGet(client *http.Client, url string, id uint64, out any) (int, error) {
	req, err := http.NewRequest(http.MethodGet, url, nil)
	if err != nil {
		return 0, err
	}
	if id != 0 {
		req.Header.Set(reqHeader, strconv.FormatUint(id, 10))
	}
	resp, err := client.Do(req)
	if err != nil {
		return 0, err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		return len(body), err
	}
	if resp.StatusCode != http.StatusOK {
		return len(body), fmt.Errorf("GET %s: status %d: %.200s", url, resp.StatusCode, body)
	}
	return len(body), json.Unmarshal(body, out)
}

// qexecMetrics sums the executors' counters over the shards.
func (s *stack) qexecMetrics() qexec.Metrics {
	var sum qexec.Metrics
	for _, sh := range s.shards {
		m := sh.srv.Executor().Metrics()
		sum.CacheHits += m.CacheHits
		sum.CacheMisses += m.CacheMisses
		sum.Coalesced += m.Coalesced
		sum.Shed += m.Shed
		sum.Batches += m.Batches
		sum.Executed += m.Executed
		sum.TopKSolves += m.TopKSolves
		sum.EarlyStops += m.EarlyStops
	}
	return sum
}
