// Command bepi-serve serves RWR queries from a preprocessed index over
// HTTP/JSON through the qexec execution subsystem (pooled workspaces,
// score cache, admission control).
//
//	bepi-serve -index graph.idx -addr :8080
//
//	curl localhost:8080/query?seed=42&topk=10
//	curl localhost:8080/stats
//	curl localhost:8080/metrics
//	curl -X POST localhost:8080/personalized -d '{"weights":{"3":0.5,"9":0.5}}'
//
// With -graph (an edge-list file instead of a preprocessed index) the
// server runs in dynamic mode: POST /edges buffers edge updates, POST
// /flush rebuilds the index in the background and atomically swaps it in
// (202 + rebuild id; poll GET /flush/{id}), and queries keep answering
// from the previous index for the whole rebuild.
//
//	bepi-serve -graph graph.txt -addr :8080
//
//	curl -X POST localhost:8080/edges -d '{"add":[{"src":1,"dst":9}]}'
//	curl -X POST localhost:8080/flush
//	curl localhost:8080/flush/1
//
// With -coordinator the process serves no index of its own; it fronts a
// fleet of replica bepi-serve instances with consistent-hash routing keyed
// by seed, health checking with ejection/readmission, and retries on ring
// successors (see internal/cluster):
//
//	bepi-serve -coordinator -replicas localhost:8081,localhost:8082 -addr :8080
//
//	curl localhost:8080/query?seed=42&topk=10      # routed to seed 42's owner
//	curl -X POST localhost:8080/personalized -d '{"weights":{"3":0.5,"9":0.5}}'
//	curl localhost:8080/replicas
//
// Observability: /metrics serves JSON (or Prometheus text to scrapers),
// /debug/traces the recent per-query stage traces, and /debug/events the
// always-on flight-recorder ring. In coordinator mode /metrics additionally
// aggregates mergeable histograms from every replica into fleet-wide
// quantiles, and /debug/traces?trace=ID assembles the cross-process trace
// tree — trace context propagates to replicas via the X-Bepi-Trace header,
// and appending ?trace=1 to any query forces a trace and echoes its ID.
// -slow-query logs queries over a threshold through log/slog; -trace-sample
// thins tracing under load; -debug-addr opens a second, private listener
// with net/http/pprof (keep it off the serving port — profiles are
// expensive and unauthenticated).
//
// Before it listens, the server calibrates the top-k bound of the engine it
// serves and logs how long that took, so that no request pays it; in
// dynamic mode every flush calibrates the engine it swaps in.
//
// SIGINT/SIGTERM trigger a graceful shutdown: the listener closes, in-flight
// requests get up to -shutdown-timeout to finish, and the execution pool
// drains.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"log"
	"log/slog"
	"net/http"
	"net/http/pprof"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"bepi"
	"bepi/internal/cluster"
	"bepi/internal/obs"
	"bepi/internal/qexec"
	"bepi/internal/server"
)

// pprofServer starts the private debug listener: the four pprof handlers
// on an explicit mux, so nothing else (in particular the query endpoints)
// leaks onto the debug port.
func pprofServer(addr string) *http.Server {
	mux := http.NewServeMux()
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	srv := &http.Server{Addr: addr, Handler: mux, ReadHeaderTimeout: 5 * time.Second}
	go func() {
		if err := srv.ListenAndServe(); err != nil && !errors.Is(err, http.ErrServerClosed) {
			log.Printf("bepi-serve: debug listener: %v", err)
		}
	}()
	return srv
}

// calibrate runs the engine's top-k calibration before the server listens,
// so that no request pays it; each engine a dynamic flush swaps in later is
// calibrated by the rebuild. A failed calibration is logged, not fatal: the
// engine then answers top-k queries with full solves.
func calibrate(eng *bepi.Engine) {
	start := time.Now()
	if err := eng.CalibrateBound(); err != nil {
		log.Printf("top-k calibration failed, top-k queries run full solves: %v", err)
		return
	}
	log.Printf("calibrated the top-k bound in %v", time.Since(start).Round(time.Millisecond))
}

// runCoordinator is the -coordinator entry point: front the replica fleet
// with the cluster coordinator instead of serving an index locally.
func runCoordinator(addr, replicaList string, healthInterval time.Duration, retries, traceSample int, slowQuery time.Duration, debugAddr string, shutdownTimeout time.Duration) {
	var backends []cluster.Backend
	for _, a := range strings.Split(replicaList, ",") {
		a = strings.TrimSpace(a)
		if a == "" {
			continue
		}
		backends = append(backends, cluster.NewHTTPBackend(a, nil))
	}
	if len(backends) == 0 {
		fmt.Fprintln(os.Stderr, "bepi-serve: -coordinator requires -replicas host:port[,host:port...]")
		os.Exit(2)
	}
	coord, err := cluster.New(backends, cluster.Config{
		HealthInterval: healthInterval,
		Retries:        retries,
		Obs: obs.New(obs.Options{
			TraceSample: traceSample,
			SlowQuery:   slowQuery,
			Logger:      slog.Default(),
		}),
	})
	if err != nil {
		log.Fatalf("bepi-serve: %v", err)
	}
	log.Printf("coordinator: %d replicas, health probes every %v, retry budget %d",
		len(backends), healthInterval, retries)
	if debugAddr != "" {
		dbg := pprofServer(debugAddr)
		defer dbg.Close()
		log.Printf("obs: pprof on %s/debug/pprof/", debugAddr)
	}

	srv := &http.Server{
		Addr:              addr,
		Handler:           cluster.NewHandler(coord),
		ReadHeaderTimeout: 5 * time.Second,
	}
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	errc := make(chan error, 1)
	go func() { errc <- srv.ListenAndServe() }()
	log.Printf("coordinating RWR queries on %s", addr)

	select {
	case err := <-errc:
		log.Fatalf("bepi-serve: %v", err)
	case <-ctx.Done():
		stop()
		log.Printf("shutting down (in-flight grace %v)", shutdownTimeout)
		shutdownCtx, cancel := context.WithTimeout(context.Background(), shutdownTimeout)
		defer cancel()
		if err := srv.Shutdown(shutdownCtx); err != nil {
			log.Printf("bepi-serve: shutdown: %v", err)
		}
		if err := <-errc; err != nil && !errors.Is(err, http.ErrServerClosed) {
			log.Printf("bepi-serve: %v", err)
		}
		coord.Close()
		log.Printf("bye")
	}
}

func main() {
	indexPath := flag.String("index", "", "index file built by `bepi preprocess` (static mode; exactly one of -index/-graph)")
	graphPath := flag.String("graph", "", "edge-list file to preprocess at startup and serve with online updates (dynamic mode)")
	addr := flag.String("addr", ":8080", "listen address")
	workers := flag.Int("workers", 0, "queries solved at once (0 = GOMAXPROCS)")
	queueDepth := flag.Int("queue-depth", 0, "queries that may wait for a solve slot; excess requests get 429 (0 = default 32×workers)")
	cacheEntries := flag.Int("cache-entries", 0, "LRU score-cache capacity (0 = default 1024, negative disables)")
	queryTimeout := flag.Duration("query-timeout", 0, "per-query deadline enforced inside the solver (0 = none)")
	parallelism := flag.Int("parallelism", 0, "per-solve kernel worker cap (0 = keep engine default, 1 = serial kernels)")
	shutdownTimeout := flag.Duration("shutdown-timeout", 10*time.Second, "grace period for in-flight requests on SIGINT/SIGTERM")
	slowQuery := flag.Duration("slow-query", 0, "log queries slower than this threshold via slog (0 = disabled)")
	traceSample := flag.Int("trace-sample", qexec.DefaultTraceSample, "trace every Nth query into /debug/traces (1 = all; tracing allocates, sampling keeps it off the hot path)")
	debugAddr := flag.String("debug-addr", "", "private listen address for net/http/pprof (empty = disabled)")
	coordinator := flag.Bool("coordinator", false, "run as a cluster coordinator fronting -replicas instead of serving an index")
	replicas := flag.String("replicas", "", "comma-separated replica addresses (host:port) for -coordinator mode")
	healthInterval := flag.Duration("health-interval", 2*time.Second, "coordinator replica health-probe period")
	retriesFlag := flag.Int("retries", 2, "coordinator retry budget: failed queries retry up to this many ring successors")
	flag.Parse()
	if *coordinator {
		runCoordinator(*addr, *replicas, *healthInterval, *retriesFlag, *traceSample, *slowQuery, *debugAddr, *shutdownTimeout)
		return
	}
	if (*indexPath == "") == (*graphPath == "") {
		fmt.Fprintln(os.Stderr, "bepi-serve: exactly one of -index (static) or -graph (dynamic) is required")
		os.Exit(2)
	}

	cfg := qexec.Config{
		Workers:      *workers,
		QueueDepth:   *queueDepth,
		CacheEntries: *cacheEntries,
		Timeout:      *queryTimeout,
		Obs: obs.New(obs.Options{
			TraceSample: *traceSample,
			SlowQuery:   *slowQuery,
			Logger:      slog.Default(),
		}),
	}

	var handler *server.Server
	if *graphPath != "" {
		f, err := os.Open(*graphPath)
		if err != nil {
			log.Fatalf("bepi-serve: %v", err)
		}
		g, err := bepi.ReadGraph(f)
		f.Close()
		if err != nil {
			log.Fatalf("bepi-serve: reading graph: %v", err)
		}
		start := time.Now()
		var dynOpts []bepi.Option
		if *parallelism != 0 {
			dynOpts = append(dynOpts, bepi.WithParallelism(*parallelism))
		}
		dyn, err := bepi.NewDynamic(g, dynOpts...)
		if err != nil {
			log.Fatalf("bepi-serve: preprocessing %s: %v", *graphPath, err)
		}
		eng := dyn.Engine()
		log.Printf("preprocessed %s (%d nodes, %d edges, %d bytes) in %v",
			*graphPath, eng.N(), g.M(), eng.MemoryBytes(),
			time.Since(start).Round(time.Millisecond))
		log.Printf("dynamic mode: POST /edges buffers updates, POST /flush rebuilds in the background")
		calibrate(eng)
		handler = server.NewDynamic(dyn, cfg)
	} else {
		f, err := os.Open(*indexPath)
		if err != nil {
			log.Fatalf("bepi-serve: %v", err)
		}
		start := time.Now()
		eng, err := bepi.Load(f)
		f.Close()
		if err != nil {
			log.Fatalf("bepi-serve: loading index: %v", err)
		}
		log.Printf("loaded %s (%d nodes, %d bytes) in %v",
			*indexPath, eng.N(), eng.MemoryBytes(),
			time.Since(start).Round(time.Millisecond))
		if *parallelism != 0 {
			eng.SetParallelism(*parallelism)
		}
		calibrate(eng)
		handler = server.NewWithConfig(eng, cfg)
	}
	xc := handler.Executor().Config()
	log.Printf("qexec: %d workers, queue %d, cache %d entries, timeout %v",
		xc.Workers, xc.QueueDepth, xc.CacheEntries, xc.Timeout)
	if *slowQuery > 0 {
		log.Printf("obs: logging queries slower than %v", *slowQuery)
	}
	if *debugAddr != "" {
		dbg := pprofServer(*debugAddr)
		defer dbg.Close()
		log.Printf("obs: pprof on %s/debug/pprof/", *debugAddr)
	}

	srv := &http.Server{
		Addr:              *addr,
		Handler:           handler,
		ReadHeaderTimeout: 5 * time.Second,
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	errc := make(chan error, 1)
	go func() { errc <- srv.ListenAndServe() }()
	log.Printf("serving RWR queries on %s", *addr)

	select {
	case err := <-errc:
		// Listener failed before any shutdown signal.
		log.Fatalf("bepi-serve: %v", err)
	case <-ctx.Done():
		stop()
		log.Printf("shutting down (in-flight grace %v)", *shutdownTimeout)
		shutdownCtx, cancel := context.WithTimeout(context.Background(), *shutdownTimeout)
		defer cancel()
		if err := srv.Shutdown(shutdownCtx); err != nil {
			log.Printf("bepi-serve: shutdown: %v", err)
		}
		if err := <-errc; err != nil && !errors.Is(err, http.ErrServerClosed) {
			log.Printf("bepi-serve: %v", err)
		}
		handler.Close()
		log.Printf("bye")
	}
}
