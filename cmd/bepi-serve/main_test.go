package main

import (
	"bufio"
	"context"
	"encoding/json"
	"fmt"
	"net"
	"net/http"
	"net/http/httptest"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"bepi"
)

// TestMain lets the tests run this binary as bepi-serve itself: with
// BEPI_SERVE_MAIN set the process is the command, not the test suite.
func TestMain(m *testing.M) {
	if os.Getenv("BEPI_SERVE_MAIN") != "" {
		main()
		return
	}
	os.Exit(m.Run())
}

// serve runs bepi-serve with the given arguments and returns what it printed
// and its exit code. A run that has not exited within 30 s is killed.
func serve(t *testing.T, args ...string) (string, int) {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	cmd := exec.CommandContext(ctx, os.Args[0], args...)
	cmd.Env = append(os.Environ(), "BEPI_SERVE_MAIN=1")
	out, err := cmd.CombinedOutput()
	if exit, ok := err.(*exec.ExitError); ok {
		return string(out), exit.ExitCode()
	}
	if err != nil {
		t.Fatalf("running bepi-serve %v: %v", args, err)
	}
	return string(out), 0
}

// TestBatchFlagsAreGone: the flags of deleted knobs — the batch scheduler's
// two, the matrix layout's one — left with them, so the command refuses them
// as it does any unknown flag, and -h lists the 16 that remain.
func TestBatchFlagsAreGone(t *testing.T) {
	for _, tc := range []struct{ flag, arg string }{
		{"-compact", "-compact=false"},
		{"-batch-max", "-batch-max=4"},
		{"-batch-window", "-batch-window=1ms"},
	} {
		out, code := serve(t, tc.arg)
		if code != 2 || !strings.Contains(out, "flag provided but not defined: "+tc.flag) {
			t.Errorf("bepi-serve %s: exit %d, output %q; want exit 2 and an unknown-flag error", tc.arg, code, out)
		}
	}
	usage, _ := serve(t, "-h")
	flags := 0
	for _, line := range strings.Split(usage, "\n") {
		// The test binary's own -test.* flags share the flag set.
		if strings.HasPrefix(line, "  -") && !strings.HasPrefix(line, "  -test.") {
			flags++
		}
	}
	if flags != 16 {
		t.Errorf("bepi-serve -h lists %d flags, want 16:\n%s", flags, usage)
	}
}

// writeIndex saves a small graph's index into a temporary file and returns
// its path and the graph.
func writeIndex(t *testing.T) (string, *bepi.Graph) {
	t.Helper()
	g := bepi.RMAT(9, 8, 42)
	eng, err := bepi.New(g)
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "g.idx")
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := eng.Save(f); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	return path, g
}

// TestServeLogsOnlyOnceListening: bepi-serve says it serves an address only
// once the port is bound. On an address another listener holds, both modes
// exit non-zero without ever printing the line.
func TestServeLogsOnlyOnceListening(t *testing.T) {
	held, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer held.Close()
	index, _ := writeIndex(t)
	for _, args := range [][]string{
		{"-index", index},
		{"-coordinator", "-replicas", "127.0.0.1:1"},
	} {
		out, code := serve(t, append(args, "-addr", held.Addr().String())...)
		if code == 0 || strings.Contains(out, "RWR queries on") {
			t.Errorf("bepi-serve %v on a held address: exit %d, output:\n%s", args, code, out)
		}
	}
}

// TestServeDebugAddrBindsBeforeItLogs: the -debug-addr listener is bound
// before anything says it is, and a held -debug-addr fails the way a held
// -addr does: both modes exit non-zero without printing the pprof line or
// the serving line.
func TestServeDebugAddrBindsBeforeItLogs(t *testing.T) {
	held, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer held.Close()
	index, _ := writeIndex(t)
	for _, args := range [][]string{
		{"-index", index},
		{"-coordinator", "-replicas", "127.0.0.1:1"},
	} {
		out, code := serve(t, append(args, "-addr", "127.0.0.1:0", "-debug-addr", held.Addr().String())...)
		if code == 0 || strings.Contains(out, "RWR queries on") || strings.Contains(out, "pprof on") {
			t.Errorf("bepi-serve %v on a held -debug-addr: exit %d, output:\n%s", args, code, out)
		}
	}
}

// TestServeLogsTheBoundAddress: on -addr 127.0.0.1:0 (and -debug-addr
// likewise) bepi-serve logs the ports the kernel chose, not ":0", and the
// logged address answers /healthz.
func TestServeLogsTheBoundAddress(t *testing.T) {
	index, _ := writeIndex(t)
	log := launch(t, "-index", index, "-addr", "127.0.0.1:0", "-debug-addr", "127.0.0.1:0")
	_, addr, _ := strings.Cut(log, "RWR queries on ")
	addr = strings.TrimSpace(addr) // the serving line is the last one logged
	if _, port, err := net.SplitHostPort(addr); err != nil || port == "0" {
		t.Fatalf("serving line names %q (%v), want the bound port:\n%s", addr, err, log)
	}
	if !strings.Contains(log, "pprof on 127.0.0.1:") || strings.Contains(log, "pprof on 127.0.0.1:0/") {
		t.Fatalf("the pprof line does not name the bound port:\n%s", log)
	}
	resp, err := http.Get("http://" + addr + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET /healthz on the logged address: status %d", resp.StatusCode)
	}
}

// TestCoordinatorRetriesZeroTriesOnlyOwner: -retries 0 disables retry, so a
// query whose ring owner fails is tried on that owner alone, not on its
// successor.
func TestCoordinatorRetriesZeroTriesOnlyOwner(t *testing.T) {
	var tries atomic.Int64
	var replicas []string
	for range 2 {
		hs := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			if r.URL.Path == "/query" {
				tries.Add(1)
			}
			http.Error(w, `{"error":"unavailable"}`, http.StatusServiceUnavailable)
		}))
		defer hs.Close()
		replicas = append(replicas, strings.TrimPrefix(hs.URL, "http://"))
	}
	addr, _ := startServe(t, "-coordinator", "-replicas", strings.Join(replicas, ","),
		"-retries", "0", "-health-interval", "-1s")
	resp, err := http.Get("http://" + addr + "/query?seed=3&topk=5")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable || tries.Load() != 1 {
		t.Fatalf("status %d after %d replica attempts; want 503 after 1", resp.StatusCode, tries.Load())
	}
}

// TestServeCalibratesBeforeListening: in both modes bepi-serve calibrates
// the top-k bound of the engine it serves — the one -index loads, the one
// -graph builds — and logs its time before it listens; the log order is
// what guards the calibration. The first top-k request then checks that
// solver_iters_total, which adds each query's own solve, counts exactly the
// iterations the answer reports.
func TestServeCalibratesBeforeListening(t *testing.T) {
	index, g := writeIndex(t)
	edges := filepath.Join(t.TempDir(), "g.txt")
	f, err := os.Create(edges)
	if err != nil {
		t.Fatal(err)
	}
	if err := g.WriteEdgeList(f); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	seed := 0
	for g.OutDegree(seed) == 0 {
		seed++
	}
	for _, mode := range []string{"-index", "-graph"} {
		t.Run(mode, func(t *testing.T) {
			path := index
			if mode == "-graph" {
				path = edges
			}
			addr, log := startServe(t, mode, path, "-workers", "1")
			cal := strings.Index(log, "calibrated the top-k bound in")
			if cal < 0 || cal > strings.Index(log, "serving RWR queries") {
				t.Fatalf("no calibration logged before the server listened:\n%s", log)
			}
			before := getJSON(t, addr, "/metrics")
			q := getJSON(t, addr, fmt.Sprintf("/query?seed=%d&topk=5", seed))
			after := getJSON(t, addr, "/metrics")
			iters := q["iterations"].(float64)
			spent := after["solver_iters_total"].(float64) - before["solver_iters_total"].(float64)
			if iters <= 0 || spent != iters {
				t.Fatalf("the first top-k reports %v iterations, solver_iters_total counted %v", iters, spent)
			}
		})
	}
}

// startServe runs bepi-serve with the given arguments on a free loopback
// port until the test ends, and returns its address and what it logged up
// to and including the line that says it serves there — by which time the
// port is bound.
func startServe(t *testing.T, args ...string) (string, string) {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := ln.Addr().String()
	ln.Close()
	return addr, launch(t, append(args, "-addr", addr)...)
}

// launch runs bepi-serve with the given arguments until the test ends, and
// returns what it logged up to and including the line that says it serves.
func launch(t *testing.T, args ...string) string {
	t.Helper()
	cmd := exec.Command(os.Args[0], args...)
	cmd.Env = append(os.Environ(), "BEPI_SERVE_MAIN=1")
	stderr, err := cmd.StderrPipe()
	if err != nil {
		t.Fatal(err)
	}
	if err := cmd.Start(); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		cmd.Process.Signal(os.Interrupt)
		cmd.Wait()
	})
	lines := make(chan string)
	go func() {
		defer close(lines)
		sc := bufio.NewScanner(stderr)
		for sc.Scan() {
			lines <- sc.Text()
		}
	}()
	var log strings.Builder
	timeout := time.After(30 * time.Second)
	for {
		select {
		case line, ok := <-lines:
			if !ok {
				t.Fatalf("bepi-serve exited before it listened:\n%s", log.String())
			}
			log.WriteString(line + "\n")
			if strings.Contains(line, "RWR queries on") {
				go func() { // drain the rest, so the server never blocks on its log
					for range lines {
					}
				}()
				return log.String()
			}
		case <-timeout:
			t.Fatalf("bepi-serve did not listen within 30 s:\n%s", log.String())
		}
	}
}

// getJSON GETs path from the server and decodes its JSON object.
func getJSON(t *testing.T, addr, path string) map[string]any {
	t.Helper()
	resp, err := http.Get("http://" + addr + path)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var body map[string]any
	if err := json.NewDecoder(resp.Body).Decode(&body); err != nil || resp.StatusCode != http.StatusOK {
		t.Fatalf("GET %s: status %d, %v", path, resp.StatusCode, err)
	}
	return body
}
