package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
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
// and its exit code.
func serve(t *testing.T, args ...string) (string, int) {
	t.Helper()
	cmd := exec.Command(os.Args[0], args...)
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

// TestServeCalibratesBeforeListening: in both modes bepi-serve calibrates
// the top-k bound of the engine it serves — the one -index loads, the one
// -graph builds — and logs its time before it listens. So the first top-k
// request runs only its own solve: the iteration hook behind
// solver_iters_total counts exactly the iterations the answer reports,
// where a request that calibrated would add the reference solves'.
func TestServeCalibratesBeforeListening(t *testing.T) {
	g := bepi.RMAT(9, 8, 42)
	eng, err := bepi.New(g)
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	index, edges := filepath.Join(dir, "g.idx"), filepath.Join(dir, "g.txt")
	for path, write := range map[string]func(io.Writer) error{index: eng.Save, edges: g.WriteEdgeList} {
		f, err := os.Create(path)
		if err != nil {
			t.Fatal(err)
		}
		if err := write(f); err != nil {
			t.Fatal(err)
		}
		if err := f.Close(); err != nil {
			t.Fatal(err)
		}
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
			addr, log := startServe(t, mode, path)
			// The log line comes as the listener starts: wait for it to answer.
			for try := 0; ; try++ {
				resp, err := http.Get("http://" + addr + "/healthz")
				if err == nil {
					resp.Body.Close()
					break
				}
				if try == 100 {
					t.Fatalf("bepi-serve does not answer on %s: %v", addr, err)
				}
				time.Sleep(20 * time.Millisecond)
			}
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
				t.Fatalf("the first top-k reports %v iterations, the iteration hook counted %v", iters, spent)
			}
		})
	}
}

// startServe runs bepi-serve on a free loopback port with the given source
// flag until the test ends, and returns its address and what it logged up
// to and including the line that says it listens.
func startServe(t *testing.T, flag, path string) (string, string) {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := ln.Addr().String()
	ln.Close()
	cmd := exec.Command(os.Args[0], flag, path, "-addr", addr, "-workers", "1")
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
			if strings.Contains(line, "serving RWR queries") {
				go func() { // drain the rest, so the server never blocks on its log
					for range lines {
					}
				}()
				return addr, log.String()
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
