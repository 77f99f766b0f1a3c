package main

import (
	"os"
	"os/exec"
	"strings"
	"testing"
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

// TestBatchFlagsAreGone: the batch scheduler's two flags left with it, so the
// command refuses them as it does any unknown flag, and -h lists the 17 that
// remain.
func TestBatchFlagsAreGone(t *testing.T) {
	for _, name := range []string{"-batch-max", "-batch-window"} {
		out, code := serve(t, name, "4")
		if code != 2 || !strings.Contains(out, "flag provided but not defined: "+name) {
			t.Errorf("bepi-serve %s 4: exit %d, output %q; want exit 2 and an unknown-flag error", name, code, out)
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
	if flags != 17 {
		t.Errorf("bepi-serve -h lists %d flags, want 17:\n%s", flags, usage)
	}
}
