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
