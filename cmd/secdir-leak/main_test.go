package main

import (
	"errors"
	"os"
	"os/exec"
	"strings"
	"testing"
)

// runMainEnv, when set in a child's environment, makes the test binary run
// main with the child's arguments instead of the tests.
const runMainEnv = "SECDIR_LEAK_TEST_RUN_MAIN"

func TestMain(m *testing.M) {
	if os.Getenv(runMainEnv) == "1" {
		main()
		os.Exit(0)
	}
	os.Exit(m.Run())
}

// TestCoresBeyondBitsetExitsTwo: -cores 128 is a usage error (exit 2) that
// names the cap, not a sweep over a machine whose cores 64 and up would never
// be recorded as directory sharers.
func TestCoresBeyondBitsetExitsTwo(t *testing.T) {
	cmd := exec.Command(os.Args[0], "-cores", "128", "-trials", "2", "-quiet")
	cmd.Env = append(os.Environ(), runMainEnv+"=1")
	out, err := cmd.CombinedOutput()
	var exit *exec.ExitError
	if !errors.As(err, &exit) || exit.ExitCode() != 2 {
		t.Fatalf("secdir-leak -cores 128: err %v, want exit status 2; output:\n%s", err, out)
	}
	if !strings.Contains(string(out), "cores") || !strings.Contains(string(out), "64") {
		t.Errorf("error output %q does not name the 64-core cap", out)
	}
}
