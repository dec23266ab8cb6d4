package main

import (
	"bytes"
	"context"
	"errors"
	"net/http/httptest"
	"os"
	"os/exec"
	"strings"
	"testing"
	"time"

	"secdir/internal/config"
	"secdir/internal/fleet"
	"secdir/internal/server"
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

// TestFleetJSONMatchesLocal runs the same sweep twice through the CLI —
// once locally, once with -fleet against an in-process coordinator over two
// worker servers — and demands byte-identical -json output.
func TestFleetJSONMatchesLocal(t *testing.T) {
	run := cliRunner(t, "-config", "skylake-unfixed,secdir", "-strategy", "primeprobe,evictreload",
		"-trials", "40", "-rounds", "8", "-seed", "7", "-quiet", "-json")
	local := run()
	remote := run("-fleet", fleetURL(t))
	if !bytes.Equal(remote, local) {
		t.Errorf("-fleet -json output differs from local -json output:\nfleet:\n%s\nlocal:\n%s", remote, local)
	}
}

// TestFleetLeaderboardJSONMatchesLocal does the same for a leaderboard at a
// non-default bootstrap confidence, which both paths must honour.
func TestFleetLeaderboardJSONMatchesLocal(t *testing.T) {
	run := cliRunner(t, "-leaderboard", "-config", "skylake-unfixed,secdir", "-strategy", "primeprobe",
		"-trials", "40", "-rounds", "16", "-seed", "7", "-confidence", "0.95", "-quiet", "-json")
	local := run()
	remote := run("-fleet", fleetURL(t))
	if !bytes.Equal(remote, local) {
		t.Errorf("-fleet -json output differs from local -json output:\nfleet:\n%s\nlocal:\n%s", remote, local)
	}
	if !bytes.Contains(local, []byte(`"confidence": 0.95`)) {
		t.Errorf("leaderboard rows do not carry -confidence 0.95:\n%s", local)
	}
}

// fleetURL starts a coordinator server over two worker servers, all
// in-process, and returns the coordinator's base URL.
func fleetURL(t *testing.T) string {
	t.Helper()
	newServer := func() (*server.Server, *httptest.Server) {
		cfg := config.DefaultServerConfig()
		cfg.Workers = 2
		srv, err := server.New(cfg, nil)
		if err != nil {
			t.Fatal(err)
		}
		ts := httptest.NewServer(srv)
		t.Cleanup(func() {
			ts.Close()
			ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
			defer cancel()
			_, _ = srv.Drain(ctx)
		})
		return srv, ts
	}
	_, w1 := newServer()
	_, w2 := newServer()
	co, cts := newServer()
	co.AttachFleet(fleet.New(fleet.Config{Workers: []string{w1.URL, w2.URL}}))
	return cts.URL
}

// cliRunner returns a runner of the CLI with args plus the extra ones, which
// returns its stdout and fails the test on a non-zero exit.
func cliRunner(t *testing.T, args ...string) func(extra ...string) []byte {
	return func(extra ...string) []byte {
		t.Helper()
		cmd := exec.Command(os.Args[0], append(append([]string(nil), args...), extra...)...)
		cmd.Env = append(os.Environ(), runMainEnv+"=1")
		var stderr bytes.Buffer
		cmd.Stderr = &stderr
		out, err := cmd.Output()
		if err != nil {
			t.Fatalf("secdir-leak %v: %v\n%s", extra, err, stderr.Bytes())
		}
		return out
	}
}
