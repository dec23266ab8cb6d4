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
	newServer := func(t *testing.T) (*server.Server, *httptest.Server) {
		t.Helper()
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
	_, w1 := newServer(t)
	_, w2 := newServer(t)
	co, cts := newServer(t)
	co.AttachFleet(fleet.New(fleet.Config{Workers: []string{w1.URL, w2.URL}}))

	run := func(extra ...string) []byte {
		t.Helper()
		args := append([]string{"-config", "skylake-unfixed,secdir", "-strategy", "primeprobe,evictreload",
			"-trials", "40", "-rounds", "8", "-seed", "7", "-quiet", "-json"}, extra...)
		cmd := exec.Command(os.Args[0], args...)
		cmd.Env = append(os.Environ(), runMainEnv+"=1")
		var stderr bytes.Buffer
		cmd.Stderr = &stderr
		out, err := cmd.Output()
		if err != nil {
			t.Fatalf("secdir-leak %v: %v\n%s", extra, err, stderr.Bytes())
		}
		return out
	}
	local := run()
	remote := run("-fleet", cts.URL)
	if !bytes.Equal(remote, local) {
		t.Errorf("-fleet -json output differs from local -json output:\nfleet:\n%s\nlocal:\n%s", remote, local)
	}
}
