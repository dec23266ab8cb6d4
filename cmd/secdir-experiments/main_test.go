package main

import (
	"bytes"
	"errors"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
)

// runMainEnv, when set in a child's environment, makes the test binary run
// main with the child's arguments instead of the tests.
const runMainEnv = "SECDIR_EXPERIMENTS_TEST_RUN_MAIN"

func TestMain(m *testing.M) {
	if os.Getenv(runMainEnv) == "1" {
		main()
		os.Exit(0)
	}
	os.Exit(m.Run())
}

// runCLI runs main in a child process and returns its combined output and
// exit status.
func runCLI(t *testing.T, args ...string) (string, int) {
	t.Helper()
	cmd := exec.Command(os.Args[0], args...)
	cmd.Env = append(os.Environ(), runMainEnv+"=1")
	out, err := cmd.CombinedOutput()
	var exit *exec.ExitError
	if errors.As(err, &exit) {
		return string(out), exit.ExitCode()
	}
	if err != nil {
		t.Fatal(err)
	}
	return string(out), 0
}

// TestInvalidMachineExitsTwo: a machine config.Validate rejects is a usage
// error naming the cores, never a panic, an empty table, or a table for a
// machine the simulated experiments would then refuse.
func TestInvalidMachineExitsTwo(t *testing.T) {
	for _, cores := range []string{"0", "-4", "3", "128"} {
		for _, id := range []string{"T7", "F6", "S1"} {
			out, code := runCLI(t, "-run", id, "-cores", cores)
			if code != 2 || !strings.Contains(out, "cores") {
				t.Errorf("-run %s -cores %s: exit %d, output %q; want exit 2 naming cores", id, cores, code, out)
			}
		}
	}
}

// TestUnknownIDExitsTwo: an unknown ID is refused before anything runs.
func TestUnknownIDExitsTwo(t *testing.T) {
	out, code := runCLI(t, "-run", "A1,ZZ")
	if code != 2 || !strings.Contains(out, "ALT") || strings.Contains(out, "===") {
		t.Errorf("-run A1,ZZ: exit %d, output %q; want exit 2 listing the IDs and no table", code, out)
	}
}

// TestCSVMatchesData: -csv writes the analytic tables byte-identical to the
// committed data/ files.
func TestCSVMatchesData(t *testing.T) {
	dir := t.TempDir()
	if out, code := runCLI(t, "-run", "A1,F5,T7", "-csv", dir); code != 0 {
		t.Fatalf("exit %d:\n%s", code, out)
	}
	for _, name := range []string{"A1_associativity.csv", "F5_vd_sizing.csv", "T7_storage_area.csv"} {
		got, err := os.ReadFile(filepath.Join(dir, name))
		if err != nil {
			t.Fatal(err)
		}
		want, err := os.ReadFile(filepath.Join("..", "..", "data", name))
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, want) {
			t.Errorf("%s differs from data/%s:\n%s", name, name, got)
		}
	}
}
