// Package golden renders tables as the committed data/*.csv files and diffs
// regenerated tables against them. Encode is the one CSV rendering shared by
// the secdir-experiments -csv writer, the server's experiment results and
// every golden test; Check is the test-side diff. The package declares no
// flags: each test package owns its -update switch and passes it in.
package golden

import (
	"bytes"
	"encoding/csv"
	"os"
	"path/filepath"
	"testing"
)

// Encode renders a header and rows as RFC 4180 CSV, exactly as the files
// under data/ are written.
func Encode(head []string, rows [][]string) []byte {
	var buf bytes.Buffer
	w := csv.NewWriter(&buf)
	// Writes to a bytes.Buffer cannot fail; csv reports only write errors.
	_ = w.Write(head)
	_ = w.WriteAll(rows)
	return buf.Bytes()
}

// Check encodes head and rows and compares them with data/<name> at the
// repository root, reporting every differing line. With update set it
// rewrites the file instead. Callers are test packages under internal/, so
// the repository root is two directories up.
func Check(t testing.TB, name string, head []string, rows [][]string, update bool) {
	t.Helper()
	path := filepath.Join("..", "..", "data", name)
	got := Encode(head, rows)
	if update {
		if err := os.WriteFile(path, got, 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("rewrote %s", path)
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("missing golden file (run with -update to create it): %v", err)
	}
	if bytes.Equal(got, want) {
		return
	}
	gl := bytes.Split(bytes.TrimRight(got, "\n"), []byte("\n"))
	wl := bytes.Split(bytes.TrimRight(want, "\n"), []byte("\n"))
	for i := 0; i < len(gl) || i < len(wl); i++ {
		var g, w []byte
		if i < len(gl) {
			g = gl[i]
		}
		if i < len(wl) {
			w = wl[i]
		}
		if !bytes.Equal(g, w) {
			t.Errorf("%s line %d:\n  regenerated: %q\n  committed:   %q", name, i+1, g, w)
		}
	}
	t.Fatalf("%s diverges from the committed golden file (re-run with -update after an intentional model change)", name)
}
