package experiments

import (
	"context"
	"flag"
	"testing"

	"secdir/internal/golden"
)

// update rewrites the golden CSVs under data/ instead of diffing against
// them: go test ./internal/experiments -run TestGolden -update
var update = flag.Bool("update", false, "rewrite the golden CSV files in data/")

// TestGolden pins the cheap artifacts to their committed CSVs at the paper's
// lengths (DefaultRunOpts): the analytic A1/F5/T7 models and the F6 trace,
// S1 attack and SC scaling simulations. Any change to the model they
// exercise shows up here as a line diff before it silently shifts the
// paper's numbers. F7, F8, T6 and ALT cost about 90 s together and are
// pinned by the paper-artifacts CI job, which regenerates all ten files
// with secdir-experiments -run all -csv data and diffs data/.
func TestGolden(t *testing.T) {
	for _, id := range []string{"A1", "F5", "F6", "T7", "S1", "SC"} {
		t.Run(id, func(t *testing.T) {
			a, err := Lookup(id)
			if err != nil {
				t.Fatal(err)
			}
			head, rows, err := Table(context.Background(), id, DefaultRunOpts())
			if err != nil {
				t.Fatal(err)
			}
			golden.Check(t, a.File, head, rows, *update)
		})
	}
}
