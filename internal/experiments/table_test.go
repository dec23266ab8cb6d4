package experiments

import (
	"context"
	"strings"
	"testing"
)

// TestTableEveryID: every listed experiment builds a table whose rows all
// have the header's width. The property is the table's shape, not its
// numbers, so the runs are far shorter than QuickRunOpts' default lengths.
func TestTableEveryID(t *testing.T) {
	o := QuickRunOpts()
	o.Warmup, o.Measure = 2_000, 2_000
	for _, a := range Artifacts {
		t.Run(a.ID, func(t *testing.T) {
			head, rows, err := Table(context.Background(), a.ID, o)
			if err != nil {
				t.Fatal(err)
			}
			if len(head) == 0 || len(rows) == 0 {
				t.Fatalf("empty table: %d columns, %d rows", len(head), len(rows))
			}
			for i, r := range rows {
				if len(r) != len(head) {
					t.Errorf("row %d has %d cells, header has %d: %q", i, len(r), len(head), r)
				}
			}
		})
	}
	_, _, err := Table(context.Background(), "ZZ", o)
	if err == nil || !strings.Contains(err.Error(), strings.Join(IDs(), ",")) {
		t.Errorf("unknown ID error = %v, want one naming %s", err, strings.Join(IDs(), ","))
	}
}

// TestTableRejectsInvalidMachine: Table refuses every machine config.Validate
// rejects before building anything, naming the cores, for analytic and
// simulated experiments alike.
func TestTableRejectsInvalidMachine(t *testing.T) {
	for _, cores := range []int{0, -4, 3, 128} {
		o := QuickRunOpts()
		o.Cores = cores
		for _, id := range []string{"A1", "F6", "T7", "S1"} {
			_, _, err := Table(context.Background(), id, o)
			if err == nil || !strings.Contains(err.Error(), "cores") {
				t.Errorf("%s at %d cores: err = %v, want a cores error", id, cores, err)
			}
		}
	}
}
