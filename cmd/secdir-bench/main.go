// Command secdir-bench runs the benchmark-regression harness: the
// internal/bench microbenchmarks plus bounded experiment workloads. It writes
// a machine-readable BENCH_<date>.json artifact, prints a text delta report
// against the last checked-in baseline, and exits non-zero when any metric
// regresses past the tolerance (any new allocation on a zero-alloc benchmark
// regresses regardless of tolerance).
//
// Usage:
//
//	secdir-bench [-dir .] [-baseline path] [-out path] [-tolerance 0.10] [-replay path]
//
// -replay skips the (slow) measurement and compares an existing report
// against the baseline — `secdir-bench -replay BENCH_X.json -baseline
// BENCH_X.json` is the self-check CI runs after refreshing a baseline.
package main

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"testing"

	"secdir/internal/bench"
)

func main() {
	var (
		dir       = flag.String("dir", ".", "directory holding the checked-in BENCH_*.json baselines")
		baseline  = flag.String("baseline", "", "explicit baseline report (default: newest BENCH_*.json in -dir)")
		out       = flag.String("out", "", "output path (default: <dir>/BENCH_<date>.json)")
		tolerance = flag.Float64("tolerance", 0.10, "relative time-regression tolerance (0.10 = 10%)")
		replay    = flag.String("replay", "", "compare this existing report instead of measuring")
		noWrite   = flag.Bool("no-write", false, "do not write the JSON artifact")
		short     = flag.Bool("short", false, "smoke mode: very short benchmark runs — meaningful for the allocs-per-op invariant only, not for timing comparisons")
	)
	// Register the testing flags (test.benchtime) so -short can shrink them.
	testing.Init()
	flag.Parse()
	if *short {
		if err := flag.Set("test.benchtime", "50ms"); err != nil {
			fmt.Fprintln(os.Stderr, "secdir-bench:", err)
			os.Exit(1)
		}
	}
	if err := run(*dir, *baseline, *out, *tolerance, *replay, *noWrite); err != nil {
		fmt.Fprintln(os.Stderr, "secdir-bench:", err)
		os.Exit(1)
	}
}

// run executes the harness and returns an error on failure or regression.
func run(dir, baseline, out string, tolerance float64, replay string, noWrite bool) error {
	var cur *bench.Report
	var err error
	if replay != "" {
		if cur, err = bench.Load(replay); err != nil {
			return err
		}
		fmt.Printf("replaying %s (%s, %s/%s)\n", replay, cur.GoVersion, cur.GOOS, cur.GOARCH)
	} else {
		fmt.Println("running microbenchmarks and workloads (several minutes)...")
		if cur, err = bench.Collect(); err != nil {
			return err
		}
		for _, m := range cur.Micro {
			fmt.Printf("  %-16s %10.1f ns/op %6d allocs/op %8d B/op\n", m.Name, m.NsPerOp, m.AllocsPerOp, m.BytesPerOp)
		}
		for _, w := range cur.Workloads {
			fmt.Printf("  %-24s %8.1f ns/access %8.2f Maccess/s\n", w.Name, w.NsPerAccess, w.MAccessesPerSec)
		}
		if !noWrite {
			path := out
			if path == "" {
				path = filepath.Join(dir, "BENCH_"+cur.Date+".json")
			}
			if err := cur.WriteFile(path); err != nil {
				return err
			}
			fmt.Println("wrote", path)
		}
	}

	// The delta report header states which baseline was chosen AND how, so a
	// CI log is unambiguous about what the run was judged against.
	chosen := "explicitly via -baseline"
	if baseline == "" {
		baseline, err = bench.FindBaseline(dir)
		if err != nil {
			fmt.Println("no baseline to compare against; done")
			return nil
		}
		chosen = fmt.Sprintf("newest BENCH_*.json in %s", dir)
	}
	base, err := bench.Load(baseline)
	if err != nil {
		return err
	}
	fmt.Printf("\ncomparison vs %s (chosen: %s; tolerance %.0f%%):\n", baseline, chosen, tolerance*100)
	deltas := bench.Compare(base, cur, tolerance)
	for _, d := range deltas {
		fmt.Println(d)
	}
	if reg := bench.Regressions(deltas); len(reg) > 0 {
		return fmt.Errorf("%d metric(s) regressed past the tolerance", len(reg))
	}
	fmt.Println("no regressions")
	return nil
}
