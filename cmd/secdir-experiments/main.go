// Command secdir-experiments regenerates the tables and figures of the
// SecDir paper (ISCA 2019). Each experiment is identified by the ID used in
// DESIGN.md / EXPERIMENTS.md:
//
//	A1   §2.3    required directory associativity analysis
//	F5   Fig 5   equal-storage VD sizing across core counts
//	F6   Fig 6   AES T0-table trace on SecDir with VD only
//	F7   Fig 7   SPEC mixes: normalized IPC and L2-miss breakdown
//	F8   Fig 8   PARSEC: normalized time and L2-miss breakdown
//	T6   Tab 6   Empty-Bit and cuckoo effectiveness
//	T7   Tab 7   per-slice storage and area
//	S1   §9      evict+reload / prime+probe attack comparison
//	SC   §4.1    the attack and the VD sizing from 8 to 64 cores
//	ALT  §1/§11  way-partitioned and randomized alternatives vs. SecDir
//
// Each table is printed as text; -csv DIR also writes it to DIR under the
// file name data/ uses, byte-identical to the committed copy at the default
// lengths.
//
// Usage:
//
//	secdir-experiments -run all -csv data
//	secdir-experiments -run F7,T6 -measure 300000
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"text/tabwriter"

	"secdir/internal/experiments"
	"secdir/internal/golden"
	"secdir/internal/metrics"
)

// maxPrinted bounds the text rendering of a table; the CSV always holds
// every row.
const maxPrinted = 40

func main() {
	runList := flag.String("run", "all", "comma-separated experiment IDs or 'all'; IDs: "+strings.Join(experiments.IDs(), ","))
	warmup := flag.Uint64("warmup", 150_000, "warmup accesses per core")
	measure := flag.Uint64("measure", 150_000, "measured accesses per core")
	cores := flag.Int("cores", 8, "number of cores (power of two, at most 64)")
	seed := flag.Int64("seed", 1, "simulation seed")
	csvDir := flag.String("csv", "", "also write each table as a CSV file into this directory")
	mflags := metrics.RegisterCLIFlags(flag.CommandLine)
	flag.Parse()

	o := experiments.RunOpts{Warmup: *warmup, Measure: *measure, Cores: *cores, Seed: *seed}
	if err := o.Validate(); err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(2)
	}
	arts := experiments.Artifacts
	if *runList != "all" {
		arts = nil
		for _, id := range strings.Split(*runList, ",") {
			a, err := experiments.Lookup(strings.ToUpper(strings.TrimSpace(id)))
			if err != nil {
				fmt.Fprintln(os.Stderr, err)
				os.Exit(2)
			}
			arts = append(arts, a)
		}
	}
	if *csvDir != "" {
		if err := os.MkdirAll(*csvDir, 0o755); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
	}
	if err := mflags.Start(); err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	// The registry is goroutine-safe, so parallel sweeps share it and
	// aggregate into the same counters.
	o.Metrics = mflags.Registry()

	for _, a := range arts {
		if err := run(a, o, *csvDir); err != nil {
			fmt.Fprintf(os.Stderr, "%s: %v\n", a.ID, err)
			os.Exit(1)
		}
	}
	if err := mflags.Finish(o.Metrics); err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
}

// run builds one table, prints it and, with csvDir set, writes its CSV.
func run(a experiments.Artifact, o experiments.RunOpts, csvDir string) error {
	head, rows, err := experiments.Table(context.Background(), a.ID, o)
	if err != nil {
		return err
	}
	fmt.Printf("\n=== %s — %s ===\n", a.ID, a.Title)
	tw := tabwriter.NewWriter(os.Stdout, 0, 0, 2, ' ', 0)
	fmt.Fprintln(tw, strings.Join(head, "\t"))
	for i, r := range rows {
		if i == maxPrinted {
			break
		}
		fmt.Fprintln(tw, strings.Join(r, "\t"))
	}
	if err := tw.Flush(); err != nil {
		return err
	}
	if len(rows) > maxPrinted {
		fmt.Printf("... %d rows in total (first %d shown)\n", len(rows), maxPrinted)
	}
	if csvDir == "" {
		return nil
	}
	return os.WriteFile(filepath.Join(csvDir, a.File), golden.Encode(head, rows), 0o644)
}
