// Command secdir-leak is the statistical leakage-quantification lab's CLI:
// it runs Monte-Carlo attack trials against the simulated directory designs
// and prints LEAK / NO-LEAK verdicts backed by TVLA Welch t-tests (|t| > 4.5),
// channel-capacity estimates in bits per trial, and bootstrap-bounded
// distinguisher AUCs.
//
// Usage:
//
//	secdir-leak                                        # default config x strategy sweep
//	secdir-leak -config skylake-unfixed -strategy primeprobe
//	secdir-leak -config secdir -trials 2000 -json
//	secdir-leak -leaderboard                           # race the rival defenses
//	secdir-leak -fleet http://host0:8372 -trials 5000  # run on a worker fleet
//
// The flags build the leak (or, with -leaderboard, leaderboard) job that
// secdir-serve accepts, and a local run executes it through server.Run, the
// server's own runner. With -fleet the same job is submitted to a
// secdir-serve coordinator, which shards the trials across its workers;
// trial seeding is worker-count invariant, so the merged report is
// bit-identical to a local run of the same parameters. Progress on stderr
// counts trials over the whole grid.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"strings"
	"sync"
	"syscall"

	"secdir/internal/config"
	"secdir/internal/leakage"
	"secdir/internal/metrics"
	"secdir/internal/server"
)

func main() {
	cfgSpec := flag.String("config", "", fmt.Sprintf("comma-separated configs from %s; all = %s (default: %s, or the leaderboard roster %s)",
		strings.Join(config.Names(), ","), strings.Join(leakage.AllConfigNames(), ","),
		strings.Join(leakage.ConfigNames, ","), strings.Join(leakage.LeaderboardNames, ",")))
	stratSpec := flag.String("strategy", "", fmt.Sprintf("comma-separated strategies: primeprobe,evictreload,evicttime,floodreload,monitor; suite = all but floodreload (default: suite, or %s with -leaderboard)",
		strings.Join(leakage.LeaderboardStrategies, ",")))
	trials := flag.Int("trials", 1000, "independent seeded trials per (config,strategy) cell")
	rounds := flag.Int("rounds", leakage.DefaultRounds, "attack rounds per trial (half victim-active, half idle)")
	cores := flag.Int("cores", 8, "simulated cores (power of two)")
	evLines := flag.Int("evlines", 0, "eviction-set size override (0 = strategy default)")
	workers := flag.Int("workers", 0, "trial-runner goroutines (0 = GOMAXPROCS)")
	seed := flag.Int64("seed", 1, "master seed pinning trials, schedules and bootstraps")
	confidence := flag.Float64("confidence", leakage.DefaultConfidence, "bootstrap confidence level for the AUC interval")
	resamples := flag.Int("resamples", leakage.DefaultResamples, fmt.Sprintf("bootstrap replicates per interval (at most %d)", leakage.MaxResamples))
	jsonOut := flag.Bool("json", false, "emit the report as JSON instead of a table")
	leaderboard := flag.Bool("leaderboard", false, "race the cross-defense leaderboard (baseline, secdir and the rival designs) with performance and cost columns")
	fleetURL := flag.String("fleet", "", "secdir-serve coordinator base URL: run the sweep on its worker fleet instead of locally")
	quiet := flag.Bool("quiet", false, "suppress trial progress on stderr")
	mflags := metrics.RegisterCLIFlags(flag.CommandLine)
	flag.Parse()

	// The sweep is the job a secdir-serve would run for the same request;
	// Normalize fills the roster defaults and refuses what the server would.
	spec := server.JobSpec{
		Kind:          server.KindLeak,
		Configs:       list(*cfgSpec),
		Strategies:    list(*stratSpec),
		Cores:         *cores,
		Trials:        *trials,
		Rounds:        *rounds,
		EvictionLines: *evLines,
		Workers:       *workers,
		Seed:          *seed,
		Confidence:    *confidence,
		Resamples:     *resamples,
		Fleet:         *fleetURL != "",
	}
	if *leaderboard {
		spec.Kind = server.KindLeaderboard
	}
	if err := spec.Normalize(); err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(2)
	}
	if err := mflags.Start(); err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	reg := mflags.Registry()

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	var progress server.ProgressFunc
	if !*quiet {
		var mu sync.Mutex
		progress = func(stage string, done, total int) {
			mu.Lock()
			fmt.Fprintf(os.Stderr, "%-32s %d/%d trials\n", stage, done, total)
			mu.Unlock()
		}
	}

	var result any // *leakage.Report or *leakage.Leaderboard
	var err error
	if spec.Fleet {
		result, err = runFleet(ctx, *fleetURL, spec, progress)
	} else {
		result, err = server.Run(ctx, spec, reg, progress)
	}
	if err == nil {
		err = printResult(result, *jsonOut)
	}
	if err == nil {
		err = mflags.Finish(reg)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
}

// list splits a comma-separated flag value; empty means none, so the job
// kind's default roster applies.
func list(s string) []string {
	if s == "" {
		return nil
	}
	return strings.Split(s, ",")
}

// printResult writes a *leakage.Report or *leakage.Leaderboard to stdout as
// indented JSON or as its text table; a report's table is followed by the
// TVLA leak summary. A fleet result decodes into the same Go structs as a
// local one (float64 JSON round-trips are exact), so either prints
// byte-identically.
func printResult(result any, jsonOut bool) error {
	if jsonOut {
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		return enc.Encode(result)
	}
	switch r := result.(type) {
	case *leakage.Leaderboard:
		fmt.Print(r.Text())
	case *leakage.Report:
		fmt.Print(r.Text())
		if n := len(r.Leaks()); n > 0 {
			fmt.Printf("\n%d/%d cells leak under TVLA.\n", n, len(r.Verdicts))
		} else {
			fmt.Printf("\nno cell leaks under TVLA.\n")
		}
	}
	return nil
}
