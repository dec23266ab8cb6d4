// Command secdir-leak is the statistical leakage-quantification lab's CLI:
// it runs Monte-Carlo attack trials against the simulated directory designs
// and prints LEAK / NO-LEAK verdicts backed by TVLA Welch t-tests (|t| > 4.5),
// channel-capacity estimates in bits per trial, and bootstrap-bounded
// distinguisher AUCs.
//
// Usage:
//
//	secdir-leak                                        # full config x strategy sweep
//	secdir-leak -config skylake-unfixed -strategy primeprobe
//	secdir-leak -config secdir -trials 2000 -json
//	secdir-leak -leaderboard                           # race the rival defenses
//	secdir-leak -fleet http://host0:8372 -trials 5000  # run on a worker fleet
//
// With -fleet the sweep is submitted to a secdir-serve coordinator, which
// shards the trials across its workers; trial seeding is worker-count
// invariant, so the merged report is bit-identical to a local run of the
// same parameters.
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
	cfgSpec := flag.String("config", "all", fmt.Sprintf("comma-separated configs from %s (all = %s)",
		strings.Join(config.Names(), ","), strings.Join(leakage.AllConfigNames(), ",")))
	stratSpec := flag.String("strategy", "suite", "comma-separated strategies: primeprobe,evictreload,evicttime,floodreload,monitor (suite = all but floodreload)")
	trials := flag.Int("trials", 1000, "independent seeded trials per (config,strategy) cell")
	rounds := flag.Int("rounds", 16, "attack rounds per trial (half victim-active, half idle)")
	cores := flag.Int("cores", 8, "simulated cores (power of two)")
	evLines := flag.Int("evlines", 0, "eviction-set size override (0 = strategy default)")
	workers := flag.Int("workers", 0, "trial-runner goroutines (0 = GOMAXPROCS)")
	seed := flag.Int64("seed", 1, "master seed pinning trials, schedules and bootstraps")
	confidence := flag.Float64("confidence", 0.99, "bootstrap confidence level for the AUC interval")
	resamples := flag.Int("resamples", 400, fmt.Sprintf("bootstrap replicates per interval (at most %d)", leakage.MaxResamples))
	jsonOut := flag.Bool("json", false, "emit the report as JSON instead of a table")
	leaderboard := flag.Bool("leaderboard", false, "race the cross-defense leaderboard (baseline, secdir and the rival designs) with performance and cost columns")
	fleetURL := flag.String("fleet", "", "secdir-serve coordinator base URL: run the sweep on its worker fleet instead of locally")
	quiet := flag.Bool("quiet", false, "suppress trial progress on stderr")
	mflags := metrics.RegisterCLIFlags(flag.CommandLine)
	flag.Parse()

	if *resamples < 0 || *resamples > leakage.MaxResamples {
		fmt.Fprintf(os.Stderr, "-resamples must be in [0, %d], got %d\n", leakage.MaxResamples, *resamples)
		os.Exit(2)
	}
	if err := mflags.Start(); err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	reg := mflags.Registry()

	configs, err := leakage.ParseConfigList(*cfgSpec, *cores)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(2)
	}
	strategies, err := leakage.ParseStrategyList(*stratSpec)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(2)
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	var progress func(stage string, done, total int)
	if !*quiet {
		var mu sync.Mutex
		progress = func(stage string, done, total int) {
			mu.Lock()
			fmt.Fprintf(os.Stderr, "%-32s %d/%d trials\n", stage, done, total)
			mu.Unlock()
		}
	}

	// Explicit -config/-strategy selections narrow a leaderboard race; the
	// flag defaults fall through to the leaderboard's own roster
	// (LeaderboardNames × primeprobe+evictreload).
	if *leaderboard && *cfgSpec == "all" {
		configs = nil
	}
	if *leaderboard && *stratSpec == "suite" {
		strategies = nil
	}

	var result any // *leakage.Report or *leakage.Leaderboard
	switch {
	case *fleetURL != "":
		spec := server.JobSpec{
			Kind:          server.KindLeak,
			Fleet:         true,
			Configs:       configs,
			Strategies:    leakage.StrategyNames(strategies),
			Cores:         *cores,
			Trials:        *trials,
			Rounds:        *rounds,
			EvictionLines: *evLines,
			Seed:          *seed,
			Confidence:    *confidence,
			Resamples:     *resamples,
		}
		if *leaderboard {
			spec.Kind = server.KindLeaderboard
		}
		result, err = runFleet(ctx, *fleetURL, spec, progress)
	case *leaderboard:
		result, err = leakage.RunLeaderboard(ctx, leakage.LeaderboardOptions{
			Configs:       configs,
			Strategies:    strategies,
			Cores:         *cores,
			Trials:        *trials,
			Rounds:        *rounds,
			EvictionLines: *evLines,
			Workers:       *workers,
			Seed:          *seed,
			Metrics:       reg,
			Progress:      progress,
		})
	default:
		result, err = leakage.RunReport(ctx, leakage.ReportOptions{
			Configs:       configs,
			Strategies:    strategies,
			Cores:         *cores,
			Trials:        *trials,
			Rounds:        *rounds,
			EvictionLines: *evLines,
			Workers:       *workers,
			Seed:          *seed,
			Confidence:    *confidence,
			Resamples:     *resamples,
			Metrics:       reg,
			Progress:      progress,
		})
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
