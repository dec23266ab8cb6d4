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
	"sync"
	"syscall"

	"secdir/internal/fleet"
	"secdir/internal/leakage"
	"secdir/internal/metrics"
)

func main() {
	cfgSpec := flag.String("config", "all", "comma-separated configs: skylake-unfixed,skylake-fixed,secdir (or all)")
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

	if *fleetURL != "" {
		req := fleet.JobRequest{
			Kind:          "leak",
			Fleet:         true,
			Cores:         *cores,
			Trials:        *trials,
			Rounds:        *rounds,
			EvictionLines: *evLines,
			Seed:          *seed,
			Confidence:    *confidence,
			Resamples:     *resamples,
		}
		if *leaderboard {
			// The flag defaults fall through to the leaderboard's own roster,
			// exactly as the local path below does.
			req.Kind = "leaderboard"
			if *cfgSpec != "all" {
				req.Configs = configs
			}
			if *stratSpec != "suite" {
				req.Strategies = leakage.StrategyNames(strategies)
			}
		} else {
			req.Configs = configs
			req.Strategies = leakage.StrategyNames(strategies)
		}
		if err := runFleet(ctx, *fleetURL, req, *jsonOut, *quiet); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		return
	}

	if *leaderboard {
		lbOpts := leakage.LeaderboardOptions{
			Cores:         *cores,
			Trials:        *trials,
			Rounds:        *rounds,
			EvictionLines: *evLines,
			Workers:       *workers,
			Seed:          *seed,
			Metrics:       reg,
		}
		// Explicit -config/-strategy selections narrow the race; the flag
		// defaults fall through to the leaderboard's own roster
		// (LeaderboardNames × primeprobe+evictreload).
		if *cfgSpec != "all" {
			lbOpts.Configs = configs
		}
		if *stratSpec != "suite" {
			lbOpts.Strategies = strategies
		}
		if !*quiet {
			var mu sync.Mutex
			lbOpts.Progress = func(stage string, done, total int) {
				mu.Lock()
				fmt.Fprintf(os.Stderr, "%-32s %d/%d trials\n", stage, done, total)
				mu.Unlock()
			}
		}
		lb, err := leakage.RunLeaderboard(ctx, lbOpts)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		if *jsonOut {
			enc := json.NewEncoder(os.Stdout)
			enc.SetIndent("", "  ")
			if err := enc.Encode(lb); err != nil {
				fmt.Fprintln(os.Stderr, err)
				os.Exit(1)
			}
		} else {
			fmt.Print(lb.Text())
		}
		if err := mflags.Finish(reg); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		return
	}

	opts := leakage.ReportOptions{
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
	}
	if !*quiet {
		var mu sync.Mutex
		opts.Progress = func(stage string, done, total int) {
			mu.Lock()
			fmt.Fprintf(os.Stderr, "%-32s %d/%d trials\n", stage, done, total)
			mu.Unlock()
		}
	}

	rep, err := leakage.RunReport(ctx, opts)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}

	if *jsonOut {
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		if err := enc.Encode(rep); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
	} else {
		fmt.Print(rep.Text())
		if n := len(rep.Leaks()); n > 0 {
			fmt.Printf("\n%d/%d cells leak under TVLA.\n", n, len(rep.Verdicts))
		} else {
			fmt.Printf("\nno cell leaks under TVLA.\n")
		}
	}
	if err := mflags.Finish(reg); err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
}

// runFleet submits the sweep to a coordinator and prints the merged result
// exactly as the local path would: the report decodes into the same Go
// structs (float64 JSON round-trips are exact), so tables, JSON and the leak
// summary are bit-identical to a local run.
func runFleet(ctx context.Context, baseURL string, req fleet.JobRequest, jsonOut, quiet bool) error {
	cl := &fleet.Client{BaseURL: baseURL}
	var progress func(fleet.ProgressEvent)
	if !quiet {
		progress = func(e fleet.ProgressEvent) {
			if e.Stage == "" || e.Stage == "start" || e.Stage == "finish" {
				return
			}
			fmt.Fprintf(os.Stderr, "%-32s %d/%d trials\n", e.Stage, e.Done, e.Total)
		}
	}
	raw, err := cl.SubmitAndWait(ctx, req, progress)
	if err != nil {
		return err
	}

	emit := func(v any) error {
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		return enc.Encode(v)
	}
	if req.Kind == "leaderboard" {
		var lb leakage.Leaderboard
		if err := json.Unmarshal(raw, &lb); err != nil {
			return fmt.Errorf("bad leaderboard result: %w", err)
		}
		if jsonOut {
			return emit(&lb)
		}
		fmt.Print(lb.Text())
		return nil
	}
	var rep leakage.Report
	if err := json.Unmarshal(raw, &rep); err != nil {
		return fmt.Errorf("bad report result: %w", err)
	}
	if jsonOut {
		return emit(&rep)
	}
	fmt.Print(rep.Text())
	if n := len(rep.Leaks()); n > 0 {
		fmt.Printf("\n%d/%d cells leak under TVLA.\n", n, len(rep.Verdicts))
	} else {
		fmt.Printf("\nno cell leaks under TVLA.\n")
	}
	return nil
}
