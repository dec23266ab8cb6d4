package fleet

import (
	"fmt"

	"secdir/internal/leakage"
)

// SweepKind selects what a fleet sweep produces.
type SweepKind string

const (
	// SweepLeak merges into a leakage.Report (the configs×strategies grid).
	SweepLeak SweepKind = "leak"
	// SweepLeaderboard merges into a leakage.Leaderboard (verdicts joined
	// with the coordinator-computed performance and cost columns).
	SweepLeaderboard SweepKind = "leaderboard"
)

// SweepSpec describes one distributed sweep — the fleet-facing mirror of the
// server's leak/leaderboard JobSpec. Zero fields default exactly as their
// single-process counterparts (leakage.RunReport / leakage.RunLeaderboard)
// do, so a fleet run of an unmodified spec reproduces the local result
// bit-for-bit.
type SweepSpec struct {
	// Kind selects the merge shape (default SweepLeak).
	Kind SweepKind
	// Configs are the configuration names to sweep (defaults: the report's
	// canonical trio, or the leaderboard roster).
	Configs []string
	// Strategies are the attack names (defaults: the report's default
	// suite, or the leaderboard pair).
	Strategies []string
	// Cores is the simulated machine size (default 8).
	Cores int
	// Trials, Rounds, EvictionLines and Seed are forwarded to every cell's
	// Options (zero means that field's leakage default).
	Trials        int
	Rounds        int
	EvictionLines int
	Seed          int64
	// Confidence and Resamples shape the AUC bootstrap of leak sweeps
	// (leaderboard sweeps always use the leakage defaults, as
	// RunLeaderboard does).
	Confidence float64
	Resamples  int
	// PerfAccesses sizes the leaderboard's deterministic latency probe
	// (default 100k).
	PerfAccesses int
}

// ShardRequest is the body of POST /fleet/shard: one contiguous trial range
// of one (config, strategy) cell. Every sampling parameter arrives
// normalized by the coordinator, so worker-side defaulting cannot diverge
// from the merge's.
type ShardRequest struct {
	// Config names the configuration under test (leakage.ParseConfig).
	Config string `json:"config"`
	// Strategy names the attack (leakage.ParseStrategy).
	Strategy string `json:"strategy"`
	// Cores is the simulated machine size.
	Cores int `json:"cores"`
	// Trials is the cell's TOTAL trial count — the seeding space — not this
	// shard's share of it.
	Trials int `json:"trials"`
	// Rounds is the attack rounds per trial.
	Rounds int `json:"rounds"`
	// EvictionLines overrides the strategy's conflict-set size (0 = default).
	EvictionLines int `json:"eviction_lines,omitempty"`
	// Seed is the cell's master seed.
	Seed int64 `json:"seed"`
	// Start and Count delimit this shard's trial index range
	// [Start, Start+Count).
	Start int `json:"start"`
	// Count is the number of trials in the shard.
	Count int `json:"count"`
	// Workers bounds the executing worker's local trial fan-out
	// (0 = its GOMAXPROCS).
	Workers int `json:"workers,omitempty"`
}

// Options builds the leakage Options the request describes, normalized.
func (r ShardRequest) Options() (leakage.Options, error) {
	cfg, err := leakage.ParseConfig(r.Config, r.Cores)
	if err != nil {
		return leakage.Options{}, err
	}
	strat, err := leakage.ParseStrategy(r.Strategy)
	if err != nil {
		return leakage.Options{}, err
	}
	return leakage.Options{
		Config:        cfg,
		ConfigName:    r.Config,
		Strategy:      strat,
		Trials:        r.Trials,
		Rounds:        r.Rounds,
		EvictionLines: r.EvictionLines,
		Workers:       r.Workers,
		Seed:          r.Seed,
	}.Normalized(), nil
}

// ShardLine is one NDJSON line of a shard response stream: a trial result,
// a fatal error, or the terminal EOF marker whose Count lets the coordinator
// detect a truncated stream (a worker killed mid-shard).
type ShardLine struct {
	// Trial is one completed trial, in completion order.
	Trial *leakage.TrialResult `json:"trial,omitempty"`
	// Err aborts the stream with a worker-side failure.
	Err string `json:"error,omitempty"`
	// EOF marks a complete stream; Count must equal the trials streamed.
	EOF bool `json:"eof,omitempty"`
	// Count is the number of trial lines that preceded the EOF marker.
	Count int `json:"count,omitempty"`
}

// ShardProvenance records which worker's result was accepted for one shard of
// a sweep — the merge provenance RunLeak/RunLeaderboard hand back alongside
// the merged result, so callers (the server's run ledger) can record exactly
// how a distributed result was assembled and by whom.
type ShardProvenance struct {
	// Cell is the shard's (config, strategy) stage label, "config/strategy".
	Cell string `json:"cell"`
	// Start and Count delimit the shard's trial index range
	// [Start, Start+Count) within the cell.
	Start int `json:"start"`
	// Count is the number of trials the shard carried.
	Count int `json:"count"`
	// Worker is the URL of the worker whose result won (steal-race losers are
	// discarded and never appear here).
	Worker string `json:"worker"`
	// Attempts counts the dispatches charged against the shard's attempt
	// budget before it completed (retries after genuine failures; steal
	// duplicates and reaper requeues are refunded).
	Attempts int `json:"attempts"`
	// Millis is the accepted dispatch's wall-clock duration.
	Millis int64 `json:"millis"`
}

// cell is one (config, strategy) grid cell of a sweep: its normalized
// options, its shard plan, and the trial results accumulated by the
// scheduler.
type cell struct {
	name     string
	strategy string
	opts     leakage.Options // normalized; Strategy and Config resolved
	results  []leakage.TrialResult
	done     int // trials completed, for progress reporting
	offset   int // progress offset of the cell within the sweep
}

// planCells expands a sweep spec into its cells in row-major
// (config, strategy) order — the exact order RunReport and RunLeaderboard
// emit verdicts in — with every cell's Options normalized from one shared
// base so the merge parameters match a single-process run.
func planCells(spec SweepSpec) ([]*cell, leakage.Options, error) {
	configs := spec.Configs
	strategies := spec.Strategies
	if spec.Kind == SweepLeaderboard {
		if len(configs) == 0 {
			configs = append([]string(nil), leakage.LeaderboardNames...)
		}
		if len(strategies) == 0 {
			strategies = append([]string(nil), leakage.LeaderboardStrategies...)
		}
	} else {
		if len(configs) == 0 {
			configs = append([]string(nil), leakage.ConfigNames...)
		}
		if len(strategies) == 0 {
			strategies = leakage.StrategyNames(leakage.DefaultSuite())
		}
	}
	cores := spec.Cores
	if cores <= 0 {
		cores = 8
	}

	base := leakage.Options{
		Trials:        spec.Trials,
		Rounds:        spec.Rounds,
		EvictionLines: spec.EvictionLines,
		Seed:          spec.Seed,
	}
	if spec.Kind != SweepLeaderboard {
		// RunLeaderboard's verdicts always use the default bootstrap
		// parameters; leak reports honor the caller's.
		base.Confidence = spec.Confidence
		base.Resamples = spec.Resamples
	}
	base = base.Normalized()

	var cells []*cell
	offset := 0
	for _, name := range configs {
		cfg, err := leakage.ParseConfig(name, cores)
		if err != nil {
			return nil, base, err
		}
		for _, sname := range strategies {
			strat, err := leakage.ParseStrategy(sname)
			if err != nil {
				return nil, base, err
			}
			opts := base
			opts.Config = cfg
			opts.ConfigName = name
			opts.Strategy = strat
			cells = append(cells, &cell{
				name:     name,
				strategy: sname,
				opts:     opts,
				results:  make([]leakage.TrialResult, 0, opts.Trials),
				offset:   offset,
			})
			offset += opts.Trials
		}
	}
	if len(cells) == 0 {
		return nil, base, fmt.Errorf("fleet: sweep has no (config, strategy) cells")
	}
	return cells, base, nil
}

// stageLabel is the progress stage name of a cell, matching the local job
// runner's "config/strategy" convention.
func (c *cell) stageLabel() string { return c.name + "/" + c.strategy }
