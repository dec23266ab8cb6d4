package fleet

import "secdir/internal/leakage"

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
// a sweep — the merge provenance Coordinator.Run hands back alongside the
// merged report, so callers (the server's run ledger) can record exactly
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

// cell is one (config, strategy) cell of a sweep's plan as the scheduler
// tracks it: its normalized options and the trial results accumulated so
// far.
type cell struct {
	opts    leakage.Options
	results []leakage.TrialResult
	done    int // trials completed, for progress reporting
	offset  int // progress offset of the cell within the sweep
}
