// Package server turns the SecDir simulator into a long-lived, multi-tenant
// service: an HTTP/JSON job server that queues simulation requests — paper
// experiments, attack scenarios, and trace replays — with bounded queueing
// and backpressure, executes them on a worker pool, and exposes job
// submit/status/result/cancel endpoints, streamed progress, and a metrics
// snapshot endpoint. It also owns the run-spec vocabulary the cmd tools
// share: workload spec strings (ParseWorkload) and the attack suite runner
// (RunAttackSuite).
package server

import (
	"fmt"
	"strconv"
	"strings"

	"secdir/internal/addr"
	"secdir/internal/config"
	"secdir/internal/experiments"
	"secdir/internal/leakage"
	"secdir/internal/trace"
)

// JobKind selects what a submitted job simulates.
type JobKind string

const (
	// KindExperiment reruns one or more of the paper's experiments
	// (experiments.Artifacts) and returns each one's table.
	KindExperiment JobKind = "experiment"
	// KindAttack mounts the §2.2/§9 attack suite (evict+reload, prime+probe,
	// evict+time, AES key recovery) against one or both directory designs.
	KindAttack JobKind = "attack"
	// KindReplay runs a single workload spec (mixN, a PARSEC name, aes,
	// uniform:N, stream:N, or file:path) on one directory design and reports
	// IPC and miss breakdowns.
	KindReplay JobKind = "replay"
	// KindLeak runs the internal/leakage Monte-Carlo lab: N seeded trials per
	// (config, strategy) cell and statistical LEAK/NO-LEAK verdicts (TVLA
	// Welch t, channel capacity, bootstrap-bounded AUC).
	KindLeak JobKind = "leak"
	// KindLeaderboard races the cross-defense roster through the leakage lab
	// and joins each defense's deterministic performance and cost columns.
	KindLeaderboard JobKind = "leaderboard"
)

// JobSpec is the JSON body of a job submission. Zero fields take defaults in
// Normalize; Kind is mandatory.
type JobSpec struct {
	// Kind selects the job type.
	Kind JobKind `json:"kind"`

	// Experiments (KindExperiment) lists experiment IDs; empty means all.
	Experiments []string `json:"experiments,omitempty"`

	// Warmup and Measure are per-core access counts for simulation-backed
	// jobs (defaults 20k/20k — server jobs favour latency over precision;
	// submit longer runs explicitly for paper-grade numbers).
	Warmup  uint64 `json:"warmup,omitempty"`
	Measure uint64 `json:"measure,omitempty"`
	// Cores is the machine size (default 8, power of two).
	Cores int `json:"cores,omitempty"`
	// Seed makes runs reproducible (default 1).
	Seed int64 `json:"seed,omitempty"`

	// Design (KindAttack, KindReplay) selects the directory: any name of
	// the design catalogue (config.Names), or — attack jobs only — "both",
	// baseline and secdir in turn (the default there; replay defaults to
	// "secdir").
	Design string `json:"design,omitempty"`

	// Rounds and EvictionLines (KindAttack) size the attack (defaults 40/32);
	// leak and leaderboard jobs take them per trial (defaults
	// leakage.DefaultRounds and each strategy's own set size).
	Rounds        int `json:"rounds,omitempty"`
	EvictionLines int `json:"eviction_lines,omitempty"`

	// Workload (KindReplay) is a ParseWorkload spec (default "mix0").
	Workload string `json:"workload,omitempty"`

	// Configs (KindLeak, KindLeaderboard) lists the design names to sweep;
	// empty means leakage.ConfigNames (skylake-unfixed, skylake-fixed,
	// secdir) for a leak job and leakage.LeaderboardNames for a leaderboard;
	// "all" means leakage.AllConfigNames.
	Configs []string `json:"configs,omitempty"`
	// Strategies (KindLeak, KindLeaderboard) lists the attacks to quantify;
	// empty means the default suite (every strategy but floodreload) for a
	// leak job and leakage.LeaderboardStrategies for a leaderboard.
	Strategies []string `json:"strategies,omitempty"`
	// Trials (KindLeak, KindLeaderboard) is the independent seeded trials
	// per cell (default leakage.DefaultTrials — server jobs favour latency;
	// submit more for paper-grade CIs).
	Trials int `json:"trials,omitempty"`
	// Workers (KindLeak, KindLeaderboard) bounds the in-process trial-runner
	// fan-out (0 = GOMAXPROCS).
	Workers int `json:"workers,omitempty"`

	// Confidence and Resamples (KindLeak, KindLeaderboard) shape the AUC
	// bootstrap (defaults 0.99 / 400; resamples is capped at
	// leakage.MaxResamples).
	Confidence float64 `json:"confidence,omitempty"`
	Resamples  int     `json:"resamples,omitempty"`
	// PerfAccesses (KindLeaderboard) sizes the deterministic latency probe
	// (default 100k).
	PerfAccesses int `json:"perf_accesses,omitempty"`

	// Fleet (KindLeak, KindLeaderboard) asks the server to run the sweep
	// across its worker fleet instead of in-process. Rejected unless the
	// server was started as a coordinator.
	Fleet bool `json:"fleet,omitempty"`
}

// Normalize applies defaults and validates the spec, returning a descriptive
// error for a submission the server must reject.
func (s *JobSpec) Normalize() error {
	if s.Warmup == 0 && s.Measure == 0 {
		s.Warmup, s.Measure = 20_000, 20_000
	}
	if s.Cores == 0 {
		s.Cores = 8
	}
	if s.Cores <= 0 || s.Cores&(s.Cores-1) != 0 {
		return fmt.Errorf("cores must be a positive power of two, got %d", s.Cores)
	}
	if s.Cores > config.MaxCores {
		return fmt.Errorf("cores must be at most %d, the width of the directory's sharer Bitset, got %d", config.MaxCores, s.Cores)
	}
	if s.Seed == 0 {
		s.Seed = 1
	}
	switch s.Kind {
	case KindExperiment:
		if len(s.Experiments) == 0 {
			s.Experiments = experiments.IDs()
		}
		for i, id := range s.Experiments {
			id = strings.ToUpper(strings.TrimSpace(id))
			if _, err := experiments.Lookup(id); err != nil {
				return err
			}
			s.Experiments[i] = id
		}
	case KindAttack:
		if s.Design == "" {
			s.Design = "both"
		}
		if s.Design != "both" {
			if _, err := config.ByName(s.Design, s.Cores); err != nil {
				return err
			}
		}
		if s.Rounds == 0 {
			s.Rounds = 40
		}
		if s.EvictionLines == 0 {
			s.EvictionLines = 32
		}
		if s.Rounds < 1 || s.EvictionLines < 1 {
			return fmt.Errorf("rounds and eviction_lines must be >= 1, got %d/%d", s.Rounds, s.EvictionLines)
		}
	case KindReplay:
		if s.Design == "" {
			s.Design = "secdir"
		}
		if _, err := config.ByName(s.Design, s.Cores); err != nil {
			return err
		}
		if s.Workload == "" {
			s.Workload = "mix0"
		}
	case KindLeak, KindLeaderboard:
		if s.Kind == KindLeaderboard && len(s.Configs) == 0 {
			s.Configs = append([]string(nil), leakage.LeaderboardNames...)
		}
		configs, err := leakage.ParseConfigList(strings.Join(s.Configs, ","), s.Cores)
		if err != nil {
			return err
		}
		s.Configs = configs
		stratSpec := strings.Join(s.Strategies, ",")
		if s.Kind == KindLeaderboard && stratSpec == "" {
			stratSpec = strings.Join(leakage.LeaderboardStrategies, ",")
		}
		strategies, err := leakage.ParseStrategyList(stratSpec)
		if err != nil {
			return err
		}
		s.Strategies = leakage.StrategyNames(strategies)
		if s.Trials == 0 {
			s.Trials = leakage.DefaultTrials
		}
		if s.Rounds == 0 {
			s.Rounds = leakage.DefaultRounds
		}
		if s.Trials < 2 || s.Rounds < 2 {
			return fmt.Errorf("leak jobs need trials and rounds >= 2, got %d/%d", s.Trials, s.Rounds)
		}
		if s.Workers < 0 || s.EvictionLines < 0 {
			return fmt.Errorf("workers and eviction_lines must be >= 0, got %d/%d", s.Workers, s.EvictionLines)
		}
		if s.Confidence < 0 || s.Confidence >= 1 {
			return fmt.Errorf("confidence must be in [0,1), got %v", s.Confidence)
		}
		if s.Resamples < 0 || s.PerfAccesses < 0 {
			return fmt.Errorf("resamples and perf_accesses must be >= 0, got %d/%d", s.Resamples, s.PerfAccesses)
		}
		if s.Resamples > leakage.MaxResamples {
			return fmt.Errorf("resamples must be <= %d, got %d", leakage.MaxResamples, s.Resamples)
		}
	default:
		return fmt.Errorf("unknown job kind %q (want experiment, attack, replay, leak, or leaderboard)", s.Kind)
	}
	if s.Fleet && s.Kind != KindLeak && s.Kind != KindLeaderboard {
		return fmt.Errorf("fleet execution is only available for leak and leaderboard jobs, not %q", s.Kind)
	}
	return nil
}

// reportOptions is the sweep a normalized leak or leaderboard spec
// describes; leakage.ReportOptions.Plan turns it into cells.
func (s *JobSpec) reportOptions() (leakage.ReportOptions, error) {
	strategies, err := leakage.ParseStrategyList(strings.Join(s.Strategies, ","))
	if err != nil {
		return leakage.ReportOptions{}, err
	}
	return leakage.ReportOptions{
		Configs:       s.Configs,
		Strategies:    strategies,
		Cores:         s.Cores,
		Trials:        s.Trials,
		Rounds:        s.Rounds,
		EvictionLines: s.EvictionLines,
		Workers:       s.Workers,
		Seed:          s.Seed,
		Confidence:    s.Confidence,
		Resamples:     s.Resamples,
	}, nil
}

// ParseWorkload builds a workload from its spec string — the shared
// vocabulary of the cmd tools and replay jobs:
//
//	mixN           one of the 12 Table 5 SPEC mixes
//	<parsec name>  a PARSEC application (trace.ParsecApps)
//	aes            the AES victim on core 0, idle elsewhere
//	uniform:N      per-core uniform random over N lines
//	stream:N       per-core streaming over N lines
//	file:PATH      a recorded .sdtr trace replayed on core 0
func ParseWorkload(spec string, cores int, seed int64) (trace.Workload, error) {
	switch {
	case strings.HasPrefix(spec, "mix"):
		i, err := strconv.Atoi(strings.TrimPrefix(spec, "mix"))
		if err != nil {
			return trace.Workload{}, fmt.Errorf("bad mix spec %q", spec)
		}
		return trace.NewSpecMix(i, cores, seed)
	case spec == "aes":
		gens := make([]trace.Generator, cores)
		var key [16]byte
		for i := range key {
			key[i] = byte(i)
		}
		gens[0] = trace.NewAESVictim(key, seed)
		for c := 1; c < cores; c++ {
			gens[c] = trace.NewIdle(addr.Line(uint64(c+1) << 30))
		}
		return trace.Workload{Name: "aes", Gens: gens}, nil
	case strings.HasPrefix(spec, "file:"):
		path := strings.TrimPrefix(spec, "file:")
		// The file is mapped read-only and validated up front; records decode
		// in place as the simulation consumes them. The mapping lives until
		// the workload is Closed.
		mt, err := trace.OpenMappedTrace(path)
		if err != nil {
			return trace.Workload{}, err
		}
		rep, err := mt.Replay()
		if err != nil {
			mt.Close()
			return trace.Workload{}, err
		}
		// The recorded stream drives core 0; other cores idle in private
		// regions so the machine shape matches the recording's.
		gens := make([]trace.Generator, cores)
		gens[0] = &fileReplay{Generator: rep, t: mt}
		for c := 1; c < cores; c++ {
			gens[c] = trace.NewIdle(addr.Line(uint64(c+1) << 30))
		}
		return trace.Workload{Name: spec, Gens: gens}, nil
	case strings.HasPrefix(spec, "uniform:"), strings.HasPrefix(spec, "stream:"):
		parts := strings.SplitN(spec, ":", 2)
		lines, err := strconv.Atoi(parts[1])
		if err != nil || lines <= 0 {
			return trace.Workload{}, fmt.Errorf("bad %s spec %q", parts[0], spec)
		}
		gens := make([]trace.Generator, cores)
		for c := 0; c < cores; c++ {
			base := addr.Line(uint64(c+1) << 24)
			if parts[0] == "uniform" {
				gens[c] = trace.NewUniform(base, lines, 0.25, 4, seed+int64(c))
			} else {
				gens[c] = trace.NewStream(base, lines, 0.25, 4, seed+int64(c))
			}
		}
		return trace.Workload{Name: spec, Gens: gens}, nil
	default:
		if _, ok := trace.ParsecApps[spec]; ok {
			return trace.NewParsecWorkload(spec, cores, seed)
		}
		return trace.Workload{}, fmt.Errorf("unknown workload %q (mixN, PARSEC name, aes, uniform:N, stream:N, file:PATH)", spec)
	}
}

// fileReplay couples the replay generator with the trace mapping it decodes
// from so Workload.Close releases the mapping.
type fileReplay struct {
	trace.Generator
	t *trace.MappedTrace
}

// Close implements the closer contract Workload.Close looks for.
func (r *fileReplay) Close() error { return r.t.Close() }
