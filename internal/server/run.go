package server

import (
	"context"
	"fmt"
	"strings"

	"secdir/internal/attack"
	"secdir/internal/coherence"
	"secdir/internal/config"
	"secdir/internal/experiments"
	"secdir/internal/leakage"
	"secdir/internal/metrics"
	"secdir/internal/sim"
	"secdir/internal/trace"
)

// ProgressFunc receives coarse progress while a job runs: the stage that just
// finished and how far through the job's total stage count the run is. It may
// be nil.
type ProgressFunc func(stage string, done, total int)

// AttackReport is the structured outcome of the §2.2/§9 attack suite against
// one directory design — the data the secdir-attack tool prints.
type AttackReport struct {
	// Design is the directory under attack ("baseline" or "secdir").
	Design string `json:"design"`
	// Rounds is the per-attack round count.
	Rounds int `json:"rounds"`

	// EvictReloadAccuracy is the attacker's classification accuracy
	// (0.50 = chance); VictimEvictions counts rounds where the Conflict
	// step evicted the victim's private copy.
	EvictReloadAccuracy float64 `json:"evict_reload_accuracy"`
	// VictimEvictions counts rounds in which the eviction set displaced the
	// victim's private copy.
	VictimEvictions int `json:"victim_evictions"`
	// PrimeProbeSignal is extra probe misses per round when the victim is
	// active.
	PrimeProbeSignal float64 `json:"prime_probe_signal"`
	// EvictTimeSignal is how many cycles slower the victim runs when its
	// operation touches the target.
	EvictTimeSignal float64 `json:"evict_time_signal"`

	// KeyNibblesRecovered / KeyNibblesTotal summarise the AES key-recovery
	// stage; Encryptions is how many encryptions the attacker observed.
	KeyNibblesRecovered int `json:"key_nibbles_recovered"`
	// KeyNibblesTotal is the number of high key nibbles under attack.
	KeyNibblesTotal int `json:"key_nibbles_total"`
	// Encryptions performed by the victim during key recovery.
	Encryptions int `json:"encryptions"`

	// InclusionVictims is the ground truth: private-cache lines the victim
	// lost to shared-structure conflicts during evict+reload and
	// prime+probe (zero on SecDir).
	InclusionVictims uint64 `json:"inclusion_victims"`
}

// RunAttackSuite mounts the full attack suite — evict+reload, prime+probe,
// evict+time, AES key recovery — against one directory configuration,
// checking ctx between stages (each stage is a bounded number of rounds, so
// cancellation latency is one stage). Engines register their instruments in
// reg (which may be nil); progress (which may be nil) is called after each of
// the four stages with done counts offset..offset+3 of total.
func RunAttackSuite(ctx context.Context, cfg config.Config, reg *metrics.Registry, rounds, evictionLines int, progress ProgressFunc, offset, total int) (AttackReport, error) {
	report := AttackReport{Rounds: rounds}
	switch cfg.Kind {
	case config.SecDir:
		report.Design = "secdir"
	default:
		report.Design = "baseline"
	}
	step := func(stage string, n int) {
		if progress != nil {
			progress(stage, offset+n, total)
		}
	}

	target := trace.T0Lines()[0] // a line of the AES T0 table
	attackers := make([]int, 0, cfg.Cores-1)
	for c := 1; c < cfg.Cores; c++ {
		attackers = append(attackers, c)
	}

	if err := ctx.Err(); err != nil {
		return report, err
	}
	e, err := coherence.NewEngine(cfg)
	if err != nil {
		return report, err
	}
	e.AttachMetrics(reg)
	er, err := attack.EvictReload(e, 0, attackers, target, rounds, evictionLines)
	if err != nil {
		return report, err
	}
	report.EvictReloadAccuracy = er.Accuracy()
	report.VictimEvictions = er.VictimEvictions
	step(report.Design+"/evict+reload", 1)

	if err := ctx.Err(); err != nil {
		return report, err
	}
	e2, err := coherence.NewEngine(cfg)
	if err != nil {
		return report, err
	}
	e2.AttachMetrics(reg)
	pp, err := attack.PrimeProbe(e2, 0, attackers, target, rounds, evictionLines)
	if err != nil {
		return report, err
	}
	report.PrimeProbeSignal = pp.Signal()
	step(report.Design+"/prime+probe", 2)

	if err := ctx.Err(); err != nil {
		return report, err
	}
	e3, err := coherence.NewEngine(cfg)
	if err != nil {
		return report, err
	}
	e3.AttachMetrics(reg)
	et, err := attack.EvictTime(e3, 0, attackers, target, rounds, evictionLines)
	if err != nil {
		return report, err
	}
	report.EvictTimeSignal = et.Signal()
	step(report.Design+"/evict+time", 3)

	if err := ctx.Err(); err != nil {
		return report, err
	}
	e4, err := coherence.NewEngine(cfg)
	if err != nil {
		return report, err
	}
	e4.AttachMetrics(reg)
	key := [16]byte{0x2b, 0x7e, 0x15, 0x16, 0x28, 0xae, 0xd2, 0xa6,
		0xab, 0xf7, 0x15, 0x88, 0x09, 0xcf, 0x4f, 0x3c}
	kr, err := attack.RecoverAESKey(e4, 0, attackers, key, 48)
	if err != nil {
		return report, err
	}
	report.KeyNibblesRecovered = kr.CorrectNibbles()
	report.KeyNibblesTotal = len(kr.TrueNibbles)
	report.Encryptions = kr.Encryptions
	report.InclusionVictims = e.Stats().Core[0].ConflictInvalidations +
		e2.Stats().Core[0].ConflictInvalidations
	step(report.Design+"/key-recovery", 4)
	return report, nil
}

// ReplayResult is the outcome of a replay job: one workload on one design.
type ReplayResult struct {
	// Design and Workload echo the spec.
	Design string `json:"design"`
	// Workload is the spec string that was replayed.
	Workload string `json:"workload"`
	// TotalIPC is the sum of per-core IPCs.
	TotalIPC float64 `json:"total_ipc"`
	// MaxCycles is the execution time of the multithreaded run.
	MaxCycles uint64 `json:"max_cycles"`
	// EDTDHits, VDHits and MemAccesses break L2 misses down by where they
	// were served.
	EDTDHits uint64 `json:"edtd_hits"`
	// VDHits counts L2 misses served by the Victim Directory.
	VDHits uint64 `json:"vd_hits"`
	// MemAccesses counts L2 misses served by main memory.
	MemAccesses uint64 `json:"mem_accesses"`
	// InclusionVictims counts private-cache lines lost to shared-structure
	// conflicts.
	InclusionVictims uint64 `json:"inclusion_victims"`
}

// replayConfig maps a replay design name to its configuration.
func replayConfig(design string, cores int, seed int64) (config.Config, error) {
	var cfg config.Config
	switch design {
	case "baseline":
		cfg = config.SkylakeX(cores)
	case "secdir":
		cfg = config.SecDirConfig(cores)
	case "waypart":
		cfg = config.WayPartitionedConfig(cores)
	case "randmap":
		cfg = config.RandMappedConfig(cores, 200_000)
	case "skewed":
		cfg = config.SkewedConfig(cores)
	case "dls":
		cfg = config.DLSConfig(cores)
	case "tagpart":
		cfg = config.TagPartConfig(cores)
	case "ceaser":
		cfg = config.CeaserConfig(cores, 200_000)
	default:
		return cfg, fmt.Errorf("unknown design %q", design)
	}
	cfg.Seed = seed
	return cfg, nil
}

// ExperimentResult pairs one experiment ID with its typed rows; the concrete
// row type depends on the experiment (see package experiments).
type ExperimentResult struct {
	// ID is the experiment identifier (A1..ALT).
	ID string `json:"id"`
	// Rows is the experiment's output, JSON-encoded per its row type.
	Rows any `json:"rows"`
}

// Run executes a normalized spec under ctx, registering engine instruments in
// reg (which may be nil) and reporting coarse progress (progress may be nil).
// The result is JSON-serialisable: []ExperimentResult, []AttackReport, or
// ReplayResult.
func Run(ctx context.Context, spec JobSpec, reg *metrics.Registry, progress ProgressFunc) (any, error) {
	switch spec.Kind {
	case KindExperiment:
		return runExperiments(ctx, spec, reg, progress)
	case KindAttack:
		return runAttack(ctx, spec, reg, progress)
	case KindReplay:
		return runReplay(ctx, spec, reg, progress)
	case KindLeak:
		return runLeak(ctx, spec, reg, progress)
	case KindLeaderboard:
		return runLeaderboard(ctx, spec, reg, progress)
	default:
		return nil, fmt.Errorf("unknown job kind %q", spec.Kind)
	}
}

// runLeak executes the Monte-Carlo leakage lab over the spec's
// configs×strategies grid. Progress events count completed trials across the
// whole grid, staged per cell ("secdir/primeprobe"), so the NDJSON stream
// shows trial-level advancement.
func runLeak(ctx context.Context, spec JobSpec, reg *metrics.Registry, progress ProgressFunc) (any, error) {
	strategies, err := leakage.ParseStrategyList(strings.Join(spec.Strategies, ","))
	if err != nil {
		return nil, err
	}
	o := leakage.ReportOptions{
		Configs:       spec.Configs,
		Strategies:    strategies,
		Cores:         spec.Cores,
		Trials:        spec.Trials,
		Rounds:        spec.Rounds,
		EvictionLines: spec.EvictionLines,
		Workers:       spec.Workers,
		Seed:          spec.Seed,
		Confidence:    spec.Confidence,
		Resamples:     spec.Resamples,
		Metrics:       reg,
	}
	o.Progress = gridProgress(spec.Configs, leakage.StrategyNames(strategies), spec.Trials, progress)
	return leakage.RunReport(ctx, o)
}

// runLeaderboard races the cross-defense roster in-process, with the same
// staged trial-level progress convention as leak jobs.
func runLeaderboard(ctx context.Context, spec JobSpec, reg *metrics.Registry, progress ProgressFunc) (any, error) {
	strategies, err := leakage.ParseStrategyList(strings.Join(spec.Strategies, ","))
	if err != nil {
		return nil, err
	}
	o := leakage.LeaderboardOptions{
		Configs:       spec.Configs,
		Strategies:    strategies,
		Cores:         spec.Cores,
		Trials:        spec.Trials,
		Rounds:        spec.Rounds,
		EvictionLines: spec.EvictionLines,
		Workers:       spec.Workers,
		Seed:          spec.Seed,
		PerfAccesses:  spec.PerfAccesses,
		Metrics:       reg,
	}
	o.Progress = gridProgress(spec.Configs, leakage.StrategyNames(strategies), spec.Trials, progress)
	return leakage.RunLeaderboard(ctx, o)
}

// gridProgress adapts a job ProgressFunc to the leakage sweeps' per-cell
// convention: grid cells run in configs×strategies order, so each cell's
// trial counts are offset to make Done climb monotonically over the whole
// job. Returns nil when progress is nil.
func gridProgress(configs, strategies []string, trials int, progress ProgressFunc) func(stage string, done, total int) {
	if progress == nil {
		return nil
	}
	offsets := make(map[string]int, len(configs)*len(strategies))
	for i, cfg := range configs {
		for j, s := range strategies {
			offsets[cfg+"/"+s] = (i*len(strategies) + j) * trials
		}
	}
	total := len(offsets) * trials
	return func(stage string, done, _ int) {
		progress(stage, offsets[stage]+done, total)
	}
}

// runExperiments dispatches the requested experiment IDs.
func runExperiments(ctx context.Context, spec JobSpec, reg *metrics.Registry, progress ProgressFunc) (any, error) {
	o := experiments.RunOpts{
		Warmup:  spec.Warmup,
		Measure: spec.Measure,
		Cores:   spec.Cores,
		Seed:    spec.Seed,
		Metrics: reg,
	}
	out := make([]ExperimentResult, 0, len(spec.Experiments))
	total := len(spec.Experiments)
	for i, id := range spec.Experiments {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		var rows any
		var err error
		switch id {
		case "A1":
			rows = experiments.AssociativityAnalysis()
		case "F5":
			rows = experiments.Fig5VDSizing()
		case "F6":
			rows, err = experiments.Fig6AESTrace(ctx, o)
		case "F7":
			rows, err = experiments.Fig7SPECMixes(ctx, o)
		case "F8":
			rows, err = experiments.Fig8PARSEC(ctx, o)
		case "T6":
			var s, p []experiments.T6Row
			if s, err = experiments.Table6SPEC(ctx, o); err == nil {
				if p, err = experiments.Table6PARSEC(ctx, o); err == nil {
					rows = append(s, p...)
				}
			}
		case "T7":
			rows = experiments.Table7StorageArea(spec.Cores)
		case "S1":
			rows, err = experiments.SecurityAttack(ctx, o)
		case "SC":
			rows, err = experiments.Scaling(ctx, o, 64)
		case "ALT":
			rows, err = experiments.Alternatives(ctx, o)
		default:
			err = fmt.Errorf("unknown experiment %q", id)
		}
		if err != nil {
			return nil, fmt.Errorf("experiment %s: %w", id, err)
		}
		out = append(out, ExperimentResult{ID: id, Rows: rows})
		if progress != nil {
			progress(id, i+1, total)
		}
	}
	return out, nil
}

// runAttack mounts the attack suite against the requested design(s).
func runAttack(ctx context.Context, spec JobSpec, reg *metrics.Registry, progress ProgressFunc) (any, error) {
	var cfgs []config.Config
	switch spec.Design {
	case "baseline":
		cfgs = []config.Config{config.SkylakeX(spec.Cores)}
	case "secdir":
		cfgs = []config.Config{config.SecDirConfig(spec.Cores)}
	default: // "both" — Normalize guarantees the set
		cfgs = []config.Config{config.SkylakeX(spec.Cores), config.SecDirConfig(spec.Cores)}
	}
	const stagesPerDesign = 4
	total := stagesPerDesign * len(cfgs)
	reports := make([]AttackReport, 0, len(cfgs))
	for i, cfg := range cfgs {
		cfg.Seed = spec.Seed
		rep, err := RunAttackSuite(ctx, cfg, reg, spec.Rounds, spec.EvictionLines,
			progress, i*stagesPerDesign, total)
		if err != nil {
			return nil, err
		}
		reports = append(reports, rep)
	}
	return reports, nil
}

// runReplay runs one workload on one design.
func runReplay(ctx context.Context, spec JobSpec, reg *metrics.Registry, progress ProgressFunc) (any, error) {
	cfg, err := replayConfig(spec.Design, spec.Cores, spec.Seed)
	if err != nil {
		return nil, err
	}
	w, err := ParseWorkload(spec.Workload, spec.Cores, spec.Seed)
	if err != nil {
		return nil, err
	}
	defer w.Close()
	r, err := sim.New(sim.Options{
		Config:          cfg,
		Work:            w,
		WarmupAccesses:  spec.Warmup,
		MeasureAccesses: spec.Measure,
		Metrics:         reg,
	})
	if err != nil {
		return nil, err
	}
	res, err := r.RunContext(ctx)
	if err != nil {
		return nil, err
	}
	// A file-backed replay can only report a truncated trace once the run
	// has consumed it; fail the job rather than return numbers computed
	// from a partial loop.
	if err := w.Close(); err != nil {
		return nil, err
	}
	e, v, m := res.L2MissBreakdown()
	out := ReplayResult{
		Design:      spec.Design,
		Workload:    spec.Workload,
		TotalIPC:    res.TotalIPC(),
		MaxCycles:   res.MaxCycles,
		EDTDHits:    e,
		VDHits:      v,
		MemAccesses: m,
	}
	for _, c := range res.PerCore {
		out.InclusionVictims += c.Stats.ConflictInvalidations
	}
	if progress != nil {
		progress("replay", 1, 1)
	}
	return out, nil
}
