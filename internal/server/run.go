package server

import (
	"context"
	"fmt"

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
	// Design names the directory under attack (a config.Names entry).
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
// labelled design in the report and the progress stages, checking ctx
// between stages (each stage is a bounded number of rounds, so cancellation
// latency is one stage). Engines register their instruments in reg (which
// may be nil); progress (which may be nil) is called after each of the four
// stages with done counts offset..offset+3 of total.
func RunAttackSuite(ctx context.Context, design string, cfg config.Config, reg *metrics.Registry, rounds, evictionLines int, progress ProgressFunc, offset, total int) (AttackReport, error) {
	report := AttackReport{Design: design, Rounds: rounds}
	target := trace.T0Lines()[0] // a line of the AES T0 table
	attackers := make([]int, 0, cfg.Cores-1)
	for c := 1; c < cfg.Cores; c++ {
		attackers = append(attackers, c)
	}
	// victims reads the ground truth off an evict+reload or prime+probe
	// engine: the victim's private lines lost to directory conflicts.
	victims := func(e *coherence.Engine) uint64 { return e.Stats().Core[0].ConflictInvalidations }

	// Each stage attacks a machine freshly reset from the idle pool.
	stages := []struct {
		name string
		run  func(e *coherence.Engine) error
	}{
		{"evict+reload", func(e *coherence.Engine) error {
			er, err := attack.EvictReload(e, 0, attackers, target, rounds, evictionLines)
			if err == nil {
				report.EvictReloadAccuracy = er.Accuracy()
				report.VictimEvictions = er.VictimEvictions
				report.InclusionVictims += victims(e)
			}
			return err
		}},
		{"prime+probe", func(e *coherence.Engine) error {
			pp, err := attack.PrimeProbe(e, 0, attackers, target, rounds, evictionLines)
			if err == nil {
				report.PrimeProbeSignal = pp.Signal()
				report.InclusionVictims += victims(e)
			}
			return err
		}},
		{"evict+time", func(e *coherence.Engine) error {
			et, err := attack.EvictTime(e, 0, attackers, target, rounds, evictionLines)
			if err == nil {
				report.EvictTimeSignal = et.Signal()
			}
			return err
		}},
		{"key-recovery", func(e *coherence.Engine) error {
			key := [16]byte{0x2b, 0x7e, 0x15, 0x16, 0x28, 0xae, 0xd2, 0xa6,
				0xab, 0xf7, 0x15, 0x88, 0x09, 0xcf, 0x4f, 0x3c}
			kr, err := attack.RecoverAESKey(e, 0, attackers, key, 48)
			if err == nil {
				report.KeyNibblesRecovered = kr.CorrectNibbles()
				report.KeyNibblesTotal = len(kr.TrueNibbles)
				report.Encryptions = kr.Encryptions
			}
			return err
		}},
	}
	for i, st := range stages {
		if err := ctx.Err(); err != nil {
			return report, err
		}
		e, err := coherence.Acquire(cfg)
		if err != nil {
			return report, err
		}
		e.AttachMetrics(reg)
		err = st.run(e)
		coherence.Release(e)
		if err != nil {
			return report, err
		}
		if progress != nil {
			progress(design+"/"+st.name, offset+i+1, total)
		}
	}
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

// ExperimentResult is one experiment's table, exactly as experiments.Table
// builds it: golden.Encode(Header, Rows) is byte-identical to the CSV that
// secdir-experiments -csv writes and data/ pins.
type ExperimentResult struct {
	// ID is the experiment identifier (see experiments.Artifacts).
	ID string `json:"id"`
	// Header names the table's columns.
	Header []string `json:"header"`
	// Rows holds the table's cells, one slice per row, as strings.
	Rows [][]string `json:"rows"`
}

// Run executes a normalized spec under ctx, registering engine instruments in
// reg (which may be nil) and reporting coarse progress (progress may be nil).
// The result is JSON-serialisable: []ExperimentResult, []AttackReport,
// ReplayResult, *leakage.Report or *leakage.Leaderboard.
func Run(ctx context.Context, spec JobSpec, reg *metrics.Registry, progress ProgressFunc) (any, error) {
	switch spec.Kind {
	case KindExperiment:
		return runExperiments(ctx, spec, reg, progress)
	case KindAttack:
		return runAttack(ctx, spec, reg, progress)
	case KindReplay:
		return runReplay(ctx, spec, reg, progress)
	case KindLeak, KindLeaderboard:
		return runSweep(ctx, spec, reg, progress, leakage.RunReport)
	default:
		return nil, fmt.Errorf("unknown job kind %q", spec.Kind)
	}
}

// runSweep runs a leak or leaderboard job: the spec's configs×strategies
// grid, executed by sweep (leakage.RunReport in-process, or a fleet
// coordinator's Run), with trial-level progress staged per cell
// ("secdir/primeprobe") and counted over the whole grid. A leaderboard job
// then joins each defense's performance and cost columns to the report.
func runSweep(ctx context.Context, spec JobSpec, reg *metrics.Registry, progress ProgressFunc,
	sweep func(context.Context, leakage.ReportOptions) (*leakage.Report, error)) (any, error) {
	o, err := spec.reportOptions()
	if err != nil {
		return nil, err
	}
	o.Metrics, o.Progress = reg, progress
	rep, err := sweep(ctx, o)
	if err != nil {
		return nil, err
	}
	if spec.Kind == KindLeaderboard {
		return leakage.NewLeaderboard(rep, spec.Cores, spec.PerfAccesses)
	}
	return rep, nil
}

// runExperiments builds the table of each requested experiment.
func runExperiments(ctx context.Context, spec JobSpec, reg *metrics.Registry, progress ProgressFunc) (any, error) {
	o := experiments.RunOpts{
		Warmup:  spec.Warmup,
		Measure: spec.Measure,
		Cores:   spec.Cores,
		Seed:    spec.Seed,
		Metrics: reg,
	}
	out := make([]ExperimentResult, 0, len(spec.Experiments))
	for i, id := range spec.Experiments {
		head, rows, err := experiments.Table(ctx, id, o)
		if err != nil {
			return nil, fmt.Errorf("experiment %s: %w", id, err)
		}
		out = append(out, ExperimentResult{ID: id, Header: head, Rows: rows})
		if progress != nil {
			progress(id, i+1, len(spec.Experiments))
		}
	}
	return out, nil
}

// runAttack mounts the attack suite against the requested design(s).
func runAttack(ctx context.Context, spec JobSpec, reg *metrics.Registry, progress ProgressFunc) (any, error) {
	designs := []string{spec.Design}
	if spec.Design == "both" {
		designs = []string{"baseline", "secdir"}
	}
	const stagesPerDesign = 4
	total := stagesPerDesign * len(designs)
	reports := make([]AttackReport, 0, len(designs))
	for i, design := range designs {
		cfg, err := config.ByName(design, spec.Cores)
		if err != nil {
			return nil, err
		}
		cfg.Seed = spec.Seed
		rep, err := RunAttackSuite(ctx, design, cfg, reg, spec.Rounds, spec.EvictionLines,
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
	cfg, err := config.ByName(spec.Design, spec.Cores)
	if err != nil {
		return nil, err
	}
	cfg.Seed = spec.Seed
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
	r.Close()
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
