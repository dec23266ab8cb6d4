// Package experiments regenerates every table and figure of the SecDir
// paper's evaluation (§7, §9, §10): each exported function is one experiment
// and returns typed rows (the repository benchmarks call them directly), and
// Table renders any experiment, by its ID in Artifacts, as the header and
// string rows that cmd/secdir-experiments prints, the job server returns and
// data/ pins. See DESIGN.md for the experiment index and EXPERIMENTS.md for
// paper-vs-measured results.
package experiments

import (
	"context"
	"fmt"
	"runtime"
	"sync"

	"secdir/internal/addr"
	"secdir/internal/area"
	"secdir/internal/attack"
	"secdir/internal/coherence"
	"secdir/internal/config"
	"secdir/internal/metrics"
	"secdir/internal/sim"
	"secdir/internal/trace"
)

// RunOpts sets the simulation lengths used by the simulation-backed
// experiments (F6, F7, F8, T6, S1).
type RunOpts struct {
	// Warmup and Measure are per-core access counts.
	Warmup, Measure uint64
	// Cores is the machine size (the paper evaluates 8).
	Cores int
	// Seed makes runs reproducible.
	Seed int64
	// Metrics, when non-nil, is attached to every engine the experiments
	// build; counters aggregate across runs (get-or-create naming). The
	// registry is goroutine-safe, so parallel experiment fan-out works with
	// metrics enabled.
	Metrics *metrics.Registry
	// Workers bounds the experiment fan-out; 0 uses GOMAXPROCS, 1 forces
	// serial execution. Each simulation is fully independent (separate
	// engines, separate seeded generators), so the parallelism level does not
	// change any experiment's rows.
	Workers int
}

// DefaultRunOpts returns the lengths used for the published numbers in
// EXPERIMENTS.md.
func DefaultRunOpts() RunOpts {
	return RunOpts{Warmup: 150_000, Measure: 150_000, Cores: 8, Seed: 1}
}

// QuickRunOpts returns short runs for tests.
func QuickRunOpts() RunOpts {
	return RunOpts{Warmup: 20_000, Measure: 20_000, Cores: 8, Seed: 1}
}

func (o RunOpts) configs() (base, sec config.Config) {
	base = config.SkylakeX(o.Cores)
	base.Seed = o.Seed
	sec = config.SecDirConfig(o.Cores)
	sec.Seed = o.Seed
	return base, sec
}

// run simulates one workload on one configuration, honouring ctx
// cancellation.
func run(ctx context.Context, cfg config.Config, w trace.Workload, o RunOpts, obs sim.Observer) (sim.Result, *sim.Runner, error) {
	r, err := sim.New(sim.Options{
		Config:          cfg,
		Work:            w,
		WarmupAccesses:  o.Warmup,
		MeasureAccesses: o.Measure,
		Observer:        obs,
		Metrics:         o.Metrics,
	})
	if err != nil {
		return sim.Result{}, nil, err
	}
	res, err := r.RunContext(ctx)
	if err != nil {
		return sim.Result{}, nil, err
	}
	return res, r, nil
}

// ---------------------------------------------------------------------------
// A1 — §2.3: required directory associativity vs. what a slice provides.

// A1Row compares the associativity a victim needs against what the Skylake-X
// directory slice provides (W_TD + W_ED = 23).
type A1Row struct {
	Cores    int
	Required int // W_L2 × (N−1) + W_LLC
	Provided int
}

// AssociativityAnalysis regenerates the §2.3 analysis for 4..128 cores.
func AssociativityAnalysis() []A1Row {
	var rows []A1Row
	for n := 4; n <= 128; n *= 2 {
		rows = append(rows, A1Row{
			Cores:    n,
			Required: area.RequiredAssociativity(n),
			Provided: area.TDWays + area.EDWaysBase,
		})
	}
	return rows
}

// ---------------------------------------------------------------------------
// F5 — Figure 5: per-core VD entries / L2 lines for equal-storage designs.

// F5Row is one core-count column of Figure 5.
type F5Row struct {
	Cores  int
	Ratios map[int]float64 // W_ED -> ratio
	Detail map[int]area.Sizing
}

// Fig5VDSizing regenerates Figure 5: the ratio of machine-wide per-core VD
// entries to L2 lines, for W_ED in 6..10 and core counts 4..128, holding
// total directory storage equal to the Skylake-X baseline.
func Fig5VDSizing() []F5Row {
	var rows []F5Row
	for n := 4; n <= 128; n *= 2 {
		row := F5Row{Cores: n, Ratios: map[int]float64{}, Detail: map[int]area.Sizing{}}
		for wED := 6; wED <= 10; wED++ {
			s := area.SizeVD(n, wED)
			row.Ratios[wED] = s.Ratio
			row.Detail[wED] = s
		}
		rows = append(rows, row)
	}
	return rows
}

// ---------------------------------------------------------------------------
// T7 — Table 7: per-slice storage and area.

// T7Row is one structure's storage and area in one design.
type T7Row struct {
	Design    string // "baseline" or "secdir"
	Structure string // TD, ED, VD, Total
	KB        float64
	MM2       float64
}

// Table7StorageArea regenerates Table 7 for the 8-core design point.
func Table7StorageArea(cores int) []T7Row {
	base := area.SkylakeSlice(cores)
	sec := area.SecDirSlice(cores, 8)
	vdSets, vdWays := area.FullVDBank(cores)
	_ = vdSets
	_ = vdWays
	rows := []T7Row{
		{"baseline", "TD", area.KB(base.TD), area.AreaMM2(area.KB(base.TD), 1)},
		{"baseline", "ED", area.KB(base.ED), area.AreaMM2(area.KB(base.ED), 1)},
		{"baseline", "Total", area.KB(base.Total()), area.AreaMM2(area.KB(base.TD), 1) + area.AreaMM2(area.KB(base.ED), 1)},
		{"secdir", "TD", area.KB(sec.TD), area.AreaMM2(area.KB(sec.TD), 1)},
		{"secdir", "ED", area.KB(sec.ED), area.AreaMM2(area.KB(sec.ED), 1)},
		{"secdir", "VD", area.KB(sec.VD), area.AreaMM2(area.KB(sec.VD), cores)},
		{"secdir", "Total", area.KB(sec.Total()),
			area.AreaMM2(area.KB(sec.TD), 1) + area.AreaMM2(area.KB(sec.ED), 1) + area.AreaMM2(area.KB(sec.VD), cores)},
	}
	return rows
}

// ---------------------------------------------------------------------------
// F6 — Figure 6: AES T0-table access trace on SecDir with VD only.

// F6Point is one T0-table access in the trace.
type F6Point struct {
	Cycle     uint64
	LineIndex int  // 0..15 within the T0 table
	MemAccess bool // true = main-memory access, false = L1/L2 hit
}

// F6Result is the Figure 6 trace plus its summary.
type F6Result struct {
	Points []F6Point
	// MemAccesses / L1L2Hits count T0 accesses by class. The paper's
	// figure shows exactly 16 memory accesses (one per T0 line, the cold
	// first touch); everything after hits the private caches, which the
	// attacker can neither observe nor disturb.
	MemAccesses uint64
	L1L2Hits    uint64
	VDOrEDTD    uint64 // directory-served refetches (0 if the defense holds)
}

// Fig6AESTrace runs the AES victim on SecDir with the shared ED/TD disabled
// (§9's strongest adversary, which fully controls those structures) and
// records every access to the 16 lines of the T0 table.
func Fig6AESTrace(ctx context.Context, o RunOpts) (F6Result, error) {
	cfg := config.SecDirConfig(o.Cores)
	cfg.Seed = o.Seed
	cfg.DisableEDTD = true

	var key [16]byte
	for i := range key {
		key[i] = byte(0x13*i + 7)
	}
	gens := make([]trace.Generator, o.Cores)
	gens[0] = trace.NewAESVictim(key, o.Seed)
	for c := 1; c < o.Cores; c++ {
		gens[c] = trace.NewIdle(addr.Line(uint64(c+1) << 30))
	}

	t0 := map[addr.Line]int{}
	for i, l := range trace.T0Lines() {
		t0[l] = i
	}
	var res F6Result
	obs := func(core int, cycle uint64, line addr.Line, write bool, ar coherence.AccessResult) {
		idx, ok := t0[line]
		if core != 0 || !ok {
			return
		}
		p := F6Point{Cycle: cycle, LineIndex: idx}
		switch ar.Level {
		case coherence.LevelL1, coherence.LevelL2:
			res.L1L2Hits++
		case coherence.LevelMemory:
			p.MemAccess = true
			res.MemAccesses++
		default:
			res.VDOrEDTD++
		}
		res.Points = append(res.Points, p)
	}

	// No warmup: the cold first touches are the point of the figure.
	_, _, err := run(ctx, cfg, trace.Workload{Name: "aes", Gens: gens}, RunOpts{
		Warmup: 0, Measure: o.Measure, Cores: o.Cores, Seed: o.Seed,
		Metrics: o.Metrics,
	}, obs)
	return res, err
}

// ---------------------------------------------------------------------------
// F7 / F8 — Figures 7 and 8: SPEC mixes and PARSEC applications.

// PerfRow compares one workload on Baseline vs. SecDir.
type PerfRow struct {
	Name string

	// Throughput: sum of per-core IPCs (SPEC mixes) and parallel execution
	// time (PARSEC). NormIPC is SecDir/Baseline IPC; NormTime is
	// SecDir/Baseline execution time.
	BaselineIPC, SecDirIPC float64
	NormIPC                float64
	NormTime               float64

	// L2 miss breakdown (Figures 7b / 8b), absolute counts.
	Baseline MissBreakdown
	SecDir   MissBreakdown

	// NormMisses is SecDir total L2 misses / Baseline total L2 misses.
	NormMisses float64

	// BaselineInclusionVictims counts private-cache lines lost to shared-
	// structure conflicts on the baseline; SecDir's count is asserted zero
	// by the test suite.
	BaselineInclusionVictims uint64
	SecDirInclusionVictims   uint64
}

// MissBreakdown splits L2 misses by where they were served (Figure 7b).
type MissBreakdown struct {
	EDTDHits  uint64
	VDHits    uint64
	MemAccess uint64
}

// Total returns the total L2 misses.
func (m MissBreakdown) Total() uint64 { return m.EDTDHits + m.VDHits + m.MemAccess }

// comparePair runs one workload on both designs. The workload is rebuilt per
// design via mk so generator state does not leak between runs.
func comparePair(ctx context.Context, name string, mk func() (trace.Workload, error), o RunOpts) (PerfRow, error) {
	row := PerfRow{Name: name}
	base, sec := o.configs()
	for i, cfg := range []config.Config{base, sec} {
		w, err := mk()
		if err != nil {
			return row, err
		}
		res, _, err := run(ctx, cfg, w, o, nil)
		if err != nil {
			return row, err
		}
		e, v, m := res.L2MissBreakdown()
		bd := MissBreakdown{EDTDHits: e, VDHits: v, MemAccess: m}
		var incl uint64
		for _, c := range res.PerCore {
			incl += c.Stats.ConflictInvalidations
		}
		if i == 0 {
			row.BaselineIPC = res.TotalIPC()
			row.Baseline = bd
			row.BaselineInclusionVictims = incl
			row.NormTime = float64(res.MaxCycles)
		} else {
			row.SecDirIPC = res.TotalIPC()
			row.SecDir = bd
			row.SecDirInclusionVictims = incl
			row.NormTime = float64(res.MaxCycles) / row.NormTime
		}
	}
	if row.BaselineIPC > 0 {
		row.NormIPC = row.SecDirIPC / row.BaselineIPC
	}
	if bt := row.Baseline.Total(); bt > 0 {
		row.NormMisses = float64(row.SecDir.Total()) / float64(bt)
	} else {
		row.NormMisses = 1
	}
	return row, nil
}

// workers resolves the experiment fan-out width. Each simulation is fully
// independent and CPU-bound, and the metrics registry is goroutine-safe, so
// simulations fan out across cores even with metrics attached.
func (o RunOpts) workers() int {
	if o.Workers > 0 {
		return o.Workers
	}
	return runtime.GOMAXPROCS(0)
}

// parallelRows runs fn(i) for i in [0,n) across workers goroutines, keeping
// result order. Each experiment's simulations are fully independent
// (separate engines, separate seeded generators), so fanning them out is
// deterministic. Dispatch stops once ctx is cancelled; fn is expected to
// observe ctx itself for in-flight work.
func parallelRows[T any](ctx context.Context, workers, n int, fn func(i int) (T, error)) ([]T, error) {
	rows := make([]T, n)
	errs := make([]error, n)
	if workers > n {
		workers = n
	}
	if workers < 1 {
		workers = 1
	}
	var wg sync.WaitGroup
	next := make(chan int)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range next {
				rows[i], errs[i] = fn(i)
			}
		}()
	}
dispatch:
	for i := 0; i < n; i++ {
		select {
		case next <- i:
		case <-ctx.Done():
			break dispatch
		}
	}
	close(next)
	wg.Wait()
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	return rows, nil
}

// Fig7SPECMixes regenerates Figure 7: the 12 Table 5 mixes on Baseline and
// SecDir.
func Fig7SPECMixes(ctx context.Context, o RunOpts) ([]PerfRow, error) {
	return parallelRows(ctx, o.workers(), len(trace.SpecMixes), func(mix int) (PerfRow, error) {
		return comparePair(ctx, fmt.Sprintf("mix%d", mix), func() (trace.Workload, error) {
			return trace.NewSpecMix(mix, o.Cores, o.Seed)
		}, o)
	})
}

// Fig8PARSEC regenerates Figure 8: the PARSEC applications on Baseline and
// SecDir.
func Fig8PARSEC(ctx context.Context, o RunOpts) ([]PerfRow, error) {
	names := trace.ParsecNames()
	return parallelRows(ctx, o.workers(), len(names), func(i int) (PerfRow, error) {
		n := names[i]
		return comparePair(ctx, n, func() (trace.Workload, error) {
			return trace.NewParsecWorkload(n, o.Cores, o.Seed)
		}, o)
	})
}

// ---------------------------------------------------------------------------
// T6 — Table 6: Empty-Bit effectiveness and cuckoo self-conflict reduction.

// T6Row evaluates the two VD features for one workload.
type T6Row struct {
	Name string
	// EBRatio is EBVD/NoEBVD: the fraction of VD bank look-ups still
	// performed with the Empty Bit filter enabled.
	EBRatio float64
	// CKRatio is CKVD/NoCKVD: VD self-conflicts with the cuckoo
	// organization relative to a plain single-hash VD, measured under the
	// worst-case attack (ED/TD fully controlled by the adversary, i.e.
	// disabled for the victim).
	CKRatio float64
}

// table6For evaluates one workload.
func table6For(ctx context.Context, name string, mk func() (trace.Workload, error), o RunOpts) (T6Row, error) {
	row := T6Row{Name: name}

	// EB effectiveness: normal SecDir run; the slice counts both the
	// filtered look-ups and what a design without EB would have performed.
	_, sec := o.configs()
	w, err := mk()
	if err != nil {
		return row, err
	}
	res, _, err := run(ctx, sec, w, o, nil)
	if err != nil {
		return row, err
	}
	if res.Dir.VDLookupsNoEB > 0 {
		row.EBRatio = float64(res.Dir.VDLookups) / float64(res.Dir.VDLookupsNoEB)
	}

	// Cuckoo effectiveness under worst-case attack: ED/TD disabled, compare
	// self-conflicts with cuckoo vs. plain banks.
	var conflicts [2]uint64
	for i, cuckoo := range []bool{true, false} {
		cfg := sec
		cfg.DisableEDTD = true
		cfg.VDCuckoo = cuckoo
		w, err := mk()
		if err != nil {
			return row, err
		}
		r, _, err := run(ctx, cfg, w, o, nil)
		if err != nil {
			return row, err
		}
		conflicts[i] = r.VDSelfConflicts
	}
	if conflicts[1] > 0 {
		row.CKRatio = float64(conflicts[0]) / float64(conflicts[1])
	}
	return row, nil
}

// Table6SPEC evaluates the VD features over the SPEC mixes.
func Table6SPEC(ctx context.Context, o RunOpts) ([]T6Row, error) {
	return parallelRows(ctx, o.workers(), len(trace.SpecMixes), func(mix int) (T6Row, error) {
		return table6For(ctx, fmt.Sprintf("mix%d", mix), func() (trace.Workload, error) {
			return trace.NewSpecMix(mix, o.Cores, o.Seed)
		}, o)
	})
}

// Table6PARSEC evaluates the VD features over the PARSEC applications.
func Table6PARSEC(ctx context.Context, o RunOpts) ([]T6Row, error) {
	names := trace.ParsecNames()
	return parallelRows(ctx, o.workers(), len(names), func(i int) (T6Row, error) {
		n := names[i]
		return table6For(ctx, n, func() (trace.Workload, error) {
			return trace.NewParsecWorkload(n, o.Cores, o.Seed)
		}, o)
	})
}

// ---------------------------------------------------------------------------
// S1 — §9: the directory attack against both designs.

// S1Result compares the directory attack on Baseline vs. SecDir.
type S1Result struct {
	// Evict+reload: classification accuracy (0.5 = chance) and how often
	// the Conflict step evicted the victim's private copy.
	BaselineAccuracy float64
	SecDirAccuracy   float64
	BaselineVictimEvictions,
	SecDirVictimEvictions int
	Rounds int

	// Prime+probe signal in probe misses per round.
	BaselineSignal float64
	SecDirSignal   float64

	// Victim inclusion victims across the whole experiment.
	BaselineInclusionVictims uint64
	SecDirInclusionVictims   uint64
}

// SecurityAttack mounts the evict+reload and prime+probe attacks of §2.2/§9
// against a T-table line on both designs. ctx is checked between attack
// stages (each stage is a bounded number of rounds, so cancellation latency
// is one stage).
func SecurityAttack(ctx context.Context, o RunOpts) (S1Result, error) {
	const rounds = 40
	target := trace.T0Lines()[0]
	attackers := make([]int, 0, o.Cores-1)
	for c := 1; c < o.Cores; c++ {
		attackers = append(attackers, c)
	}
	var out S1Result
	out.Rounds = rounds

	base, sec := o.configs()
	// The prime+probe observable is cleanest on the Appendix-A-fixed
	// baseline (see internal/attack's tests); evict+reload works on both.
	baseFixed := base
	baseFixed.AppendixAFix = true

	for i, cfg := range []config.Config{base, sec} {
		if err := ctx.Err(); err != nil {
			return out, err
		}
		e, err := coherence.NewEngine(cfg)
		if err != nil {
			return out, err
		}
		er, err := attack.EvictReload(e, 0, attackers, target, rounds, 32)
		if err != nil {
			return out, err
		}
		incl := e.Stats().Core[0].ConflictInvalidations

		if err := ctx.Err(); err != nil {
			return out, err
		}
		pcfg := cfg
		if i == 0 {
			pcfg = baseFixed
		}
		pe, err := coherence.NewEngine(pcfg)
		if err != nil {
			return out, err
		}
		pp, err := attack.PrimeProbe(pe, 0, attackers, target, rounds, 32)
		if err != nil {
			return out, err
		}

		if i == 0 {
			out.BaselineAccuracy = er.Accuracy()
			out.BaselineVictimEvictions = er.VictimEvictions
			out.BaselineSignal = pp.Signal()
			out.BaselineInclusionVictims = incl
		} else {
			out.SecDirAccuracy = er.Accuracy()
			out.SecDirVictimEvictions = er.VictimEvictions
			out.SecDirSignal = pp.Signal()
			out.SecDirInclusionVictims = incl
		}
	}
	return out, nil
}
