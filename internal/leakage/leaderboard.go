package leakage

import (
	"context"
	"fmt"
	"math"
	"sort"
	"strings"

	"secdir/internal/area"
	"secdir/internal/coherence"
	"secdir/internal/config"
	"secdir/internal/metrics"
	"secdir/internal/trace"
)

// LeaderboardNames lists the defenses the cross-defense leaderboard races, in
// canonical order: the vulnerable Skylake-X baseline as the reference, the
// paper's SecDir, then the four rival secure-directory designs.
var LeaderboardNames = []string{"skylake-unfixed", "secdir", "skewed", "dls", "tagpart", "ceaser"}

// LeaderboardStrategies names the default leaderboard attack roster: the two
// headline channels every defense faces.
var LeaderboardStrategies = []string{"primeprobe", "evictreload"}

// LeaderboardRow is one (defense, strategy) cell of the leaderboard: the
// leakage verdict joined with the defense's deterministic performance and
// hardware-cost estimates. SimNsAccess, StorageKB and AreaMM2 are per-defense
// (repeated across a defense's strategy rows).
type LeaderboardRow struct {
	Verdict
	// SimNsAccess is the average simulated memory-access latency under the
	// uniform mixed workload, in nanoseconds at the 2 GHz core clock. It is
	// computed from the engine's deterministic latency model, so it is
	// bit-reproducible — no wall clock involved.
	SimNsAccess float64 `json:"sim_ns_access"`
	// StorageKB is the defense's per-slice directory storage.
	StorageKB float64 `json:"storage_kb"`
	// AreaMM2 is the per-slice silicon estimate of the Table 7 CACTI model.
	AreaMM2 float64 `json:"area_mm2"`
}

// Leaderboard is the outcome of a cross-defense race.
type Leaderboard struct {
	Trials int              `json:"trials"`
	Rounds int              `json:"rounds"`
	Seed   int64            `json:"seed"`
	Rows   []LeaderboardRow `json:"rows"`
}

// LeaderboardOptions configures a cross-defense race.
type LeaderboardOptions struct {
	// Configs are the defense names to race (default LeaderboardNames).
	Configs []string
	// Strategies are the attacks each defense faces (default
	// primeprobe + evictreload, the two headline channels).
	Strategies []Strategy
	// Cores is the simulated core count (default 8).
	Cores int
	// Trials, Rounds, EvictionLines, Workers, Seed are forwarded to every
	// cell's Options (zero means that field's default).
	Trials        int
	Rounds        int
	EvictionLines int
	Workers       int
	Seed          int64
	// PerfAccesses is the measured-loop length of the simulated-latency
	// probe (default 100k, after an equal warm-up).
	PerfAccesses int
	// Metrics receives the leakage counters/histograms; nil is a no-op.
	Metrics *metrics.Registry
	// Progress, when non-nil, receives per-cell trial progress with a stage
	// label like "skewed/primeprobe". May run on worker goroutines.
	Progress func(stage string, done, total int)
}

// RunLeaderboard races every configured defense through the leakage lab and
// the deterministic performance probe. Rows come out in (defense, strategy)
// order; results are reproducible for fixed options, including across worker
// counts.
func RunLeaderboard(ctx context.Context, o LeaderboardOptions) (*Leaderboard, error) {
	if len(o.Configs) == 0 {
		o.Configs = append([]string(nil), LeaderboardNames...)
	}
	if len(o.Strategies) == 0 {
		ss, err := ParseStrategyList(strings.Join(LeaderboardStrategies, ","))
		if err != nil {
			return nil, err
		}
		o.Strategies = ss
	}
	if o.Cores <= 0 {
		o.Cores = 8
	}
	if o.PerfAccesses <= 0 {
		o.PerfAccesses = 100_000
	}
	base := Options{
		Trials:        o.Trials,
		Rounds:        o.Rounds,
		EvictionLines: o.EvictionLines,
		Workers:       o.Workers,
		Seed:          o.Seed,
		Metrics:       o.Metrics,
	}.withDefaults()

	lb := &Leaderboard{Trials: base.Trials, Rounds: base.Rounds, Seed: base.Seed}
	for _, name := range o.Configs {
		cfg, err := ParseConfig(name, o.Cores)
		if err != nil {
			return nil, err
		}
		ns, kb, mm2, err := PerfCost(name, o.Cores, o.PerfAccesses)
		if err != nil {
			return nil, err
		}
		for _, s := range o.Strategies {
			if err := ctx.Err(); err != nil {
				return nil, err
			}
			cell := base
			cell.Config = cfg
			cell.ConfigName = name
			cell.Strategy = s
			if o.Progress != nil {
				stage := name + "/" + s.Name()
				cell.Progress = func(done, total int) { o.Progress(stage, done, total) }
			}
			v, err := Run(ctx, cell)
			if err != nil {
				return nil, fmt.Errorf("leakage: %s/%s: %w", name, s.Name(), err)
			}
			lb.Rows = append(lb.Rows, LeaderboardRow{
				Verdict:     v,
				SimNsAccess: ns,
				StorageKB:   kb,
				AreaMM2:     mm2,
			})
		}
	}
	return lb, nil
}

// PerfCost computes one defense's deterministic leaderboard columns: the
// simulated-latency probe (mean ns/access at 2 GHz over the fixed uniform
// workload) and the Table 7 cost model (per-slice storage KB and silicon
// mm²). The fleet coordinator computes these locally — they are
// bit-reproducible functions of the configuration, so there is nothing to
// distribute — and joins them with the verdicts merged from remote shards.
func PerfCost(name string, cores, perfAccesses int) (simNs, storageKB, areaMM2 float64, err error) {
	if cores <= 0 {
		cores = 8
	}
	if perfAccesses <= 0 {
		perfAccesses = 100_000
	}
	cfg, err := ParseConfig(name, cores)
	if err != nil {
		return 0, 0, 0, err
	}
	ns, err := measureSimNs(cfg, perfAccesses)
	if err != nil {
		return 0, 0, 0, fmt.Errorf("leakage: %s performance probe: %w", name, err)
	}
	storage, banks, ok := area.DefenseStorage(cfg)
	var kb, mm2 float64
	if ok {
		kb = area.KB(storage.Total())
		mm2 = area.AreaMM2(kb, banks)
	}
	return ns, kb, mm2, nil
}

// measureSimNs runs the deterministic performance probe: a fixed-seed uniform
// mixed workload (the bench harness's geometry) over a freshly built engine,
// reporting the mean simulated access latency in nanoseconds at 2 GHz. The
// engine's latency model is cycle-deterministic, so the result depends only
// on the configuration.
func measureSimNs(cfg config.Config, accesses int) (float64, error) {
	e, err := coherence.NewEngine(cfg.WithSeed(7))
	if err != nil {
		return 0, err
	}
	gen := trace.NewUniform(1<<24, 64<<10, 0.25, 0, 7)
	mask := cfg.Cores - 1
	for i := 0; i < accesses; i++ { // warm-up: fills and migrations settle
		a := gen.Next()
		e.Access(i&mask, a.Line, a.Write)
	}
	var cycles uint64
	for i := 0; i < accesses; i++ {
		a := gen.Next()
		cycles += uint64(e.Access(i&mask, a.Line, a.Write).Latency)
	}
	return float64(cycles) / float64(accesses) / 2.0, nil
}

// CSV renders the leaderboard as a header plus one row per cell, the exact
// format pinned by data/leaderboard.csv.
func (l *Leaderboard) CSV() (head []string, rows [][]string) {
	head = []string{"defense", "strategy", "trials", "rounds", "t_stat",
		"capacity_bits", "auc", "auc_lo", "auc_hi", "leak",
		"sim_ns_access", "storage_kb", "area_mm2"}
	for _, r := range l.Rows {
		rows = append(rows, []string{
			r.Config, r.Strategy,
			fmt.Sprint(r.Trials), fmt.Sprint(r.Rounds),
			fmt.Sprintf("%.4f", r.TStat),
			fmt.Sprintf("%.4f", r.CapacityBits),
			fmt.Sprintf("%.4f", r.AUC), fmt.Sprintf("%.4f", r.AUCLo), fmt.Sprintf("%.4f", r.AUCHi),
			fmt.Sprint(r.Leak),
			fmt.Sprintf("%.3f", r.SimNsAccess),
			fmt.Sprintf("%.2f", r.StorageKB),
			fmt.Sprintf("%.4f", r.AreaMM2),
		})
	}
	return head, rows
}

// Text renders the leaderboard ranked by worst-case |t| per defense
// (most leaky first), with the performance and cost columns alongside.
func (l *Leaderboard) Text() string {
	type agg struct {
		worstT float64
		rows   []LeaderboardRow
	}
	byDef := map[string]*agg{}
	var order []*agg
	for _, r := range l.Rows {
		a := byDef[r.Config]
		if a == nil {
			a = &agg{}
			byDef[r.Config] = a
			order = append(order, a)
		}
		if t := math.Abs(r.TStat); t > a.worstT {
			a.worstT = t
		}
		a.rows = append(a.rows, r)
	}
	sort.SliceStable(order, func(i, j int) bool { return order[i].worstT > order[j].worstT })

	var b strings.Builder
	fmt.Fprintf(&b, "cross-defense leaderboard: %d trials x %d rounds, seed %d, TVLA |t|>%.1f\n",
		l.Trials, l.Rounds, l.Seed, TVLAThreshold)
	fmt.Fprintf(&b, "%-16s %-12s %9s %8s %8s %10s %10s %9s  %s\n",
		"DEFENSE", "STRATEGY", "|t|", "CAP/bits", "AUC", "ns/access", "KB/slice", "mm2", "VERDICT")
	for _, a := range order {
		for _, r := range a.rows {
			verdict := "NO-LEAK"
			if r.Leak {
				verdict = "LEAK"
			}
			fmt.Fprintf(&b, "%-16s %-12s %9.2f %8.3f %8.3f %10.3f %10.2f %9.4f  %s\n",
				r.Config, r.Strategy, math.Abs(r.TStat), r.CapacityBits, r.AUC,
				r.SimNsAccess, r.StorageKB, r.AreaMM2, verdict)
		}
	}
	return b.String()
}
