package leakage

import (
	"fmt"
	"math"
	"sort"
	"strings"

	"secdir/internal/area"
	"secdir/internal/coherence"
	"secdir/internal/config"
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

// NewLeaderboard joins a finished sweep with each defense's deterministic
// performance and cost columns (PerfCost, computed once per defense): one
// row per verdict, in the report's (defense, strategy) order. cores is the
// machine size the sweep simulated; perfAccesses sizes the latency probe
// (0 = 100k). The verdicts are the report's own, so a leaderboard honours
// every sampling and bootstrap setting of the sweep that produced it.
func NewLeaderboard(rep *Report, cores, perfAccesses int) (*Leaderboard, error) {
	lb := &Leaderboard{Trials: rep.Trials, Rounds: rep.Rounds, Seed: rep.Seed,
		Rows: make([]LeaderboardRow, 0, len(rep.Verdicts))}
	var row LeaderboardRow // the current defense's cost columns
	for _, v := range rep.Verdicts {
		if len(lb.Rows) == 0 || v.Config != row.Config {
			ns, kb, mm2, err := PerfCost(v.Config, cores, perfAccesses)
			if err != nil {
				return nil, err
			}
			row = LeaderboardRow{SimNsAccess: ns, StorageKB: kb, AreaMM2: mm2}
		}
		row.Verdict = v
		lb.Rows = append(lb.Rows, row)
	}
	return lb, nil
}

// PerfCost computes one defense's deterministic leaderboard columns: the
// simulated-latency probe (mean ns/access at 2 GHz over the fixed uniform
// workload) and the Table 7 cost model (per-slice storage KB and silicon
// mm²). They are bit-reproducible functions of the configuration, so a
// leaderboard computes them where it joins the verdicts, however the sweep
// ran.
func PerfCost(name string, cores, perfAccesses int) (simNs, storageKB, areaMM2 float64, err error) {
	if cores <= 0 {
		cores = defaultCores
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
// mixed workload (the bench harness's geometry) over a pooled engine,
// reporting the mean simulated access latency in nanoseconds at 2 GHz. The
// engine's latency model is cycle-deterministic, so the result depends only
// on the configuration.
func measureSimNs(cfg config.Config, accesses int) (float64, error) {
	e, err := coherence.Acquire(cfg.WithSeed(7))
	if err != nil {
		return 0, err
	}
	defer coherence.Release(e)
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
