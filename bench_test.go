// Benchmarks that regenerate every table and figure of the SecDir paper's
// evaluation, plus ablations of the design choices called out in DESIGN.md.
// Aggregate results are attached as custom benchmark metrics; the full tables
// are printed by cmd/secdir-experiments.
package secdir_test

import (
	"context"
	"strconv"
	"testing"

	"secdir/internal/area"
	"secdir/internal/attack"
	"secdir/internal/cachesim"
	"secdir/internal/coherence"
	"secdir/internal/config"
	"secdir/internal/experiments"
	"secdir/internal/sim"
	"secdir/internal/trace"
)

// benchOpts keeps the per-iteration simulation cost bounded; the published
// numbers in EXPERIMENTS.md use the longer default lengths.
func benchOpts() experiments.RunOpts {
	return experiments.RunOpts{Warmup: 30_000, Measure: 30_000, Cores: 8, Seed: 1}
}

// BenchmarkExpA1AssociativityAnalysis regenerates the §2.3 analysis.
func BenchmarkExpA1AssociativityAnalysis(b *testing.B) {
	var last []experiments.A1Row
	for i := 0; i < b.N; i++ {
		last = experiments.AssociativityAnalysis()
	}
	for _, r := range last {
		if r.Cores == 8 {
			b.ReportMetric(float64(r.Required), "required-assoc-8c")
		}
	}
}

// BenchmarkExpF5VDSizing regenerates Figure 5.
func BenchmarkExpF5VDSizing(b *testing.B) {
	var rows []experiments.F5Row
	for i := 0; i < b.N; i++ {
		rows = experiments.Fig5VDSizing()
	}
	for _, r := range rows {
		if r.Cores == 8 {
			b.ReportMetric(r.Ratios[8], "ratio-8c-wed8")
		}
		if r.Cores == 128 {
			b.ReportMetric(r.Ratios[6], "ratio-128c-wed6")
		}
	}
}

// BenchmarkExpF6AESTrace regenerates Figure 6.
func BenchmarkExpF6AESTrace(b *testing.B) {
	o := benchOpts()
	var res experiments.F6Result
	for i := 0; i < b.N; i++ {
		var err error
		res, err = experiments.Fig6AESTrace(context.Background(), o)
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(res.MemAccesses), "T0-mem-accesses")
	b.ReportMetric(float64(res.VDOrEDTD), "T0-dir-refetches")
}

// BenchmarkExpF7SPECMixes regenerates Figure 7 and reports the average
// normalized IPC and L2-miss count (SecDir/Baseline).
func BenchmarkExpF7SPECMixes(b *testing.B) {
	o := benchOpts()
	var rows []experiments.PerfRow
	for i := 0; i < b.N; i++ {
		var err error
		rows, err = experiments.Fig7SPECMixes(context.Background(), o)
		if err != nil {
			b.Fatal(err)
		}
	}
	var ipc, miss float64
	for _, r := range rows {
		ipc += r.NormIPC
		miss += r.NormMisses
	}
	n := float64(len(rows))
	b.ReportMetric(ipc/n, "avg-norm-IPC")
	b.ReportMetric(miss/n, "avg-norm-misses")
}

// BenchmarkExpF8PARSEC regenerates Figure 8 and reports the average
// normalized execution time and miss count, plus freqmine's VD-hit share.
func BenchmarkExpF8PARSEC(b *testing.B) {
	o := benchOpts()
	var rows []experiments.PerfRow
	for i := 0; i < b.N; i++ {
		var err error
		rows, err = experiments.Fig8PARSEC(context.Background(), o)
		if err != nil {
			b.Fatal(err)
		}
	}
	var t, miss float64
	for _, r := range rows {
		t += r.NormTime
		miss += r.NormMisses
		if r.Name == "freqmine" && r.SecDir.Total() > 0 {
			b.ReportMetric(float64(r.SecDir.VDHits)/float64(r.SecDir.Total()), "freqmine-vd-hit-frac")
		}
	}
	n := float64(len(rows))
	b.ReportMetric(t/n, "avg-norm-time")
	b.ReportMetric(miss/n, "avg-norm-misses")
}

// BenchmarkExpT6VDFeatures regenerates Table 6 and reports the average
// EBVD/NoEBVD and CKVD/NoCKVD ratios.
func BenchmarkExpT6VDFeatures(b *testing.B) {
	o := benchOpts()
	var spec, parsec []experiments.T6Row
	for i := 0; i < b.N; i++ {
		var err error
		spec, err = experiments.Table6SPEC(context.Background(), o)
		if err != nil {
			b.Fatal(err)
		}
		parsec, err = experiments.Table6PARSEC(context.Background(), o)
		if err != nil {
			b.Fatal(err)
		}
	}
	avg := func(rows []experiments.T6Row) (eb, ck float64) {
		for _, r := range rows {
			eb += r.EBRatio
			ck += r.CKRatio
		}
		n := float64(len(rows))
		return eb / n, ck / n
	}
	eb, ck := avg(spec)
	b.ReportMetric(eb, "spec-EB-ratio")
	b.ReportMetric(ck, "spec-CK-ratio")
	eb, ck = avg(parsec)
	b.ReportMetric(eb, "parsec-EB-ratio")
	b.ReportMetric(ck, "parsec-CK-ratio")
}

// BenchmarkExpT7StorageArea regenerates Table 7.
func BenchmarkExpT7StorageArea(b *testing.B) {
	var rows []experiments.T7Row
	for i := 0; i < b.N; i++ {
		rows = experiments.Table7StorageArea(8)
	}
	for _, r := range rows {
		if r.Design == "secdir" && r.Structure == "VD" {
			b.ReportMetric(r.KB, "VD-KB")
		}
	}
}

// BenchmarkExpS1Attack regenerates the §9 security comparison.
func BenchmarkExpS1Attack(b *testing.B) {
	o := benchOpts()
	var res experiments.S1Result
	for i := 0; i < b.N; i++ {
		var err error
		res, err = experiments.SecurityAttack(context.Background(), o)
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(res.BaselineAccuracy, "baseline-accuracy")
	b.ReportMetric(res.SecDirAccuracy, "secdir-accuracy")
	b.ReportMetric(float64(res.SecDirVictimEvictions), "secdir-victim-evictions")
}

// ---------------------------------------------------------------------------
// Ablations (design choices called out in §5.2 and §7).

// attackVDConflicts measures a victim's VD self-conflicts per 100k accesses
// under the worst-case attack emulation (ED/TD disabled), for a given VD
// variant.
func attackVDConflicts(b *testing.B, mutate func(*config.Config)) float64 {
	b.Helper()
	cfg := config.SecDirConfig(8)
	cfg.DisableEDTD = true
	mutate(&cfg)
	w, err := trace.NewSpecMix(2, 8, 1)
	if err != nil {
		b.Fatal(err)
	}
	r, err := sim.New(sim.Options{Config: cfg, Work: w, WarmupAccesses: 20_000, MeasureAccesses: 50_000})
	if err != nil {
		b.Fatal(err)
	}
	res := r.Run()
	r.Close()
	var accesses uint64
	for _, c := range res.PerCore {
		accesses += c.Stats.Accesses
	}
	return float64(res.VDSelfConflicts) / float64(accesses) * 100_000
}

// BenchmarkAblationNumRelocations sweeps the cuckoo relocation bound (§5.2.1
// names NumRelocations=8; more relocations mean fewer forced evictions).
func BenchmarkAblationNumRelocations(b *testing.B) {
	for _, n := range []int{0, 2, 4, 8, 16} {
		n := n
		b.Run("relocations="+strconv.Itoa(n), func(b *testing.B) {
			var c float64
			for i := 0; i < b.N; i++ {
				c = attackVDConflicts(b, func(cfg *config.Config) { cfg.NumRelocations = n })
			}
			b.ReportMetric(c, "vd-conflicts/100k")
		})
	}
}

// BenchmarkAblationCuckoo compares cuckoo vs. plain single-hash VD banks —
// the CKVD/NoCKVD comparison of Table 6 as a bench.
func BenchmarkAblationCuckoo(b *testing.B) {
	for _, cuckoo := range []bool{true, false} {
		cuckoo := cuckoo
		name := "plain"
		if cuckoo {
			name = "cuckoo"
		}
		b.Run(name, func(b *testing.B) {
			var c float64
			for i := 0; i < b.N; i++ {
				c = attackVDConflicts(b, func(cfg *config.Config) { cfg.VDCuckoo = cuckoo })
			}
			b.ReportMetric(c, "vd-conflicts/100k")
		})
	}
}

// BenchmarkAblationEmptyBit measures the VD bank look-up reduction from the
// Empty Bit (§5.2.2).
func BenchmarkAblationEmptyBit(b *testing.B) {
	cfg := config.SecDirConfig(8)
	var ratio float64
	for i := 0; i < b.N; i++ {
		w, err := trace.NewSpecMix(2, 8, 1)
		if err != nil {
			b.Fatal(err)
		}
		r, err := sim.New(sim.Options{Config: cfg, Work: w, WarmupAccesses: 20_000, MeasureAccesses: 50_000})
		if err != nil {
			b.Fatal(err)
		}
		res := r.Run()
		r.Close()
		if res.Dir.VDLookupsNoEB > 0 {
			ratio = float64(res.Dir.VDLookups) / float64(res.Dir.VDLookupsNoEB)
		}
	}
	b.ReportMetric(ratio, "EB-lookup-ratio")
}

// BenchmarkAblationWED sweeps how many ways the ED retains (§7 considers
// W_ED = 6..10) and reports the per-core VD capacity each choice buys.
func BenchmarkAblationWED(b *testing.B) {
	for wED := 6; wED <= 10; wED++ {
		wED := wED
		b.Run("wed="+strconv.Itoa(wED), func(b *testing.B) {
			var s area.Sizing
			for i := 0; i < b.N; i++ {
				s = area.SizeVD(8, wED)
			}
			b.ReportMetric(s.Ratio, "vd-entries/L2-lines")
		})
	}
}

// BenchmarkAblationAppendixAFix quantifies the Skylake-X limitation: victim
// line evictions per prime round with and without the fix.
func BenchmarkAblationAppendixAFix(b *testing.B) {
	for _, fix := range []bool{false, true} {
		fix := fix
		name := "unfixed"
		if fix {
			name = "fixed"
		}
		b.Run(name, func(b *testing.B) {
			var evictions float64
			for i := 0; i < b.N; i++ {
				cfg := config.SkylakeX(8)
				cfg.AppendixAFix = fix
				e, err := coherence.NewEngine(cfg)
				if err != nil {
					b.Fatal(err)
				}
				res, err := attack.EvictReload(e, 0, []int{1, 2, 3, 4, 5, 6, 7}, trace.T0Lines()[0], 20, 16)
				if err != nil {
					b.Fatal(err)
				}
				evictions = float64(res.VictimEvictions) / float64(res.Rounds)
			}
			b.ReportMetric(evictions, "victim-evictions/round")
		})
	}
}

// BenchmarkAblationVDStash measures how a small per-bank overflow stash
// (cuckoo-with-stash, a §10.3 future-work extension) cuts worst-case VD
// self-conflicts.
func BenchmarkAblationVDStash(b *testing.B) {
	for _, stash := range []int{0, 2, 4, 8} {
		stash := stash
		b.Run("stash="+strconv.Itoa(stash), func(b *testing.B) {
			var c float64
			for i := 0; i < b.N; i++ {
				c = attackVDConflicts(b, func(cfg *config.Config) { cfg.VDStash = stash })
			}
			b.ReportMetric(c, "vd-conflicts/100k")
		})
	}
}

// BenchmarkAblationSearchBatch measures the IPC cost of the §5.1 batched VD
// search against the fully parallel design.
func BenchmarkAblationSearchBatch(b *testing.B) {
	for _, batch := range []int{0, 2, 4} {
		batch := batch
		b.Run("batch="+strconv.Itoa(batch), func(b *testing.B) {
			var ipc float64
			for i := 0; i < b.N; i++ {
				cfg := config.SecDirConfig(8)
				cfg.VDSearchBatch = batch
				w, err := trace.NewParsecWorkload("freqmine", 8, 1)
				if err != nil {
					b.Fatal(err)
				}
				r, err := sim.New(sim.Options{Config: cfg, Work: w, WarmupAccesses: 20_000, MeasureAccesses: 40_000})
				if err != nil {
					b.Fatal(err)
				}
				ipc = r.Run().TotalIPC()
				r.Close()
			}
			b.ReportMetric(ipc, "IPC")
		})
	}
}

// BenchmarkAblationMitigation measures the IPC cost of the §6 timing-channel
// mitigations on a multithreaded workload.
func BenchmarkAblationMitigation(b *testing.B) {
	for _, mit := range []config.TimingMitigation{config.MitigationOff, config.MitigationNaive, config.MitigationSelective} {
		mit := mit
		b.Run(mit.String(), func(b *testing.B) {
			var ipc float64
			for i := 0; i < b.N; i++ {
				cfg := config.SecDirConfig(8)
				cfg.Mitigation = mit
				w, err := trace.NewParsecWorkload("x264", 8, 1)
				if err != nil {
					b.Fatal(err)
				}
				r, err := sim.New(sim.Options{Config: cfg, Work: w, WarmupAccesses: 20_000, MeasureAccesses: 40_000})
				if err != nil {
					b.Fatal(err)
				}
				ipc = r.Run().TotalIPC()
				r.Close()
			}
			b.ReportMetric(ipc, "IPC")
		})
	}
}

// BenchmarkAblationProtocol compares MOESI vs MESI memory write-back traffic
// on a sharing-heavy workload.
func BenchmarkAblationProtocol(b *testing.B) {
	for _, p := range []config.Protocol{config.MOESI, config.MESI} {
		p := p
		b.Run(p.String(), func(b *testing.B) {
			var wb float64
			for i := 0; i < b.N; i++ {
				cfg := config.SecDirConfig(8)
				cfg.Protocol = p
				w, err := trace.NewParsecWorkload("x264", 8, 1)
				if err != nil {
					b.Fatal(err)
				}
				r, err := sim.New(sim.Options{Config: cfg, Work: w, WarmupAccesses: 20_000, MeasureAccesses: 40_000})
				if err != nil {
					b.Fatal(err)
				}
				wb = float64(r.Run().MemWritebacks)
				r.Close()
			}
			b.ReportMetric(wb, "mem-writebacks")
		})
	}
}

// BenchmarkAblationL2Policy compares private-cache replacement policies
// under a Table 5 mix: the defense and miss-reduction shape must not depend
// on the exact L2 policy, but absolute miss counts do.
func BenchmarkAblationL2Policy(b *testing.B) {
	for _, p := range []cachesim.Policy{cachesim.LRU, cachesim.SRRIP, cachesim.PLRU, cachesim.Random} {
		p := p
		b.Run(p.String(), func(b *testing.B) {
			var misses float64
			for i := 0; i < b.N; i++ {
				cfg := config.SecDirConfig(8)
				cfg.L2Policy = p
				w, err := trace.NewSpecMix(2, 8, 1)
				if err != nil {
					b.Fatal(err)
				}
				r, err := sim.New(sim.Options{Config: cfg, Work: w, WarmupAccesses: 20_000, MeasureAccesses: 40_000})
				if err != nil {
					b.Fatal(err)
				}
				misses = float64(r.Run().L2Misses())
				r.Close()
			}
			b.ReportMetric(misses, "L2-misses")
		})
	}
}
