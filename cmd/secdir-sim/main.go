// Command secdir-sim runs a single workload on a simulated machine with any
// directory design of the catalogue (config.Names) and prints IPC, L2-miss
// breakdown, and directory transition statistics.
//
// Usage:
//
//	secdir-sim -dir secdir -workload mix2
//	secdir-sim -dir baseline -workload freqmine -measure 500000
//	secdir-sim -dir secdir -workload uniform:65536
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"

	"secdir/internal/addr"
	"secdir/internal/coherence"
	"secdir/internal/config"
	"secdir/internal/metrics"
	"secdir/internal/server"
	"secdir/internal/sim"
	"secdir/internal/stats"
)

func main() {
	dir := flag.String("dir", "secdir", "directory design, one of "+strings.Join(config.Names(), ", "))
	compare := flag.Bool("compare", false, "run the workload on baseline AND secdir and print the deltas")
	workload := flag.String("workload", "mix0", "mix0..mix11, a PARSEC name, aes, uniform:<lines>, stream:<lines>, or file:<trace.sdtr>")
	cores := flag.Int("cores", 8, "number of cores (power of two)")
	warmup := flag.Uint64("warmup", 150_000, "warmup accesses per core")
	measure := flag.Uint64("measure", 150_000, "measured accesses per core")
	seed := flag.Int64("seed", 1, "simulation seed")
	mflags := metrics.RegisterCLIFlags(flag.CommandLine)
	flag.Parse()

	if err := mflags.Start(); err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	reg := mflags.Registry()

	cfg, err := config.ByName(*dir, *cores)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(2)
	}
	cfg.Seed = *seed

	if *compare {
		if err := runCompare(*workload, *cores, *seed, *warmup, *measure, reg); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		if err := mflags.Finish(reg); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		return
	}

	w, err := server.ParseWorkload(*workload, *cores, *seed)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(2)
	}

	// Latency distribution per service level, collected over the measured
	// phase.
	hist := map[coherence.Level]*stats.Histogram{}
	for _, lv := range []coherence.Level{coherence.LevelL1, coherence.LevelL2, coherence.LevelEDTD, coherence.LevelVD, coherence.LevelMemory} {
		hist[lv] = &stats.Histogram{}
	}
	r, err := sim.New(sim.Options{
		Config:          cfg,
		Work:            w,
		WarmupAccesses:  *warmup,
		MeasureAccesses: *measure,
		Metrics:         reg,
		Observer: func(core int, cycle uint64, line addr.Line, write bool, ar coherence.AccessResult) {
			hist[ar.Level].Add(uint64(ar.Latency))
		},
	})
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	res := r.Run()
	if err := w.Close(); err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}

	fmt.Printf("workload %s on %s (%d cores, %d+%d accesses/core)\n",
		w.Name, *dir, cfg.Cores, *warmup, *measure)
	fmt.Printf("total IPC: %.4f   max cycles: %d\n", res.TotalIPC(), res.MaxCycles)
	e, v, m := res.L2MissBreakdown()
	fmt.Printf("L2 misses: %d  (ED+TD hits %d, VD hits %d, memory %d)\n", e+v+m, e, v, m)
	fmt.Printf("memory writebacks: %d   VD self-conflicts: %d\n", res.MemWritebacks, res.VDSelfConflicts)
	d := res.Dir
	fmt.Printf("directory transitions: ED→TD %d  TD→ED %d  TD drop(②) %d  TD→VD(③) %d  VD→TD(④) %d  VD drop(⑤) %d\n",
		d.EDToTD, d.TDToED, d.TDDrop, d.TDToVD, d.VDToTD, d.VDDrop)
	fmt.Printf("inclusion victims: %d\n", d.InclusionVictims)
	occ := r.Engine.OccupancySnapshot()
	r.Close()
	fmt.Printf("directory occupancy: ED %.0f%%  TD %.0f%%", 100*occ.EDFill(), 100*occ.TDFill())
	if occ.VDCapacity > 0 {
		fmt.Printf("  VD %.1f%%", 100*occ.VDFill())
	}
	fmt.Println()
	fmt.Println("latency by service level (cycles, after MLP):")
	for _, lv := range []coherence.Level{coherence.LevelL1, coherence.LevelL2, coherence.LevelEDTD, coherence.LevelVD, coherence.LevelMemory} {
		h := hist[lv]
		if h.N() == 0 {
			continue
		}
		fmt.Printf("  %-7v n=%-10d mean=%6.1f p50<=%-5d p99<=%d\n", lv, h.N(), h.Mean(), h.Quantile(0.5), h.Quantile(0.99))
	}
	fmt.Printf("%-6s %10s %12s %10s %10s %10s\n", "core", "IPC", "accesses", "L1hit%", "L2hit%", "missRate%")
	for c, cr := range res.PerCore {
		acc := float64(cr.Stats.Accesses)
		if acc == 0 {
			acc = 1
		}
		fmt.Printf("%-6d %10.4f %12d %9.2f%% %9.2f%% %9.2f%%\n", c, cr.IPC(), cr.Stats.Accesses,
			100*float64(cr.Stats.L1Hits)/acc, 100*float64(cr.Stats.L2Hits)/acc,
			100*float64(cr.Stats.L2Misses())/acc)
	}
	if err := mflags.Finish(reg); err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
}

// runCompare runs the workload on the baseline and SecDir machines and
// prints a side-by-side delta summary. A non-nil registry is shared by both
// runs: counters aggregate, and each run's Close sets the occupancy gauges,
// so they hold the last (SecDir) machine's.
func runCompare(workload string, cores int, seed int64, warmup, measure uint64, reg *metrics.Registry) error {
	type outcome struct {
		ipc           float64
		edtd, vd, mem uint64
		incl          uint64
		maxCycles     uint64
	}
	var outs [2]outcome
	for i, cfg := range []config.Config{config.SkylakeX(cores), config.SecDirConfig(cores)} {
		cfg.Seed = seed
		w, err := server.ParseWorkload(workload, cores, seed)
		if err != nil {
			return err
		}
		r, err := sim.New(sim.Options{Config: cfg, Work: w, WarmupAccesses: warmup, MeasureAccesses: measure, Metrics: reg})
		if err != nil {
			return err
		}
		res := r.Run()
		r.Close()
		if err := w.Close(); err != nil {
			return err
		}
		e, v, m := res.L2MissBreakdown()
		var incl uint64
		for _, c := range res.PerCore {
			incl += c.Stats.ConflictInvalidations
		}
		outs[i] = outcome{ipc: res.TotalIPC(), edtd: e, vd: v, mem: m, incl: incl, maxCycles: res.MaxCycles}
	}
	b, s := outs[0], outs[1]
	bTot, sTot := b.edtd+b.vd+b.mem, s.edtd+s.vd+s.mem
	fmt.Printf("workload %s, %d cores, %d+%d accesses/core\n\n", workload, cores, warmup, measure)
	fmt.Printf("%-22s %14s %14s %12s\n", "metric", "baseline", "secdir", "secdir/base")
	ratio := func(a, bb float64) string {
		if bb == 0 {
			return "n/a"
		}
		return fmt.Sprintf("%.4f", a/bb)
	}
	fmt.Printf("%-22s %14.4f %14.4f %12s\n", "total IPC", b.ipc, s.ipc, ratio(s.ipc, b.ipc))
	fmt.Printf("%-22s %14d %14d %12s\n", "L2 misses", bTot, sTot, ratio(float64(sTot), float64(bTot)))
	fmt.Printf("%-22s %14d %14d\n", "  ED+TD hits", b.edtd, s.edtd)
	fmt.Printf("%-22s %14d %14d\n", "  VD hits", b.vd, s.vd)
	fmt.Printf("%-22s %14d %14d\n", "  memory accesses", b.mem, s.mem)
	fmt.Printf("%-22s %14d %14d\n", "inclusion victims", b.incl, s.incl)
	fmt.Printf("%-22s %14d %14d %12s\n", "execution cycles", b.maxCycles, s.maxCycles, ratio(float64(s.maxCycles), float64(b.maxCycles)))
	return nil
}
