package sim

import (
	"testing"

	"secdir/internal/addr"
	"secdir/internal/coherence"
	"secdir/internal/config"
	"secdir/internal/trace"
)

func smallCfg() config.Config {
	cfg := config.SkylakeX(4)
	cfg.L1Sets, cfg.L1Ways = 4, 2
	cfg.L2Sets, cfg.L2Ways = 16, 4
	cfg.TDSets, cfg.TDWays = 32, 3
	cfg.EDSets, cfg.EDWays = 32, 3
	return cfg
}

func uniformWork(cores int, seed int64) trace.Workload {
	gens := make([]trace.Generator, cores)
	for c := 0; c < cores; c++ {
		gens[c] = trace.NewUniform(addr.Line(uint64(c+1)<<20), 4096, 0.25, 3, seed+int64(c))
	}
	return trace.Workload{Name: "uniform", Gens: gens}
}

func TestRunAccounting(t *testing.T) {
	r, err := New(Options{
		Config:          smallCfg(),
		Work:            uniformWork(4, 1),
		WarmupAccesses:  500,
		MeasureAccesses: 1000,
	})
	if err != nil {
		t.Fatal(err)
	}
	res := r.Run()
	if len(res.PerCore) != 4 {
		t.Fatalf("PerCore = %d", len(res.PerCore))
	}
	for c, cr := range res.PerCore {
		if cr.Stats.Accesses != 1000 {
			t.Errorf("core %d measured %d accesses, want 1000", c, cr.Stats.Accesses)
		}
		if cr.Instructions < 1000 {
			t.Errorf("core %d instructions %d < accesses", c, cr.Instructions)
		}
		if cr.Cycles == 0 || cr.IPC() <= 0 {
			t.Errorf("core %d cycles/IPC zero", c)
		}
		if cr.Cycles > res.MaxCycles {
			t.Errorf("MaxCycles %d below core %d's %d", res.MaxCycles, c, cr.Cycles)
		}
		hits := cr.Stats.L1Hits + cr.Stats.L2Hits + cr.Stats.L2Misses()
		if hits != cr.Stats.Accesses {
			t.Errorf("core %d classification %d != accesses %d", c, hits, cr.Stats.Accesses)
		}
	}
	e, v, m := res.L2MissBreakdown()
	if e+v+m != res.L2Misses() {
		t.Fatal("breakdown does not sum")
	}
	if m == 0 {
		t.Fatal("uniform workload produced no memory accesses")
	}
}

func TestDeterminism(t *testing.T) {
	run := func() Result {
		r, err := New(Options{
			Config:          smallCfg(),
			Work:            uniformWork(4, 9),
			WarmupAccesses:  300,
			MeasureAccesses: 700,
		})
		if err != nil {
			t.Fatal(err)
		}
		return r.Run()
	}
	a, b := run(), run()
	if a.TotalIPC() != b.TotalIPC() || a.MaxCycles != b.MaxCycles {
		t.Fatal("same seed produced different results")
	}
	ae, av, am := a.L2MissBreakdown()
	be, bv, bm := b.L2MissBreakdown()
	if ae != be || av != bv || am != bm {
		t.Fatal("same seed produced different miss breakdowns")
	}
}

func TestObserverSeesMeasuredPhaseOnly(t *testing.T) {
	var observed uint64
	var badCore bool
	r, err := New(Options{
		Config:          smallCfg(),
		Work:            uniformWork(4, 2),
		WarmupAccesses:  200,
		MeasureAccesses: 400,
		Observer: func(core int, cycle uint64, line addr.Line, write bool, res coherence.AccessResult) {
			observed++
			if core < 0 || core >= 4 {
				badCore = true
			}
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	r.Run()
	if observed != 4*400 {
		t.Fatalf("observer saw %d accesses, want %d (measured phase only)", observed, 4*400)
	}
	if badCore {
		t.Fatal("observer saw an out-of-range core")
	}
}

func TestStatsAreMeasurePhaseDeltas(t *testing.T) {
	// With a warmup long enough to fill the caches, the measured phase of a
	// cache-fitting workload must be all hits. The per-core footprints are
	// spaced so they spread over both L2 and directory sets.
	gens := make([]trace.Generator, 4)
	for c := 0; c < 4; c++ {
		base := addr.Line(uint64(c+1) << 20)
		lines := make([]trace.Access, 16)
		for i := range lines {
			lines[i] = trace.Access{Gap: 2, Line: base + addr.Line(i*9)}
		}
		gens[c] = trace.NewFixed(lines)
	}
	r, err := New(Options{
		Config:          smallCfg(),
		Work:            trace.Workload{Name: "tiny", Gens: gens},
		WarmupAccesses:  500,
		MeasureAccesses: 500,
	})
	if err != nil {
		t.Fatal(err)
	}
	res := r.Run()
	if res.L2Misses() != 0 {
		t.Fatalf("warm cache-fitting run still missed %d times", res.L2Misses())
	}
}

func TestWorkloadCoreMismatch(t *testing.T) {
	if _, err := New(Options{Config: smallCfg(), Work: uniformWork(2, 1)}); err == nil {
		t.Fatal("core-count mismatch accepted")
	}
}

func TestInterleavingIsClockOrdered(t *testing.T) {
	// A core with tiny gaps must execute more accesses per unit time than
	// one with huge gaps, yet both finish the same access budget.
	fast := trace.Func(func() trace.Access { return trace.Access{Gap: 0, Line: 1 << 20} })
	slow := trace.Func(func() trace.Access { return trace.Access{Gap: 100, Line: 2 << 20} })
	cfg := smallCfg()
	cfg.Cores = 4
	r, err := New(Options{
		Config:          cfg,
		Work:            trace.Workload{Name: "skew", Gens: []trace.Generator{fast, slow, fast, slow}},
		WarmupAccesses:  0,
		MeasureAccesses: 100,
	})
	if err != nil {
		t.Fatal(err)
	}
	res := r.Run()
	if res.PerCore[0].Cycles >= res.PerCore[1].Cycles {
		t.Fatal("fast core took more cycles than slow core")
	}
	if res.PerCore[0].Stats.Accesses != 100 || res.PerCore[1].Stats.Accesses != 100 {
		t.Fatal("access budgets not honored")
	}
}

// TestSharedGeneratorStateDrawnInSimOrder: generators of one workload may
// share state (PARSEC threads advance one app-wide window tick), so the
// runner must draw each access only when it executes. Every generator here
// stamps its access with a shared sequence number; the observer must see the
// stamps in exactly increasing order across all cores.
func TestSharedGeneratorStateDrawnInSimOrder(t *testing.T) {
	var seq addr.Line
	gens := make([]trace.Generator, 4)
	for c := range gens {
		base := addr.Line(uint64(c+1) << 20)
		gap := 1 + 2*c
		gens[c] = trace.Func(func() trace.Access {
			seq++
			return trace.Access{Gap: gap, Line: base + seq}
		})
	}
	var last addr.Line
	r, err := New(Options{
		Config:          smallCfg(),
		Work:            trace.Workload{Name: "shared", Gens: gens},
		WarmupAccesses:  300,
		MeasureAccesses: 300,
		Observer: func(core int, _ uint64, line addr.Line, _ bool, _ coherence.AccessResult) {
			stamp := line - addr.Line(uint64(core+1)<<20)
			if stamp != last+1 && last != 0 {
				t.Fatalf("core %d executed draw %d after draw %d", core, stamp, last)
			}
			last = stamp
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	r.Run()
	if last != 4*600 {
		t.Fatalf("last draw = %d, want %d", last, 4*600)
	}
}
