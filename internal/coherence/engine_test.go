package coherence

import (
	"math/rand"
	"testing"

	"secdir/internal/addr"
	"secdir/internal/config"
	"secdir/internal/directory"
)

func newEngine(t *testing.T, cfg config.Config) *Engine {
	t.Helper()
	e, err := NewEngine(cfg)
	if err != nil {
		t.Fatalf("NewEngine: %v", err)
	}
	return e
}

// smallConfig returns a scaled-down machine so conflict paths are exercised
// quickly: tiny L2s and directories with the same structural relationships as
// the full Skylake-X configuration.
func smallConfig(kind config.DirectoryKind) config.Config {
	cfg := config.SkylakeX(4)
	cfg.L1Sets, cfg.L1Ways = 4, 2
	cfg.L2Sets, cfg.L2Ways = 16, 4
	cfg.TDSets, cfg.TDWays = 32, 3
	cfg.EDSets, cfg.EDWays = 32, 3
	cfg.Kind = kind
	switch kind {
	case config.SecDir:
		cfg.AppendixAFix = true // SecDir always incorporates the Appendix-A fix
		cfg.EDWays = 2
		cfg.VDSets, cfg.VDWays = 8, 2
		cfg.NumRelocations = 4
		cfg.VDCuckoo = true
		cfg.VDEmptyBit = true
	case config.WayPartitioned:
		// Per-core partitioning needs at least one way per core.
		cfg.TDWays, cfg.EDWays = 4, 4
		cfg.AppendixAFix = true
	case config.Ceaser:
		cfg.AppendixAFix = true
		cfg.RekeyEvery = 400 // exercise the remap paths in short tests
	case config.SkewedDir, config.DLS, config.TagPartitioned:
		cfg.AppendixAFix = true
	}
	return cfg
}

func TestSingleCoreReadWrite(t *testing.T) {
	for _, kind := range []config.DirectoryKind{config.Baseline, config.SecDir} {
		t.Run(kind.String(), func(t *testing.T) {
			e := newEngine(t, smallConfig(kind))
			l := addr.Line(0x1234)

			r := e.Access(0, l, false)
			if r.Level != LevelMemory {
				t.Fatalf("first read level = %v, want memory", r.Level)
			}
			if m, w, ok := e.Slice(e.Mapper().Slice(l)).Find(l); !ok || w != directory.WhereED || !m.Sharers.Has(0) {
				t.Fatalf("after first read: entry=%v where=%v ok=%v", m, w, ok)
			}
			if r = e.Access(0, l, false); r.Level != LevelL1 {
				t.Fatalf("second read level = %v, want L1", r.Level)
			}
			// A write to the Exclusive copy must be silent (no upgrade).
			if r = e.Access(0, l, true); r.Level != LevelL1 {
				t.Fatalf("write level = %v, want L1", r.Level)
			}
			if got := e.Stats().Core[0].Upgrades; got != 0 {
				t.Fatalf("silent E->M write performed %d upgrades", got)
			}
			if err := e.CheckInvariants(); err != nil {
				t.Fatal(err)
			}
		})
	}
}

func TestCrossCoreSharingAndInvalidation(t *testing.T) {
	for _, kind := range []config.DirectoryKind{config.Baseline, config.SecDir} {
		t.Run(kind.String(), func(t *testing.T) {
			e := newEngine(t, smallConfig(kind))
			l := addr.Line(0xBEEF)

			e.Access(0, l, false) // core 0 fetches (E)
			r := e.Access(1, l, false)
			if r.Level != LevelEDTD {
				t.Fatalf("core 1 read level = %v, want ED+TD", r.Level)
			}
			m, _, _ := e.Slice(e.Mapper().Slice(l)).Find(l)
			if m.Sharers.Count() != 2 {
				t.Fatalf("sharers = %d, want 2", m.Sharers.Count())
			}

			// Core 1 writes: core 0 must lose its copy.
			e.Access(1, l, true)
			if e.L2Contains(0, l) {
				t.Fatal("core 0 still caches the line after core 1's write")
			}
			m, _, _ = e.Slice(e.Mapper().Slice(l)).Find(l)
			if !m.Sharers.Has(1) || m.Sharers.Count() != 1 {
				t.Fatalf("sharers after write = %b, want only core 1", m.Sharers)
			}
			if err := e.CheckInvariants(); err != nil {
				t.Fatal(err)
			}
		})
	}
}

// TestRandomTrafficInvariants drives random multicore traffic through both
// designs and checks the full coherence invariants periodically. This is the
// main protocol fuzz test: every Table 2 transition fires under this load.
func TestRandomTrafficInvariants(t *testing.T) {
	for _, kind := range []config.DirectoryKind{config.Baseline, config.SecDir} {
		for _, fix := range []bool{true, false} {
			name := kind.String()
			if !fix {
				name += "-unfixed"
			}
			t.Run(name, func(t *testing.T) {
				cfg := smallConfig(kind)
				cfg.AppendixAFix = fix
				e := newEngine(t, cfg)
				rng := rand.New(rand.NewSource(42))
				// A footprint much larger than L2+directory so that every
				// conflict path triggers, with a hot subset for sharing.
				hot := make([]addr.Line, 64)
				for i := range hot {
					hot[i] = addr.Line(rng.Intn(1 << 14))
				}
				for i := 0; i < 60000; i++ {
					c := rng.Intn(cfg.Cores)
					var l addr.Line
					if rng.Intn(4) == 0 {
						l = hot[rng.Intn(len(hot))]
					} else {
						l = addr.Line(rng.Intn(1 << 14))
					}
					e.Access(c, l, rng.Intn(5) == 0)
					if i%5000 == 4999 {
						if err := e.CheckInvariants(); err != nil {
							t.Fatalf("after %d accesses: %v", i+1, err)
						}
					}
				}
				if err := e.CheckInvariants(); err != nil {
					t.Fatal(err)
				}
				ds := e.DirStats()
				if ds.MemFetches == 0 || ds.EDToTD == 0 {
					t.Fatalf("traffic did not exercise migrations: %+v", ds)
				}
				if kind == config.SecDir && ds.TDToVD == 0 {
					t.Fatal("SecDir traffic never exercised transition ③ (TD→VD)")
				}
			})
		}
	}
}

// TestSecDirNoCrossCoreInclusionVictims is the core security property: under
// arbitrary traffic, SecDir never invalidates a private line because of a
// shared-structure (TD/ED) conflict.
func TestSecDirNoCrossCoreInclusionVictims(t *testing.T) {
	cfg := smallConfig(config.SecDir)
	e := newEngine(t, cfg)
	rng := rand.New(rand.NewSource(7))
	for i := 0; i < 80000; i++ {
		e.Access(rng.Intn(cfg.Cores), addr.Line(rng.Intn(1<<15)), rng.Intn(6) == 0)
	}
	for c, cs := range e.Stats().Core {
		if cs.ConflictInvalidations != 0 {
			t.Fatalf("core %d suffered %d shared-structure inclusion victims on SecDir", c, cs.ConflictInvalidations)
		}
	}
	if e.DirStats().InclusionVictims != 0 {
		t.Fatal("SecDir directory reported inclusion victims")
	}
}

// TestBaselineCreatesInclusionVictims documents the vulnerability SecDir
// fixes: baseline TD conflicts invalidate live private copies.
func TestBaselineCreatesInclusionVictims(t *testing.T) {
	cfg := smallConfig(config.Baseline)
	e := newEngine(t, cfg)
	rng := rand.New(rand.NewSource(7))
	for i := 0; i < 80000; i++ {
		e.Access(rng.Intn(cfg.Cores), addr.Line(rng.Intn(1<<15)), rng.Intn(6) == 0)
	}
	var total uint64
	for _, cs := range e.Stats().Core {
		total += cs.ConflictInvalidations
	}
	if total == 0 {
		t.Fatal("baseline produced no inclusion victims under thrashing traffic")
	}
}

func TestFlushCore(t *testing.T) {
	cfg := smallConfig(config.SecDir)
	e := newEngine(t, cfg)
	for i := 0; i < 32; i++ {
		e.Access(2, addr.Line(i*64+1), i%3 == 0)
	}
	e.FlushCore(2)
	for i := 0; i < 32; i++ {
		if e.L2Contains(2, addr.Line(i*64+1)) {
			t.Fatalf("line %d survived FlushCore", i)
		}
	}
	if err := e.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}
