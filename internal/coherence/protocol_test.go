package coherence

import (
	"testing"

	"secdir/internal/addr"
	"secdir/internal/config"
	"secdir/internal/directory"
)

// TestMOESIOwnedForwarding: a dirty line read by another core is forwarded
// without a memory write-back (M→O), and the dirty data eventually reaches
// memory when the owner's copy is displaced by a conflict.
func TestMOESIOwnedForwarding(t *testing.T) {
	cfg := smallConfig(config.Baseline)
	e := newEngine(t, cfg)
	l := addr.Line(0x333)
	e.Access(0, l, true)  // core 0: M
	e.Access(1, l, false) // core 1 reads: 0 downgrades to O
	if got := e.Stats().MemWritebacks; got != 0 {
		t.Fatalf("read sharing caused %d memory writebacks under MOESI", got)
	}
	// Core 0 evicts the dirty line: it goes to the LLC dirty; evicting the
	// TD entry later must write it back. Here we just verify the dirty bit
	// reached the directory.
	st, ok := e.l2[0].Probe(l)
	if !ok || !st.Dirty || st.Excl {
		t.Fatalf("owner state after downgrade: %+v (ok=%v), want Owned (dirty, not exclusive)", st, ok)
	}
	rd, ok2 := e.l2[1].Probe(l)
	if !ok2 || rd.Dirty || rd.Excl {
		t.Fatalf("reader state: %+v, want Shared", rd)
	}
}

// TestDirtyWritebackOnConflictInvalidation: when a TD conflict invalidates a
// dirty private copy (baseline inclusion victim), the data must be written
// back to memory.
func TestDirtyWritebackOnConflictInvalidation(t *testing.T) {
	cfg := config.SkylakeX(8)
	e := newEngine(t, cfg)
	m := e.Mapper()
	target := addr.Line(0x700)
	e.Access(0, target, true) // dirty in core 0

	wbBefore := e.Stats().MemWritebacks
	// Conflict the entry out with single-sharer lines from other cores.
	filler := 0
	for cand := addr.Line(0); filler < 400 && e.L2Contains(0, target); cand++ {
		if cand == target || m.Slice(cand) != m.Slice(target) || m.Set(cand) != m.Set(target) {
			continue
		}
		filler++
		e.Access(1+filler%7, cand, false)
	}
	if e.L2Contains(0, target) {
		t.Fatal("could not conflict the dirty line out")
	}
	if e.Stats().MemWritebacks == wbBefore {
		t.Fatal("dirty inclusion victim vanished without a memory writeback")
	}
}

// TestLatencyModel checks the Table 4 constants end to end for the access
// paths a single core exercises.
func TestLatencyModel(t *testing.T) {
	cfg := config.SkylakeX(8)
	cfg.Lat.MLP = 1 // raw round trips
	e := newEngine(t, cfg)
	l := addr.Line(0x808)
	slice := e.Mapper().Slice(l)
	dir := cfg.Lat.DirLocalRT
	if slice != 0 {
		dir = cfg.Lat.DirRemoteRT
	}

	r := e.Access(0, l, false)
	if want := cfg.Lat.L2RT + dir + cfg.Lat.DRAMRT; r.Latency != want {
		t.Errorf("memory fetch latency %d, want %d", r.Latency, want)
	}
	if r = e.Access(0, l, false); r.Latency != cfg.Lat.L1RT {
		t.Errorf("L1 hit latency %d, want %d", r.Latency, cfg.Lat.L1RT)
	}
	// Evict from L1 only (fill L1 set with conflicting lines far away).
	for i := 1; i <= cfg.L1Ways; i++ {
		e.Access(0, l+addr.Line(i*cfg.L1Sets*64), false)
	}
	if r = e.Access(0, l, false); r.Level != LevelL2 || r.Latency != cfg.Lat.L2RT {
		t.Errorf("L2 hit: level %v latency %d, want L2/%d", r.Level, r.Latency, cfg.Lat.L2RT)
	}
}

// TestRemoteVsLocalSliceLatency: accesses to the core's own slice are
// cheaper than to remote slices.
func TestRemoteVsLocalSliceLatency(t *testing.T) {
	cfg := config.SkylakeX(8)
	cfg.Lat.MLP = 1
	e := newEngine(t, cfg)
	var local, remote int
	for l := addr.Line(0); local == 0 || remote == 0; l += 9 {
		s := e.Mapper().Slice(l)
		lat := e.Access(0, l, false).Latency
		if s == 0 && local == 0 {
			local = lat
		}
		if s != 0 && remote == 0 {
			remote = lat
		}
	}
	if remote-local != cfg.Lat.DirRemoteRT-cfg.Lat.DirLocalRT {
		t.Errorf("remote-local delta = %d, want %d", remote-local, cfg.Lat.DirRemoteRT-cfg.Lat.DirLocalRT)
	}
}

// TestCrossCoreReadChain walks a line through three cores and checks the
// sharer vector at every step.
func TestCrossCoreReadChain(t *testing.T) {
	for _, kind := range []config.DirectoryKind{config.Baseline, config.SecDir} {
		cfg := smallConfig(kind)
		e := newEngine(t, cfg)
		l := addr.Line(0x99)
		for c := 0; c < 4; c++ {
			e.Access(c, l, false)
			m, _, ok := e.Slice(e.Mapper().Slice(l)).Find(l)
			if !ok || m.Sharers.Count() != c+1 {
				t.Fatalf("%v: after core %d read, sharers = %d", kind, c, m.Sharers.Count())
			}
		}
		// A write from core 3 collapses the sharer set.
		e.Access(3, l, true)
		m, _, _ := e.Slice(e.Mapper().Slice(l)).Find(l)
		if m.Sharers.Count() != 1 || !m.Sharers.Has(3) {
			t.Fatalf("%v: post-write sharers %b", kind, m.Sharers)
		}
		for c := 0; c < 3; c++ {
			if e.L2Contains(c, l) {
				t.Fatalf("%v: core %d kept its copy across a write", kind, c)
			}
		}
		if err := e.CheckInvariants(); err != nil {
			t.Fatalf("%v: %v", kind, err)
		}
	}
}

// TestWriteMissTakesDirtyOwnership: writing a line that another core holds
// dirty transfers ownership without a memory write-back (the writer's copy
// becomes the dirty one).
func TestWriteMissTakesDirtyOwnership(t *testing.T) {
	cfg := smallConfig(config.SecDir)
	e := newEngine(t, cfg)
	l := addr.Line(0x77)
	e.Access(0, l, true) // core 0 dirty
	wb := e.Stats().MemWritebacks
	e.Access(1, l, true) // core 1 takes over
	if e.Stats().MemWritebacks != wb {
		t.Fatal("ownership transfer caused a memory writeback")
	}
	st, ok := e.l2[1].Probe(l)
	if !ok || !st.Dirty || !st.Excl {
		t.Fatalf("new owner state %+v, want Modified", st)
	}
	if e.L2Contains(0, l) {
		t.Fatal("old owner kept its copy")
	}
}

// TestVDHitLevelReported: an L2 miss served out of a Victim Directory is
// classified LevelVD with the EB+VD latency charged.
func TestVDHitLevelReported(t *testing.T) {
	cfg := config.SecDirConfig(8)
	cfg.Lat.MLP = 1
	line := addr.Line(0x41200)
	e := parkEntryInVD(t, cfg, 0, line)
	r := e.Access(7, line, false)
	if r.Level != LevelVD {
		t.Fatalf("level %v, want VD", r.Level)
	}
	slice := e.Mapper().Slice(line)
	base := cfg.Lat.L2RT + cfg.Lat.DirRemoteRT
	if slice == 7 {
		base = cfg.Lat.L2RT + cfg.Lat.DirLocalRT
	}
	want := base + cfg.Lat.EBCheck + cfg.Lat.VDAccess + cfg.Lat.CacheToCore
	if r.Latency != want {
		t.Fatalf("VD hit latency %d, want %d", r.Latency, want)
	}
}

// TestActionReasonsReachStats: conflict-invalidation accounting reaches the
// right per-core counters for each reason.
func TestActionReasonsReachStats(t *testing.T) {
	cfg := smallConfig(config.SecDir)
	cfg.VDSets, cfg.VDWays = 2, 1 // tiny VDs: force ⑤
	cfg.NumRelocations = 2
	e := newEngine(t, cfg)
	w := newTrafficMix(3)
	for i := 0; i < 60000; i++ {
		c, l, wr := w()
		e.Access(c, l, wr)
	}
	var self uint64
	for _, cs := range e.Stats().Core {
		self += cs.SelfConflictInvalidations
		if cs.ConflictInvalidations != 0 {
			t.Fatalf("SecDir charged cross-core conflict invalidations: %+v", cs)
		}
	}
	if self == 0 {
		t.Fatal("tiny VDs produced no self-conflict invalidations")
	}
	if got := e.DirStats().VDDrop; got < self {
		t.Fatalf("VDDrop %d below self invalidations %d", got, self)
	}
}

// TestNoFillServedUncached: when a requester's VD insertion fails, the access
// is served but the line is not cached and no stale entry remains.
func TestNoFillServedUncached(t *testing.T) {
	cfg := smallConfig(config.SecDir)
	cfg.DisableEDTD = true
	cfg.VDSets, cfg.VDWays = 1, 1
	cfg.NumRelocations = 1
	e := newEngine(t, cfg)
	// Two lines homed on the same slice, so they share the 1-entry VD bank.
	first := addr.Line(0x10)
	second := first + 1
	for e.Mapper().Slice(second) != e.Mapper().Slice(first) {
		second++
	}
	e.Access(0, first, false)
	r := e.Access(0, second, false)
	if !r.NoFill {
		t.Fatalf("expected NoFill, got %+v", r)
	}
	if e.L2Contains(0, second) {
		t.Fatal("NoFill access left the line cached")
	}
	if _, _, ok := e.Slice(e.Mapper().Slice(second)).Find(second); ok {
		t.Fatal("NoFill access left a directory entry")
	}
	if err := e.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	if e.Stats().Core[0].NoFills == 0 {
		t.Fatal("NoFill not counted")
	}
}

// TestDirStatsAggregation: DirStats sums per-slice counters.
func TestDirStatsAggregation(t *testing.T) {
	cfg := smallConfig(config.Baseline)
	e := newEngine(t, cfg)
	for i := 0; i < 2000; i++ {
		e.Access(i%4, addr.Line(i*7), i%5 == 0)
	}
	agg := e.DirStats()
	var manual directory.Stats
	for s := 0; s < cfg.Cores; s++ {
		manual.Add(*e.Slice(s).Stats())
	}
	if agg != manual {
		t.Fatalf("DirStats mismatch:\n%+v\n%+v", agg, manual)
	}
}
