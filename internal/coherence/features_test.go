package coherence

import (
	"testing"

	"secdir/internal/addr"
	"secdir/internal/config"
	"secdir/internal/directory"
)

// parkEntryInVD drives a line held by the victim core into its Victim
// Directory by filling the shared ED/TD set with conflicting single-sharer
// lines from other cores. It returns the engine once the entry is VD-resident.
func parkEntryInVD(t *testing.T, cfg config.Config, victim int, line addr.Line) *Engine {
	t.Helper()
	e, err := NewEngine(cfg)
	if err != nil {
		t.Fatal(err)
	}
	e.Access(victim, line, false)
	m := e.Mapper()
	slice, set := m.Slice(line), m.Set(line)
	filler := 0
	for cand := addr.Line(0); filler < 200; cand++ {
		if cand == line || m.Slice(cand) != slice || m.Set(cand) != set {
			continue
		}
		filler++
		e.Access(1+filler%(cfg.Cores-1), cand, false)
		if _, w, _ := e.Slice(slice).Find(line); w == directory.WhereVD {
			if !e.L2Contains(victim, line) {
				t.Fatal("victim lost its line while parking")
			}
			return e
		}
	}
	t.Fatal("could not park the victim's entry in its VD")
	return nil
}

// remoteReadLatency measures the latency core 1 sees reading a line that
// core 0 holds (forwarded through the directory).
func remoteReadLatency(e *Engine, line addr.Line) int {
	return e.Access(1, line, false).Latency
}

// TestTimingMitigation verifies §6: without mitigation, a coherence
// transaction whose entry sits in a VD is slower than one whose entry sits in
// the ED/TD; with mitigation the two are indistinguishable.
func TestTimingMitigation(t *testing.T) {
	line := addr.Line(0x41200)

	measure := func(mit config.TimingMitigation) (edLat, vdLat int) {
		cfg := config.SecDirConfig(8)
		cfg.Mitigation = mit
		// ED/TD-resident entry: fresh machine, core 0 fetches, core 1 reads.
		e, err := NewEngine(cfg)
		if err != nil {
			t.Fatal(err)
		}
		e.Access(0, line, false)
		edLat = remoteReadLatency(e, line)

		// VD-resident entry: park, then read from another core.
		e2 := parkEntryInVD(t, cfg, 0, line)
		vdLat = remoteReadLatency(e2, line)
		return edLat, vdLat
	}

	edOff, vdOff := measure(config.MitigationOff)
	if vdOff <= edOff {
		t.Fatalf("unmitigated: VD-path latency %d not above ED-path %d (no channel to mitigate?)", vdOff, edOff)
	}
	for _, mit := range []config.TimingMitigation{config.MitigationNaive, config.MitigationSelective} {
		ed, vd := measure(mit)
		if ed != vd {
			t.Errorf("%v: ED-path %d != VD-path %d — the timing channel is open", mit, ed, vd)
		}
	}
}

// TestSelectiveMitigationSparesLocalMisses checks that the selective variant
// does not slow transactions that involve no other core (plain memory
// fetches), while the naive variant slows those too.
func TestSelectiveMitigationSparesLocalMisses(t *testing.T) {
	latency := func(mit config.TimingMitigation) int {
		cfg := config.SecDirConfig(8)
		cfg.Mitigation = mit
		e, err := NewEngine(cfg)
		if err != nil {
			t.Fatal(err)
		}
		// A second fetch of an LLC-resident, sharer-free line is an
		// ED/TD-satisfied transaction with no cross-core involvement.
		l := addr.Line(0x9100)
		e.Access(0, l, false)
		e.FlushCore(0) // line now only in the LLC (TD entry)
		return e.Access(0, l, false).Latency
	}
	off := latency(config.MitigationOff)
	sel := latency(config.MitigationSelective)
	naive := latency(config.MitigationNaive)
	if sel != off {
		t.Errorf("selective mitigation slowed a local transaction: %d vs %d", sel, off)
	}
	if naive <= off {
		t.Errorf("naive mitigation did not slow a local transaction: %d vs %d", naive, off)
	}
}

// TestMESIWritebackOnSharedDirty checks the protocol switch: under MESI a
// remote read of a Modified line writes back to memory; under MOESI the owner
// keeps the dirty data (Owned state) and no write-back happens.
func TestMESIWritebackOnSharedDirty(t *testing.T) {
	run := func(p config.Protocol) uint64 {
		cfg := config.SecDirConfig(8)
		cfg.Protocol = p
		e, err := NewEngine(cfg)
		if err != nil {
			t.Fatal(err)
		}
		l := addr.Line(0x5150)
		e.Access(0, l, true)  // core 0: Modified
		e.Access(1, l, false) // core 1 reads: M→O (MOESI) or WB + S,S (MESI)
		return e.Stats().MemWritebacks
	}
	if wb := run(config.MOESI); wb != 0 {
		t.Errorf("MOESI wrote back %d times on a read of a dirty line", wb)
	}
	if wb := run(config.MESI); wb != 1 {
		t.Errorf("MESI wrote back %d times, want 1", wb)
	}
}

// TestMESIInvariants runs random traffic under MESI.
func TestMESIInvariants(t *testing.T) {
	cfg := smallConfig(config.SecDir)
	cfg.Protocol = config.MESI
	e := newEngine(t, cfg)
	w := newTrafficMix(7)
	for i := 0; i < 40000; i++ {
		c, l, wr := w()
		e.Access(c, l, wr)
	}
	if err := e.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

// TestVDSearchBatching checks §5.1: a batched design reports multiple search
// rounds, reads stop early once a match is found, and the protocol outcome is
// unchanged.
func TestVDSearchBatching(t *testing.T) {
	line := addr.Line(0x41200)
	cfg := config.SecDirConfig(8)
	cfg.VDSearchBatch = 2
	e := parkEntryInVD(t, cfg, 0, line)
	res := e.Access(7, line, false)
	if res.Level != LevelVD {
		t.Fatalf("batched read level %v, want VD", res.Level)
	}
	// Compare with an unbatched machine: same outcome, lower or equal
	// bank-probe count for the batched read (early out).
	e2 := parkEntryInVD(t, cfg, 0, line)
	ds := e2.DirStats()
	before := ds.VDLookups
	e2.Access(7, line, false)
	probes := e2.DirStats().VDLookups - before
	if probes > 8 {
		t.Fatalf("batched read probed %d banks", probes)
	}
	if err := e.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

// TestVDStashReducesSelfConflicts checks the cuckoo-stash extension under
// worst-case pressure: fewer transition-⑤ drops with a stash.
func TestVDStashReducesSelfConflicts(t *testing.T) {
	run := func(stash int) uint64 {
		cfg := smallConfig(config.SecDir)
		cfg.DisableEDTD = true
		cfg.VDStash = stash
		e := newEngine(t, cfg)
		w := newTrafficMix(11)
		for i := 0; i < 40000; i++ {
			c, l, wr := w()
			e.Access(c, l, wr)
		}
		return e.DirStats().VDDrop
	}
	without, with := run(0), run(4)
	if without == 0 {
		t.Fatal("pressure too low: no VD conflicts without a stash")
	}
	if with >= without {
		t.Errorf("stash did not reduce VD drops: %d vs %d", with, without)
	}
	// The stash machine must still satisfy the invariants.
	cfg := smallConfig(config.SecDir)
	cfg.VDStash = 4
	e := newEngine(t, cfg)
	w := newTrafficMix(13)
	for i := 0; i < 40000; i++ {
		c, l, wr := w()
		e.Access(c, l, wr)
	}
	if err := e.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

// newTrafficMix returns a deterministic pseudo-random traffic source.
func newTrafficMix(seed uint64) func() (core int, line addr.Line, write bool) {
	state := seed
	next := func() uint64 {
		state ^= state << 13
		state ^= state >> 7
		state ^= state << 17
		return state
	}
	return func() (int, addr.Line, bool) {
		v := next()
		return int(v % 4), addr.Line(next() % (1 << 14)), next()%6 == 0
	}
}

// TestMeshLatencyModel checks the distance-based directory latency: local
// access costs DirLocalRT, and each Manhattan hop on the 4x2 mesh adds
// MeshHopRT round-trip cycles.
func TestMeshLatencyModel(t *testing.T) {
	cfg := config.SkylakeX(8)
	cfg.Lat.MLP = 1
	cfg.Lat.MeshHopRT = 10
	e := newEngine(t, cfg)
	memLat := cfg.Lat.L2RT + cfg.Lat.DRAMRT
	// Find, for core 0, lines homed at slice 0 (0 hops), slice 1 (1 hop)
	// and slice 7 (4 hops: 3 across + 1 down), and check the cold-miss
	// latency of each.
	want := map[int]int{0: 0, 1: 1, 7: 4}
	seen := map[int]bool{}
	for l := addr.Line(0); len(seen) < len(want); l += 7 {
		s := e.Mapper().Slice(l)
		hops, ok := want[s]
		if !ok || seen[s] {
			continue
		}
		seen[s] = true
		got := e.Access(0, l, false).Latency
		if exp := memLat + cfg.Lat.DirLocalRT + 10*hops; got != exp {
			t.Errorf("slice %d (%d hops): latency %d, want %d", s, hops, got, exp)
		}
	}
}

// TestMeshHopsSymmetry: the hop metric is symmetric and zero on the
// diagonal.
func TestMeshHopsSymmetry(t *testing.T) {
	for a := 0; a < 8; a++ {
		if meshHops(a, a, 8) != 0 {
			t.Errorf("meshHops(%d,%d) != 0", a, a)
		}
		for b := 0; b < 8; b++ {
			if meshHops(a, b, 8) != meshHops(b, a, 8) {
				t.Errorf("meshHops asymmetric for %d,%d", a, b)
			}
		}
	}
	// Corners of the 4x2 mesh are 4 hops apart.
	if got := meshHops(0, 7, 8); got != 4 {
		t.Errorf("meshHops(0,7) = %d, want 4", got)
	}
}

// TestWayPartitionedEngine runs random traffic on the way-partitioned design
// and checks invariants plus its construction limit.
func TestWayPartitionedEngine(t *testing.T) {
	cfg := config.WayPartitionedConfig(8)
	e := newEngine(t, cfg)
	w := newTrafficMix(21)
	for i := 0; i < 40000; i++ {
		c, l, wr := w()
		e.Access(c&3, l, wr) // traffic mix emits 0..3; machine has 8 cores
	}
	if err := e.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	if _, err := NewEngine(config.WayPartitionedConfig(16)); err == nil {
		t.Fatal("way-partitioned engine built at 16 cores (11 TD ways)")
	}
}

// TestRandMappedEngineLongRun is the regression test for a mid-upgrade loss:
// re-keying during an upgrade's housekeeping may invalidate the writer's own
// just-upgraded line; the engine must not re-install it in the L1 (doing so
// broke the L1⊆L2 invariant and tripped a panic on the next write).
func TestRandMappedEngineLongRun(t *testing.T) {
	cfg := config.RandMappedConfig(8, 1_500) // aggressive re-keying
	cfg.L2Sets, cfg.L2Ways = 64, 4           // small caches keep it fast
	cfg.L1Sets, cfg.L1Ways = 8, 2
	cfg.TDSets, cfg.TDWays = 128, 4
	cfg.EDSets, cfg.EDWays = 128, 4
	e := newEngine(t, cfg)
	w := newTrafficMix(31)
	for i := 0; i < 120_000; i++ {
		c, l, _ := w()
		// Write-heavy to exercise the upgrade path constantly.
		e.Access(c, l%4096, i%3 == 0)
		if i%20_000 == 19_999 {
			if err := e.CheckInvariants(); err != nil {
				t.Fatalf("after %d accesses: %v", i+1, err)
			}
		}
	}
	var rekeys uint64
	for s := 0; s < cfg.Cores; s++ {
		rekeys += e.Slice(s).(*directory.CeaserSlice).Epochs
	}
	if rekeys == 0 {
		t.Fatal("the run never re-keyed; regression scenario not exercised")
	}
}

// TestWayPartitionedLongRun is the regression test for the fill-cascade
// self-invalidation: filling a line can evict a victim whose directory
// cascade conflict-invalidates the just-filled line (likeliest with the
// way-partitioned design's tiny per-core partitions); the engine must not
// then install the line in the L1.
func TestWayPartitionedLongRun(t *testing.T) {
	cfg := config.WayPartitionedConfig(8)
	cfg.L2Sets, cfg.L2Ways = 64, 8
	cfg.L1Sets, cfg.L1Ways = 8, 2
	cfg.TDSets, cfg.TDWays = 64, 8
	cfg.EDSets, cfg.EDWays = 64, 8
	e := newEngine(t, cfg)
	w := newTrafficMix(41)
	for i := 0; i < 150_000; i++ {
		c, l, wr := w()
		e.Access(int(uint(c))%8, l%8192, wr)
		if i%25_000 == 24_999 {
			if err := e.CheckInvariants(); err != nil {
				t.Fatalf("after %d accesses: %v", i+1, err)
			}
		}
	}
}

// TestOccupancySnapshot checks the introspection API: after warming a SecDir
// machine, the ED holds entries, conflicts have parked some in VDs, and the
// per-core totals add up.
func TestOccupancySnapshot(t *testing.T) {
	cfg := smallConfig(config.SecDir)
	e := newEngine(t, cfg)
	w := newTrafficMix(51)
	for i := 0; i < 40000; i++ {
		c, l, wr := w()
		e.Access(c, l, wr)
	}
	o := e.OccupancySnapshot()
	if o.EDEntries == 0 || o.EDCapacity == 0 {
		t.Fatalf("ED occupancy empty: %+v", o)
	}
	if o.EDFill() <= 0 || o.EDFill() > 1 || o.TDFill() > 1 || o.VDFill() > 1 {
		t.Fatalf("fill fractions out of range: %v %v %v", o.EDFill(), o.TDFill(), o.VDFill())
	}
	sum := 0
	for _, n := range o.VDPerCore {
		sum += n
	}
	if sum != o.VDEntries {
		t.Fatalf("per-core VD sum %d != total %d", sum, o.VDEntries)
	}
	// Baseline machines have no VD.
	eb := newEngine(t, smallConfig(config.Baseline))
	eb.Access(0, 1, false)
	if ob := eb.OccupancySnapshot(); ob.VDCapacity != 0 || ob.VDFill() != 0 {
		t.Fatalf("baseline reports VD occupancy: %+v", ob)
	}
}
