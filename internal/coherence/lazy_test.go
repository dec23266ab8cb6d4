package coherence

import (
	"reflect"
	"testing"

	"secdir/internal/config"
	"secdir/internal/metrics"
)

// eagerEngine builds an engine and then every directory slice up front
// through Slice, the way NewEngine built them before slices became lazy.
func eagerEngine(t *testing.T, e *Engine) *Engine {
	t.Helper()
	for s := 0; s < e.cfg.Cores; s++ {
		e.Slice(s)
	}
	return e
}

// builtSlices counts the directory slices an engine has built.
func builtSlices(e *Engine) int {
	n := 0
	for _, sl := range e.slices {
		if sl != nil {
			n++
		}
	}
	return n
}

// homedOn keeps only the accesses whose line is homed on one of the given
// slices, so a replay leaves the other slices untouched.
func homedOn(e *Engine, bursts []burst, slices ...int) []burst {
	keep := map[int]bool{}
	for _, s := range slices {
		keep[s] = true
	}
	var out []burst
	for _, b := range bursts {
		nb := burst{core: b.core}
		for _, op := range b.ops {
			if keep[e.mapper.Slice(op.line)] {
				nb.ops = append(nb.ops, op)
			}
		}
		if len(nb.ops) > 0 {
			out = append(out, nb)
		}
	}
	return out
}

// requireSameEngines checks everything an engine exposes about its state
// without driving it: counters, directory counters, occupancy (capacities
// included) and the invariants.
func requireSameEngines(t *testing.T, stage string, lazy, eager *Engine) {
	t.Helper()
	if got, want := snapshotStats(lazy), snapshotStats(eager); !reflect.DeepEqual(got, want) {
		t.Fatalf("%s: stats diverged:\neager %+v\nlazy  %+v", stage, want, got)
	}
	if got, want := lazy.DirStats(), eager.DirStats(); got != want {
		t.Fatalf("%s: directory stats diverged:\neager %+v\nlazy  %+v", stage, want, got)
	}
	if got, want := lazy.OccupancySnapshot(), eager.OccupancySnapshot(); !reflect.DeepEqual(got, want) {
		t.Fatalf("%s: occupancy diverged:\neager %+v\nlazy  %+v", stage, want, got)
	}
	if err := lazy.CheckInvariants(); err != nil {
		t.Fatalf("%s: lazy engine invariants: %v", stage, err)
	}
}

// requireSameReplay replays bursts into both engines and checks every
// AccessResult.
func requireSameReplay(t *testing.T, stage string, lazy, eager *Engine, bursts []burst) {
	t.Helper()
	want := replayBursts(eager, bursts)
	got := replayBursts(lazy, bursts)
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("%s: op %d: lazy %+v, eager %+v", stage, i, got[i], want[i])
		}
	}
}

// TestLazySlicesMatchEager pins lazy slice construction to the eager oracle
// for every directory design: an engine whose slices are built on first use
// must be indistinguishable from one whose slices were all built up front —
// fresh, after a stream that touches only one slice (the prime+probe shape),
// after a Reset, and after a stream that touches every slice. The inspection
// calls (DirStats, OccupancySnapshot, CheckInvariants) must not build the
// slices they skip.
func TestLazySlicesMatchEager(t *testing.T) {
	for _, d := range allDesigns() {
		t.Run(d.name, func(t *testing.T) {
			lazy := newEngine(t, d.cfg)
			eager := eagerEngine(t, newEngine(t, d.cfg))
			if n := builtSlices(lazy); n != 0 {
				t.Fatalf("NewEngine built %d slices, want 0", n)
			}
			requireSameEngines(t, "fresh", lazy, eager)
			if n := builtSlices(lazy); n != 0 {
				t.Fatalf("inspection built %d slices, want 0", n)
			}

			bursts := seededBursts(d.cfg.Cores)
			one := homedOn(lazy, bursts, 2)
			requireSameReplay(t, "one slice", lazy, eager, one)
			requireSameEngines(t, "one slice", lazy, eager)
			if n := builtSlices(lazy); n != 1 {
				t.Fatalf("a stream homed on one slice built %d slices, want 1", n)
			}

			for _, e := range []*Engine{lazy, eager} {
				if err := e.Reset(d.cfg.Seed + 99); err != nil {
					t.Fatalf("Reset: %v", err)
				}
			}
			requireSameEngines(t, "reset", lazy, eager)
			requireSameReplay(t, "reset, two slices", lazy, eager, homedOn(lazy, bursts, 0, 3))
			requireSameEngines(t, "reset, two slices", lazy, eager)

			requireSameReplay(t, "all slices", lazy, eager, bursts)
			requireSameEngines(t, "all slices", lazy, eager)
			lines := touchedLines(bursts)
			if img := memoryImage(t, lazy, lines); !reflect.DeepEqual(img, memoryImage(t, eager, lines)) {
				t.Fatal("memory image diverged from the eager engine")
			}
		})
	}
}

// TestLazySliceGetsAttachedMetrics: a SecDir slice built after AttachMetrics
// reports into the registry, exactly like one built before it.
func TestLazySliceGetsAttachedMetrics(t *testing.T) {
	cfg := smallConfig(config.SecDir)
	snap := func(build func(e *Engine)) metrics.Snapshot {
		e := newEngine(t, cfg)
		reg := metrics.New()
		build(e)
		e.AttachMetrics(reg)
		replayBursts(e, seededBursts(cfg.Cores))
		e.foldOccupancy(reg)
		return reg.Snapshot()
	}
	eager := snap(func(e *Engine) { eagerEngine(t, e) })
	lazy := snap(func(*Engine) {})
	if !reflect.DeepEqual(lazy, eager) {
		t.Fatalf("metrics diverged:\neager %+v\nlazy  %+v", eager, lazy)
	}
}

// TestDetachStopsSliceMetrics is the complement: once AttachMetrics(nil)
// detaches the engine, no built slice writes into the old registry any
// more, though the machine goes on relocating entries into its VDs.
func TestDetachStopsSliceMetrics(t *testing.T) {
	cfg := smallConfig(config.SecDir)
	e := newEngine(t, cfg)
	reg := metrics.New()
	e.AttachMetrics(reg)
	bursts := seededBursts(cfg.Cores)
	replayBursts(e, bursts)
	before := reg.Snapshot()
	if before.Counters["dir/td_to_vd"] == 0 || before.Histograms["vd/reloc_depth"].N == 0 {
		t.Fatal("the workload relocated nothing into the VDs")
	}

	e.AttachMetrics(nil)
	if err := e.Reset(3); err != nil {
		t.Fatal(err)
	}
	replayBursts(e, bursts)
	if e.DirStats().TDToVD == 0 {
		t.Fatal("the detached run relocated nothing into the VDs")
	}
	if after := reg.Snapshot(); !reflect.DeepEqual(after, before) {
		t.Fatalf("the detached engine still wrote into the registry:\nbefore %+v\nafter  %+v", before, after)
	}
}
