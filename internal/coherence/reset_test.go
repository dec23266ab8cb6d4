package coherence

import (
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"

	"secdir/internal/addr"
	"secdir/internal/cachesim"
	"secdir/internal/config"
)

// allDesigns are the nine directory designs Reset must restore
// bit-identically: every kind the engine supports, plus the unfixed
// Skylake-X baseline whose inclusion-victim behaviour differs and the
// bulk-re-keyed ceaser directory.
func allDesigns() []struct {
	name string
	cfg  config.Config
} {
	unfixed := smallConfig(config.Baseline)
	unfixed.AppendixAFix = false
	fixed := smallConfig(config.Baseline)
	fixed.AppendixAFix = true
	// rand-mapped is the ceaser directory with one remap step over every
	// set: the bulk re-key.
	randMapped := smallConfig(config.Ceaser)
	randMapped.RemapStep = randMapped.TDSets
	return []struct {
		name string
		cfg  config.Config
	}{
		{"skylake-unfixed", unfixed},
		{"skylake-fixed", fixed},
		{"secdir", smallConfig(config.SecDir)},
		{"way-partitioned", smallConfig(config.WayPartitioned)},
		{"rand-mapped", randMapped},
		{"skewed", smallConfig(config.SkewedDir)},
		{"dls", smallConfig(config.DLS)},
		{"tag-partitioned", smallConfig(config.TagPartitioned)},
		{"ceaser", smallConfig(config.Ceaser)},
	}
}

// burstOp is one access of a burst.
type burstOp struct {
	line  addr.Line
	write bool
}

// burst is a run of same-core accesses.
type burst struct {
	core int
	ops  []burstOp
}

// seededBursts generates the seeded bursty stream every replay consumes:
// pick a core, run 1..16 accesses on it, repeat.
func seededBursts(cores int) []burst {
	rng := rand.New(rand.NewSource(7071))
	var bursts []burst
	total := 0
	for total < 30000 {
		n := 1 + rng.Intn(16)
		b := burst{core: rng.Intn(cores), ops: make([]burstOp, n)}
		for i := range b.ops {
			b.ops[i] = burstOp{line: addr.Line(rng.Intn(1 << 12)), write: rng.Intn(4) == 0}
		}
		bursts = append(bursts, b)
		total += n
	}
	return bursts
}

// snapshotStats deep-copies the engine's counters so later sweeps don't
// mutate the captured value through the shared slice.
func snapshotStats(e *Engine) Stats {
	st := e.stats
	st.Core = append([]CoreStats(nil), e.stats.Core...)
	return st
}

// replayBursts drives the stream through an engine, flushing a rotating
// core every 64 bursts so the eviction-notification path runs too, and
// returns every AccessResult.
func replayBursts(e *Engine, bursts []burst) []AccessResult {
	var out []AccessResult
	for bi, b := range bursts {
		for _, op := range b.ops {
			out = append(out, e.Access(b.core, op.line, op.write))
		}
		if bi%64 == 63 {
			e.FlushCore(bi / 64 % e.cfg.Cores)
		}
	}
	return out
}

// touchedLines returns the distinct lines a burst stream accessed, in line
// order.
func touchedLines(bursts []burst) []addr.Line {
	touched := map[addr.Line]bool{}
	for _, b := range bursts {
		for _, op := range b.ops {
			touched[op.line] = true
		}
	}
	out := make([]addr.Line, 0, len(touched))
	for l := addr.Line(0); l < 1<<12; l++ {
		if touched[l] {
			out = append(out, l)
		}
	}
	return out
}

// memoryImage reads every line from core 0 and returns line -> result, the
// design's observable end state. (Both engines replayed identical streams,
// so equal sweeps plus equal stats pin bit-identical behaviour; data
// versioning itself is covered by TestDifferentialMemoryImage.)
func memoryImage(t *testing.T, e *Engine, lines []addr.Line) map[addr.Line]AccessResult {
	t.Helper()
	img := make(map[addr.Line]AccessResult, len(lines))
	for _, l := range lines {
		img[l] = e.Access(0, l, false)
	}
	if err := e.CheckInvariants(); err != nil {
		t.Fatalf("invariants violated after image sweep: %v", err)
	}
	return img
}

// TestResetBitIdentical pins Engine.Reset to the NewEngine oracle for every
// directory design: an engine that ran a full workload, was Reset with a new
// seed and replayed a second workload must be indistinguishable from a fresh
// engine built with that seed — every AccessResult, the counters, the
// invariants and the memory image. The engine pool (Acquire/Release), which
// every simulation and leakage trial worker draws from, rests on this
// exactness (worker-count invariance would otherwise break).
func TestResetBitIdentical(t *testing.T) {
	for _, d := range allDesigns() {
		t.Run(d.name, func(t *testing.T) {
			bursts := seededBursts(d.cfg.Cores)
			freshCfg := d.cfg.WithSeed(d.cfg.Seed + 555)
			fresh := newEngine(t, freshCfg)
			want := replayBursts(fresh, bursts)
			wantStats := snapshotStats(fresh)
			wantDir := fresh.DirStats()
			lines := touchedLines(bursts)
			wantImg := memoryImage(t, fresh, lines)

			reused := newEngine(t, d.cfg)
			replayBursts(reused, bursts) // dirty every structure first
			if err := reused.Reset(freshCfg.Seed); err != nil {
				t.Fatalf("Reset: %v", err)
			}
			got := replayBursts(reused, bursts)
			for i := range want {
				if got[i] != want[i] {
					t.Fatalf("op %d: reset %+v, fresh %+v", i, got[i], want[i])
				}
			}
			if err := reused.CheckInvariants(); err != nil {
				t.Fatalf("invariants after reset replay: %v", err)
			}
			if gotStats := snapshotStats(reused); !reflect.DeepEqual(gotStats, wantStats) {
				t.Fatalf("stats diverged:\nfresh %+v\nreset %+v", wantStats, gotStats)
			}
			if gotDir := reused.DirStats(); gotDir != wantDir {
				t.Fatalf("directory stats diverged:\nfresh %+v\nreset %+v", wantDir, gotDir)
			}
			if img := memoryImage(t, reused, lines); !reflect.DeepEqual(img, wantImg) {
				t.Fatal("memory image diverged from fresh engine")
			}
		})
	}
}

// TestSlicePartitionProperty pins the address partition the engine routes
// by: every line maps to exactly one home slice, the mapping is a pure
// function of the line (stable across mapper instances), and the directory
// set index the engine hands the slices — the cachesim shift-and-mask fast
// path — agrees with the mapper's Set for every line.
func TestSlicePartitionProperty(t *testing.T) {
	cfg := smallConfig(config.SecDir)
	m := addr.NewMapper(cfg.Cores, cfg.TDSets)
	m2 := addr.NewMapper(cfg.Cores, cfg.TDSets)
	index := cachesim.ShiftIndex(addr.SetShift, cfg.TDSets)

	prop := func(raw uint64) bool {
		l := addr.Line(raw & (1<<34 - 1))
		s := m.Slice(l)
		if s < 0 || s >= cfg.Cores {
			t.Errorf("line %#x: slice %d out of range", uint64(l), s)
			return false
		}
		if m2.Slice(l) != s || m2.Set(l) != m.Set(l) {
			t.Errorf("line %#x: mapping not stable across mapper instances", uint64(l))
			return false
		}
		if index.Of(l) != m.Set(l) {
			t.Errorf("line %#x: ShiftIndex set %d != mapper set %d", uint64(l), index.Of(l), m.Set(l))
			return false
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 5000}); err != nil {
		t.Error(err)
	}
}
