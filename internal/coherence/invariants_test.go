package coherence

import (
	"math/rand"
	"strings"
	"testing"

	"secdir/internal/addr"
	"secdir/internal/cachesim"
	"secdir/internal/config"
	"secdir/internal/core"
	"secdir/internal/directory"
)

// hasRoom reports whether l's set in c has a free way, so putting l there
// displaces nothing.
func hasRoom[P any](c *cachesim.Cache[P], l addr.Line) bool {
	return len(c.LinesInSet(c.SetOf(l))) < c.Ways()
}

// pickLine returns a line no L2 or directory holds, whose sets in the L2s
// of cores 0 and 1 and in its slice's ED and TD have a free way: accessing
// it from those cores or planting it there evicts nothing, so a corruption
// stays the only violation in the machine.
func pickLine(t *testing.T, e *Engine) addr.Line {
	t.Helper()
	for l := addr.Line(0x4000); l < 0x8000; l++ {
		sl := e.Slice(e.mapper.Slice(l))
		if _, _, ok := sl.Find(l); ok {
			continue
		}
		ok := true
		for c := 0; c < e.cfg.Cores && ok; c++ {
			_, cached := e.l2[c].Probe(l)
			ok = !cached && (c > 1 || hasRoom(e.l2[c], l))
		}
		if td, isTDED := sl.(interface{ TDED() *directory.TDED }); ok && isTDED {
			ok = hasRoom(td.TDED().ED, l) && hasRoom(td.TDED().TD, l)
		}
		if ok {
			return l
		}
	}
	t.Fatal("no free line to corrupt")
	return 0
}

// tdedOf returns the ED/TD pair tracking l.
func tdedOf(e *Engine, l addr.Line) *directory.TDED {
	return e.Slice(e.mapper.Slice(l)).(interface{ TDED() *directory.TDED }).TDED()
}

// mustBeIn fails the test unless l's directory entry is in the given
// structure: a corruption case's setup must reach the state it corrupts.
func mustBeIn(t *testing.T, e *Engine, l addr.Line, want directory.Where) *directory.Meta {
	t.Helper()
	_, w, ok := e.Slice(e.mapper.Slice(l)).Find(l)
	if !ok || w != want {
		t.Fatalf("setup: line %#x is in %v (found=%v), want %v", uint64(l), w, ok, want)
	}
	tded := tdedOf(e, l)
	if w == directory.WhereED {
		m, _ := tded.ED.Probe(l)
		return m
	}
	m, _ := tded.TD.Probe(l)
	return m
}

// insertVD plants l in core c's VD bank of the SecDir slice tracking l;
// the plant must evict nothing.
func insertVD(t *testing.T, e *Engine, l addr.Line, c int) {
	t.Helper()
	if _, evicted := e.Slice(e.mapper.Slice(l)).(*core.Slice).VDBank(c).Insert(l); evicted {
		t.Fatal("setup: VD insert evicted a live entry")
	}
}

// dropPrivate removes l from core c's L1 and L2 behind the directory's back.
func dropPrivate(e *Engine, c int, l addr.Line) {
	e.l1[c].Remove(l)
	e.l2[c].Remove(l)
}

// TestInvariantCheckerDetectsCorruption is the audit's corruption matrix:
// for every failure branch of CheckInvariants, a live engine is corrupted
// in exactly that way and the audit must return an error naming the
// violation. It guards against a vacuous or weakened checker, on the SecDir
// slice, on a TDED design (the baseline) and on an entry-walk design
// (skewed).
func TestInvariantCheckerDetectsCorruption(t *testing.T) {
	const (
		secdir   = 1 << iota
		baseline // the ED/TD pair without VDs
		skewed   // a single-structure design walked through entryRanger
		every    = secdir | baseline | skewed
		tded     = secdir | baseline
	)
	kinds := []struct {
		bit  int
		kind config.DirectoryKind
	}{{secdir, config.SecDir}, {baseline, config.Baseline}, {skewed, config.SkewedDir}}

	cases := []struct {
		name    string
		designs int
		// corrupt drives the engine to the state it needs with legal
		// accesses to l, then breaks one invariant.
		corrupt func(t *testing.T, e *Engine, l addr.Line)
		want    string
	}{
		{"L1 line missing from L2", every, func(t *testing.T, e *Engine, l addr.Line) {
			e.Access(0, l, false)
			e.l2[0].Remove(l)
		}, "not in L2"},
		{"L2 line with no entry", every, func(t *testing.T, e *Engine, l addr.Line) {
			e.l2[0].Put(l, l2Line{})
		}, "has no directory entry"},
		{"entry without the core's sharer bit", every, func(t *testing.T, e *Engine, l addr.Line) {
			e.Access(0, l, false)
			e.l2[1].Put(l, l2Line{})
		}, "lacks sharer bit"},
		{"exclusive copy with two sharers", every, func(t *testing.T, e *Engine, l addr.Line) {
			e.Access(0, l, false)
			e.Access(1, l, false)
			st, _ := e.l2[0].Probe(l)
			st.Excl = true
		}, "exclusive line"},
		{"sharer bit for a core that does not cache the line", every, func(t *testing.T, e *Engine, l addr.Line) {
			e.Access(0, l, false)
			e.Access(1, l, false)
			dropPrivate(e, 1, l)
		}, "non-caching sharer 1"},
		{"ED entry with no sharers", tded, func(t *testing.T, e *Engine, l addr.Line) {
			e.Access(0, l, false)
			m := mustBeIn(t, e, l, directory.WhereED)
			dropPrivate(e, 0, l)
			m.Sharers = 0
		}, "has no sharers"},
		{"ED entry that claims data", tded, func(t *testing.T, e *Engine, l addr.Line) {
			e.Access(0, l, false)
			mustBeIn(t, e, l, directory.WhereED).HasData = true
		}, "claims LLC data"},
		{"line in both ED and TD", tded, func(t *testing.T, e *Engine, l addr.Line) {
			e.Access(0, l, false)
			m := mustBeIn(t, e, l, directory.WhereED)
			tdedOf(e, l).TD.Put(l, *m)
		}, "in both ED and TD"},
		{"TD entry with neither sharers nor data", tded, func(t *testing.T, e *Engine, l addr.Line) {
			tdedOf(e, l).TD.Put(l, directory.Meta{})
		}, "neither sharers nor data"},
		{"line in both ED and a VD bank", secdir, func(t *testing.T, e *Engine, l addr.Line) {
			e.Access(0, l, false)
			mustBeIn(t, e, l, directory.WhereED)
			insertVD(t, e, l, 0)
		}, "in both ED and VD bank 0"},
		{"line in both TD and a VD bank", secdir, func(t *testing.T, e *Engine, l addr.Line) {
			// Core 0's write-back leaves the line in the LLC, tracked
			// by the TD; core 1's read then hits there.
			e.Access(0, l, true)
			e.FlushCore(0)
			e.Access(1, l, false)
			mustBeIn(t, e, l, directory.WhereTD)
			insertVD(t, e, l, 1)
		}, "in both TD and VD bank 1"},
		{"VD entry missing from its owner's L2", secdir, func(t *testing.T, e *Engine, l addr.Line) {
			insertVD(t, e, l, 2)
		}, "VD bank 2 entry"},
	}

	for _, k := range kinds {
		for _, tc := range cases {
			if tc.designs&k.bit == 0 {
				continue
			}
			t.Run(k.kind.String()+"/"+tc.name, func(t *testing.T) {
				e := newEngine(t, smallConfig(k.kind))
				// A live machine: shared, written and evicted lines in
				// every structure the design has.
				rng := rand.New(rand.NewSource(5))
				for i := 0; i < 200; i++ {
					e.Access(rng.Intn(4), addr.Line(rng.Intn(512)), rng.Intn(4) == 0)
				}
				if err := e.CheckInvariants(); err != nil {
					t.Fatalf("live engine already violates invariants: %v", err)
				}
				l := pickLine(t, e)
				tc.corrupt(t, e, l)
				err := e.CheckInvariants()
				if err == nil {
					t.Fatalf("checker missed the corruption of line %#x", uint64(l))
				}
				if !strings.Contains(err.Error(), tc.want) {
					t.Fatalf("checker reported %q, want a violation naming %q", err, tc.want)
				}
			})
		}
	}
}
