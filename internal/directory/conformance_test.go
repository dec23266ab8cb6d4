package directory_test

import (
	"fmt"
	"math/rand"
	"testing"

	"secdir/internal/addr"
	"secdir/internal/cachesim"
	"secdir/internal/core"
	"secdir/internal/directory"
)

// The conformance suite drives every directory.Slice implementation through
// the same randomized protocol workload a coherence engine would generate and
// checks the contract the engine relies on:
//
//   - an InvalidateL2 action always targets a line the named core actually
//     caches (the engine panics otherwise);
//   - a WritebackMem action only names a line some copy of which was dirty;
//   - a conflict never silently drops tracking: every line the model still
//     considers cached has a directory entry whose sharer vector includes
//     the caching core (invalidation-on-conflict must emit the matching
//     actions first);
//   - a remote-L2 forward (SourceRemoteL2) names a core that holds the line;
//   - entries are unique — no line appears in two structures at once — and
//     occupancy never exceeds the design's entry capacity;
//   - every sharer bit in every entry corresponds to a cached private copy.
//
// The harness mirrors the engine's call discipline: Miss only when the
// requester is not a sharer, Upgrade only on a cached copy, L2Evict only on a
// cached copy, actions applied before the next mutating call (the action
// slices alias each implementation's reusable buffer), Housekeep at
// transaction boundaries.

// confEntry is one merged directory entry as reported by a design's walk.
type confEntry struct {
	line    addr.Line
	sharers directory.Bitset
}

// confSlice describes one DirectoryKind under conformance test.
type confSlice struct {
	name  string
	slice directory.Slice
	// walk reports the design's current entries, one per tracked line.
	// nil when a design exposes no entry walk.
	walk func() []confEntry
	// capacity is the design's total entry budget (0 skips the bound check).
	capacity int
}

// tdedWalk adapts designs built on the shared TDED machinery. The getter is
// called per walk because re-keying designs swap the inner structures. A line
// resident in both ED and TD is reported twice and caught by the audit's
// uniqueness check.
func tdedWalk(get func() *directory.TDED) func() []confEntry {
	return func() []confEntry {
		var out []confEntry
		collect := func(l addr.Line, m *directory.Meta) bool {
			out = append(out, confEntry{line: l, sharers: m.Sharers})
			return true
		}
		d := get()
		d.ED.Range(collect)
		d.TD.Range(collect)
		return out
	}
}

// rangerWalk adapts designs exposing the merged ForEach entry walk.
func rangerWalk(s interface {
	ForEach(fn func(l addr.Line, m directory.Meta, w directory.Where) bool)
}) func() []confEntry {
	return func() []confEntry {
		var out []confEntry
		s.ForEach(func(l addr.Line, m directory.Meta, _ directory.Where) bool {
			out = append(out, confEntry{line: l, sharers: m.Sharers})
			return true
		})
		return out
	}
}

// secdirWalk merges ED, TD and the per-core VD banks. A line's VD presences
// (one bank per sharer) form one logical entry; a line in both ED/TD and a
// VD is reported twice and caught by the audit's uniqueness check.
func secdirWalk(s *core.Slice, cores int) func() []confEntry {
	return func() []confEntry {
		inVD := map[addr.Line]directory.Bitset{}
		for c := 0; c < cores; c++ {
			for _, l := range s.VDBank(c).Lines() {
				inVD[l] = inVD[l].Set(c)
			}
		}
		out := tdedWalk(s.TDED)()
		for l, owners := range inVD {
			out = append(out, confEntry{line: l, sharers: owners})
		}
		return out
	}
}

// conformanceSlices builds the full design roster at a small shared geometry:
// 4 cores, 16-set structures, a 6-way unified budget (3+3 split where the
// design has one), so conflict paths fire constantly under a 256-line pool.
func conformanceSlices(t *testing.T, seed int64) []confSlice {
	const cores, sets = 4, 16
	index := cachesim.ModIndex(sets)

	base := func(fix bool) *directory.BaselineSlice {
		return directory.NewBaseline(directory.BaselineParams{
			TDSets: sets, TDWays: 3, EDSets: sets, EDWays: 3,
			Index: index, AppendixAFix: fix, Seed: seed,
		})
	}
	bu, bf := base(false), base(true)
	rm := directory.NewCeaser(directory.CeaserParams{ // bulk re-key
		TDSets: sets, TDWays: 3, EDSets: sets, EDWays: 3,
		RekeyEvery: 300, RemapStep: sets, Seed: seed,
	})
	ce := directory.NewCeaser(directory.CeaserParams{
		TDSets: sets, TDWays: 3, EDSets: sets, EDWays: 3,
		RekeyEvery: 300, RemapStep: 2, Seed: seed,
	})
	wp, err := directory.NewWayPartitioned(directory.WayPartParams{
		Cores: cores, TDSets: sets, TDWays: 4, EDSets: sets, EDWays: 4,
		Index: index, Seed: seed,
	})
	if err != nil {
		t.Fatalf("NewWayPartitioned: %v", err)
	}
	tp, err := directory.NewTagPartitioned(directory.TagPartParams{
		Cores: cores, Sets: sets, Ways: 6, Index: index, Seed: seed,
	})
	if err != nil {
		t.Fatalf("NewTagPartitioned: %v", err)
	}
	sk := directory.NewSkewed(directory.SkewedParams{Sets: sets, Ways: 6, Seed: seed})
	dl := directory.NewDLS(directory.DLSParams{Sets: sets, Ways: 6, Index: index, Seed: seed})
	sd := core.New(core.Params{
		Cores:  cores,
		TDSets: sets, TDWays: 3, EDSets: sets, EDWays: 2,
		VDSets: 8, VDWays: 2, NumRelocations: 4,
		Cuckoo: true, EmptyBit: true,
		Index: index, AppendixAFix: true, Seed: seed,
	})

	return []confSlice{
		{"baseline-unfixed", bu, tdedWalk(bu.TDED), 16 * 6},
		{"baseline-fixed", bf, tdedWalk(bf.TDED), 16 * 6},
		{"secdir", sd, secdirWalk(sd, cores), 16*5 + cores*8*2},
		{"way-partitioned", wp, rangerWalk(wp), 16 * 8},
		{"rand-mapped", rm, tdedWalk(rm.TDED), 16 * 6},
		{"ceaser", ce, tdedWalk(ce.TDED), 16 * 6},
		{"skewed", sk, rangerWalk(sk), 16 * 6},
		{"dls", dl, rangerWalk(dl), 16 * 6},
		{"tag-partitioned", tp, rangerWalk(tp), 16 * 6},
	}
}

// confModel is the harness's shadow of the private caches.
type confModel struct {
	cores     int
	cached    []map[addr.Line]bool // per-core cached lines
	dirty     []map[addr.Line]bool // per-core dirty copies
	dirtyEver map[addr.Line]bool   // lines some copy of which was ever dirty
}

func newConfModel(cores int) *confModel {
	m := &confModel{cores: cores, dirtyEver: map[addr.Line]bool{}}
	for c := 0; c < cores; c++ {
		m.cached = append(m.cached, map[addr.Line]bool{})
		m.dirty = append(m.dirty, map[addr.Line]bool{})
	}
	return m
}

// apply replays a slice's actions against the model, failing on any action
// the engine could not execute.
func (m *confModel) apply(t *testing.T, name string, step int, acts []directory.Action) {
	t.Helper()
	for _, a := range acts {
		switch a.Kind {
		case directory.InvalidateL2:
			if !m.cached[a.Core][a.Line] {
				t.Fatalf("%s step %d: InvalidateL2(core=%d, line=%#x, %v) targets an uncached line",
					name, step, a.Core, uint64(a.Line), a.Reason)
			}
			delete(m.cached[a.Core], a.Line)
			delete(m.dirty[a.Core], a.Line)
		case directory.WritebackMem:
			if !m.dirtyEver[a.Line] {
				t.Fatalf("%s step %d: WritebackMem(line=%#x, %v) for a never-dirty line",
					name, step, uint64(a.Line), a.Reason)
			}
		default:
			t.Fatalf("%s step %d: unknown action kind %v", name, step, a.Kind)
		}
	}
}

// audit cross-checks slice state against the model: tracking completeness via
// Find, entry uniqueness, sharer soundness and the capacity bound via walk.
func (m *confModel) audit(t *testing.T, cs confSlice, step int) {
	t.Helper()
	for c := 0; c < m.cores; c++ {
		for l := range m.cached[c] {
			meta, _, ok := cs.slice.Find(l)
			if !ok {
				t.Fatalf("%s step %d: cached line %#x (core %d) has no directory entry — conflict dropped tracking without invalidating",
					cs.name, step, uint64(l), c)
			}
			if !meta.Sharers.Has(c) {
				t.Fatalf("%s step %d: entry for cached line %#x lacks core %d's sharer bit (sharers=%b)",
					cs.name, step, uint64(l), c, meta.Sharers)
			}
		}
	}
	if cs.walk == nil {
		return
	}
	entries := cs.walk()
	if cs.capacity > 0 && len(entries) > cs.capacity {
		t.Fatalf("%s step %d: %d entries exceed the design's capacity %d", cs.name, step, len(entries), cs.capacity)
	}
	seen := map[addr.Line]bool{}
	for _, e := range entries {
		if e.sharers&(1<<63) != 0 {
			t.Fatalf("%s step %d: line %#x resides in two structures at once", cs.name, step, uint64(e.line))
		}
		if seen[e.line] {
			t.Fatalf("%s step %d: line %#x reported twice by the entry walk", cs.name, step, uint64(e.line))
		}
		seen[e.line] = true
		e.sharers.ForEach(func(c int) {
			if !m.cached[c][e.line] {
				t.Fatalf("%s step %d: entry %#x lists non-caching sharer %d", cs.name, step, uint64(e.line), c)
			}
		})
	}
}

// TestSliceConformance runs the shared conformance workload over every
// directory design.
func TestSliceConformance(t *testing.T) {
	for _, seed := range []int64{1, 42} {
		for _, cs := range conformanceSlices(t, seed) {
			cs := cs
			t.Run(fmt.Sprintf("%s/seed=%d", cs.name, seed), func(t *testing.T) {
				const cores, steps = 4, 25000
				rng := rand.New(rand.NewSource(seed * 7779))
				m := newConfModel(cores)
				hk, _ := cs.slice.(directory.Housekeeper)
				for i := 0; i < steps; i++ {
					c := rng.Intn(cores)
					l := addr.Line(rng.Intn(256))
					write := rng.Intn(3) == 0
					switch {
					case m.cached[c][l] && rng.Intn(4) == 0:
						dirty := m.dirty[c][l]
						m.apply(t, cs.name, i, cs.slice.L2Evict(c, l, dirty))
						delete(m.cached[c], l)
						delete(m.dirty[c], l)
					case m.cached[c][l]:
						if write && !m.dirty[c][l] {
							m.dirtyEver[l] = true // before apply: the writeback may be immediate
							m.apply(t, cs.name, i, cs.slice.Upgrade(c, l))
							m.dirty[c][l] = true
						}
						// Clean read hit: no directory traffic.
					default:
						if write {
							m.dirtyEver[l] = true
						}
						res := cs.slice.Miss(c, l, write)
						if res.Source == directory.SourceRemoteL2 {
							src := int(res.SrcCore)
							if src < 0 || src >= cores || !m.cached[src][l] {
								t.Fatalf("%s step %d: forward from core %d which does not cache line %#x",
									cs.name, i, src, uint64(l))
							}
						}
						m.apply(t, cs.name, i, res.Actions)
						if !res.NoFill {
							m.cached[c][l] = true
							m.dirty[c][l] = write
						}
					}
					if hk != nil {
						m.apply(t, cs.name, i, hk.Housekeep())
					}
					if i%16 == 0 {
						m.audit(t, cs, i)
					}
				}
				m.audit(t, cs, steps)
			})
		}
	}
}
