package directory

import (
	"secdir/internal/addr"
	"secdir/internal/cachesim"
	"secdir/internal/rng"
)

// CeaserSlice is the §11 randomization-based alternative (CEASER-style;
// Qureshi, "CEASER: mitigating conflict-based cache attacks via
// encrypted-address and remapping"): the directory set index is a keyed mix
// of the line address. An attacker cannot compute which addresses conflict
// with the victim's, so *targeted* eviction sets fail — but, as the paper
// argues, randomization "can only reduce the bandwidth of the attack,
// instead of eliminating it": flooding enough lines across many sets still
// evicts the victim's entries (see attack.FloodReload).
//
// The slice keeps two keys live and a remap pointer sweeps the set space.
// Sets below the pointer are already indexed under the next-epoch key; sets
// above still use the current one. Every RekeyEvery directory operations the
// pointer advances by RemapStep sets and the resident entries of the swept
// window are relocated; when the pointer reaches the end, the epoch rolls
// (next key becomes current) and the sweep restarts. A RemapStep of every
// set is a bulk re-key: one step relocates the whole directory
// (config.RandMappedConfig).
//
// Remapping limits how long a discovered eviction set stays useful, but a
// flood attack that does not need a stable set survives: in the ALT
// design-space table (data/ALT_designs.csv) the bulk-re-keyed configuration
// holds targeted evict+reload at chance yet loses 8 of 10 flood rounds. The
// gradual sweep is what real hardware ships, because the bulk remap's
// latency spike is unshippable; modelling it costs one compare on the index
// path.
type CeaserSlice struct {
	inner *BaselineSlice
	sets  int
	mask  uint64

	// keyCur/keyNext are the two live epoch keys; sets whose current-key index
	// is below ptr have already been remapped to keyNext.
	keyCur, keyNext uint64
	ptr             int
	rng             rng.Rand

	// rekeyEvery is the number of directory operations between remap steps;
	// 0 disables remapping. remapStep is the number of sets swept per step.
	rekeyEvery int
	remapStep  int
	ops        int

	// Epochs counts completed full sweeps; Relocated counts entries moved.
	Epochs    uint64
	Relocated uint64

	// scratch is the reusable relocation staging buffer.
	scratch []ceaserEntry
}

// Verify interface conformance.
var (
	_ Slice       = (*CeaserSlice)(nil)
	_ Housekeeper = (*CeaserSlice)(nil)
)

// ceaserEntry stages one directory entry across a remap step.
type ceaserEntry struct {
	line addr.Line
	meta Meta
	ed   bool
}

// CeaserParams configures a CeaserSlice.
type CeaserParams struct {
	TDSets, TDWays int
	EDSets, EDWays int
	// RekeyEvery is the number of slice operations between remap steps
	// (0 = never remap).
	RekeyEvery int
	// RemapStep is the number of sets relocated per step; 0 picks
	// max(1, sets/64), a full epoch every 64 steps.
	RemapStep int
	Seed      int64
}

// NewCeaser returns a gradually-remapped randomized directory slice.
func NewCeaser(p CeaserParams) *CeaserSlice {
	s := &CeaserSlice{
		sets:       p.TDSets,
		mask:       uint64(p.TDSets - 1),
		rng:        rng.New(p.Seed ^ 0xCEA5E4),
		rekeyEvery: p.RekeyEvery,
		remapStep:  p.RemapStep,
	}
	if s.remapStep <= 0 {
		s.remapStep = s.sets / 64
		if s.remapStep < 1 {
			s.remapStep = 1
		}
	}
	s.keyCur = s.rng.Uint64()
	s.keyNext = s.rng.Uint64()
	// The index closure reads the live key state, so the one inner slice
	// built here follows every pointer advance and epoch roll — entries are
	// relocated physically by Housekeep, never rebuilt wholesale.
	idx := cachesim.FuncIndex(func(l addr.Line) int {
		h := mixLine(s.keyCur, l, s.mask)
		if h < s.ptr {
			return mixLine(s.keyNext, l, s.mask)
		}
		return h
	})
	s.inner = NewBaseline(BaselineParams{
		TDSets: p.TDSets, TDWays: p.TDWays,
		EDSets: p.EDSets, EDWays: p.EDWays,
		Index:        idx,
		AppendixAFix: true, // give the randomized design its best case
		Seed:         p.Seed,
	})
	return s
}

// Housekeep implements Housekeeper: at transaction boundaries, advance the
// remap pointer and relocate the entries of the swept window under the
// next-epoch key. Entries that conflict at their new location are disposed
// of through the normal baseline victim paths, and those disposal actions
// are what the engine applies.
func (s *CeaserSlice) Housekeep() []Action {
	if s.rekeyEvery <= 0 || s.ops < s.rekeyEvery {
		return nil
	}
	s.ops = 0
	d := s.inner.d
	d.Buf.Reset()
	newPtr := s.ptr + s.remapStep
	if newPtr > s.sets {
		newPtr = s.sets
	}
	// Stage the window's residents. They are physically stored at their
	// current-key set (the index map flips only once ptr advances), so the
	// removals below must happen before the pointer moves.
	s.scratch = s.scratch[:0]
	d.ED.Range(func(l addr.Line, m *Meta) bool {
		if h := mixLine(s.keyCur, l, s.mask); h >= s.ptr && h < newPtr {
			s.scratch = append(s.scratch, ceaserEntry{line: l, meta: *m, ed: true})
		}
		return true
	})
	d.TD.Range(func(l addr.Line, m *Meta) bool {
		if h := mixLine(s.keyCur, l, s.mask); h >= s.ptr && h < newPtr {
			s.scratch = append(s.scratch, ceaserEntry{line: l, meta: *m})
		}
		return true
	})
	for i := range s.scratch {
		if s.scratch[i].ed {
			d.ED.Remove(s.scratch[i].line)
		} else {
			d.TD.Remove(s.scratch[i].line)
		}
	}
	s.ptr = newPtr
	for i := range s.scratch {
		e := &s.scratch[i]
		if e.ed {
			d.InsertED(e.line, e.meta)
		} else {
			d.InsertTD(e.line, e.meta)
		}
	}
	s.Relocated += uint64(len(s.scratch))
	if s.ptr >= s.sets {
		// Epoch roll: the next key takes over (the mapping is unchanged at
		// this instant — every set is already below the pointer) and a fresh
		// key arms the next sweep.
		s.keyCur, s.keyNext = s.keyNext, s.rng.Uint64()
		s.ptr = 0
		s.Epochs++
	}
	return d.Buf.Actions()
}

// Miss implements Slice.
func (s *CeaserSlice) Miss(core int, line addr.Line, write bool) MissResult {
	s.ops++
	return s.inner.Miss(core, line, write)
}

// Upgrade implements Slice.
func (s *CeaserSlice) Upgrade(core int, line addr.Line) []Action {
	s.ops++
	return s.inner.Upgrade(core, line)
}

// L2Evict implements Slice.
func (s *CeaserSlice) L2Evict(core int, line addr.Line, dirty bool) []Action {
	s.ops++
	return s.inner.L2Evict(core, line, dirty)
}

// Find implements Slice.
func (s *CeaserSlice) Find(line addr.Line) (Meta, Where, bool) {
	return s.inner.Find(line)
}

// Stats implements Slice.
func (s *CeaserSlice) Stats() *Stats { return s.inner.Stats() }

// mixLine is the keyed xor-multiply set-index mix (not cryptographic, but
// the attacker model grants no key access either way).
func mixLine(key uint64, l addr.Line, mask uint64) int {
	v := uint64(l) ^ key
	v *= 0xff51afd7ed558ccd
	v ^= v >> 33
	v *= 0xc4ceb9fe1a85ec53
	v ^= v >> 29
	return int(v & mask)
}

// TDED exposes the inner structures (tests only).
func (s *CeaserSlice) TDED() *TDED { return s.inner.TDED() }
