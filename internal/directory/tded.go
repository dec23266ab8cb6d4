package directory

import (
	"secdir/internal/addr"
	"secdir/internal/cachesim"
)

// TDED bundles the Traditional and Extended Directory of one slice and the
// migration mechanics they share between the baseline and SecDir designs.
//
// The TD is coupled to the LLC slice: TD ways == LLC ways and a TD entry owns
// the corresponding LLC data slot (Meta.HasData). Both the TD and the ED use
// random replacement: §7 specifies it for the ED and leaves the TD open, and
// LRU in the TD would shield recently consolidated shared entries from the
// VD (DESIGN.md, Replacement).
type TDED struct {
	ED *cachesim.Cache[Meta]
	TD *cachesim.Cache[Meta]

	// Buf is the slice's reusable action accumulator. The owning design's
	// top-level Slice operations Reset it on entry and return its contents;
	// the migration helpers below only append, so a whole transition chain
	// (ED→TD→VD cascades included) lands in one buffer without allocating in
	// steady state.
	Buf ActionBuf

	// AppendixAFix allows TD entries with empty LLC slots, so ED→TD
	// migrations keep exclusively-held private copies alive (Appendix A).
	AppendixAFix bool

	// TDVictim disposes of an entry evicted by a TD set conflict, appending
	// its side effects to Buf. The baseline discards it and invalidates all
	// copies (transition ② of the traditional directory); SecDir migrates
	// entries with sharers into the sharers' VDs (transition ③).
	TDVictim func(line addr.Line, m Meta)

	Stat Stats
}

// tdedBufCap is the initial action-buffer capacity of a slice. A single
// transition chain emits at most a couple of actions per sharer (invalidation
// plus write-back) and the simulator caps sharers at 64, so 64 pre-grown
// slots keep the steady-state path from ever growing the buffer.
const tdedBufCap = 64

// NewTDED builds the TD and ED of one slice. index maps a line to its
// set index (shared by TD and ED, which have the same set count — a
// requirement for the deadlock-free ED↔TD migration of §4.2.1).
func NewTDED(tdSets, tdWays, edSets, edWays int, index cachesim.Index, fix bool, seed int64) *TDED {
	if tdSets != edSets {
		panic("directory: TD and ED must have the same number of sets")
	}
	d := &TDED{
		ED:           cachesim.New[Meta](edSets, edWays, index, cachesim.Random, seed),
		TD:           cachesim.New[Meta](tdSets, tdWays, index, cachesim.Random, seed+1),
		AppendixAFix: fix,
	}
	d.Buf.Grow(tdedBufCap)
	return d
}

// Reset restores the TD and ED to the state NewTDED would produce with the
// given seed, reusing their storage: both caches emptied (ED reseeded with
// seed, TD with seed+1, matching construction), the action buffer cleared and
// the counters zeroed. The TDVictim hook is preserved.
func (d *TDED) Reset(seed int64) {
	d.ED.Reset(seed)
	d.TD.Reset(seed + 1)
	d.Buf.Reset()
	d.Stat = Stats{}
}

// InsertED places an entry in the ED, appending any migration side effects to
// Buf. A full set evicts a random resident entry, which migrates to the TD;
// the TD insertion happens after the ED slot is freed so a TD conflict victim
// can never cycle back (same set index, one free slot).
func (d *TDED) InsertED(line addr.Line, m Meta) {
	d.InsertEDAt(cachesim.Cursor{}, cachesim.Cursor{}, line, m)
}

// InsertEDAt is InsertED consuming the fill cursors a missing lookup left
// behind: edCur from the ED scan of line, tdCur from the TD scan. ED and TD
// share one index, so an evicted ED victim migrates into the very TD set the
// TD cursor was scanned in — both re-scans are skipped when the cursors are
// still fresh. Zero or stale cursors degrade to full scans.
func (d *TDED) InsertEDAt(edCur, tdCur cachesim.Cursor, line addr.Line, m Meta) {
	v, evicted := d.ED.PutAt(edCur, line, m)
	if !evicted {
		return
	}
	d.Stat.EDToTD++
	d.InsertTDAt(tdCur, v.Line, d.edVictimMeta(v.Line, v.Data))
}

// edVictimMeta implements the ED→TD movement for an entry evicted by an ED
// set conflict, returning the metadata the TD entry should carry and
// appending any inclusion-victim invalidation to Buf.
func (d *TDED) edVictimMeta(line addr.Line, m Meta) Meta {
	if d.AppendixAFix {
		// Fixed behaviour: the TD entry is associated with an empty LLC
		// line; private copies are untouched.
		m.HasData = false
	} else if m.Sharers.Count() == 1 {
		// Skylake-X limitation: every TD entry must have data in the LLC.
		// The line is copied to the LLC and the exclusively-held private
		// copy is invalidated — the inclusion victim that the prime+probe
		// attack of [46] exploits.
		core := m.Sharers.First()
		d.Buf.Emit(Action{Kind: InvalidateL2, Core: core, Line: line, Reason: ReasonEDConflict})
		d.Stat.InclusionVictims++
		m.Sharers = 0
		m.HasData = true
		m.Dirty = false // a dirty copy is written back by the engine
	} else {
		// Shared lines get a (clean) LLC copy; sharers keep their S copies.
		m.HasData = true
		m.Dirty = false
	}
	return m
}

// InsertTD places an entry in the TD, appending any disposal side effects to
// Buf. A full set evicts a randomly chosen entry, which is handed to the
// TDVictim hook.
func (d *TDED) InsertTD(line addr.Line, m Meta) {
	d.InsertTDAt(cachesim.Cursor{}, line, m)
}

// InsertTDAt is InsertTD consuming the fill cursor of a missing TD scan of a
// line in the same set.
func (d *TDED) InsertTDAt(tdCur cachesim.Cursor, line addr.Line, m Meta) {
	v, evicted := d.TD.PutAt(tdCur, line, m)
	if !evicted {
		return
	}
	if d.TDVictim == nil {
		panic("directory: TD conflict with no TDVictim hook")
	}
	d.TDVictim(v.Line, v.Data)
}

// PromoteTDToED implements the write path of §2.1/§4.2: the TD entry is
// removed first (freeing a slot in the same set) and re-inserted into the ED
// with the writer as the only sharer; an ED conflict victim lands in the slot
// just freed, so the migration cannot deadlock. Side effects go to Buf.
func (d *TDED) PromoteTDToED(writer int, line addr.Line, m Meta) {
	_, slot := d.TD.ProbeSlot(line)
	d.PromoteTDToEDAt(cachesim.Cursor{}, slot, writer, line, m)
}

// PromoteTDToEDAt is PromoteTDToED with the line's TD slot already located
// (by the caller's hitting lookup) and the ED fill cursor from the caller's
// missed ED scan. The ED victim's TD insertion cannot reuse a TD cursor: the
// removal below already mutated the TD, but it also freed a slot in the very
// set the victim lands in, so the fallback Put finds it.
func (d *TDED) PromoteTDToEDAt(edCur cachesim.Cursor, tdSlot, writer int, line addr.Line, m Meta) {
	// The LLC data slot is dropped with the TD entry; a dirty LLC copy needs
	// no write-back because the writer takes ownership of the data and will
	// hold it Modified.
	d.TD.RemoveSlot(tdSlot)
	d.Stat.TDToED++
	m.Sharers.ForEach(func(c int) {
		if c != writer {
			d.Buf.Emit(Action{Kind: InvalidateL2, Core: c, Line: line, Reason: ReasonCoherence})
		}
	})
	d.InsertEDAt(edCur, cachesim.Cursor{}, line, Meta{Sharers: Bitset(0).Set(writer), Dirty: true})
}

// ReadHitTD serves a read miss out of the TD, updating entry placement per
// the design's Appendix-A behaviour:
//
// The LLC is a victim cache: serving the read promotes the line into the
// requester's L2 and drops the LLC copy (no duplication), writing a dirty
// copy back to memory. What happens to the directory entry depends on the
// Appendix-A behaviour:
//
//   - Fixed design (SecDir): TD entries may own empty LLC lines, so the
//     entry stays in the TD — now data-less — and gains the requester's
//     presence bit. This matches §2.1/§4.2: an entry moves TD→ED only on a
//     write. It is also what lets shared entries oscillate between TD and
//     the VDs (transitions ③/④) and produce the VD hits of §10.2.
//   - Unfixed Skylake-X: every TD entry must own LLC data, so the entry
//     cannot remain in the TD and migrates back to the ED with the line.
//
// Any write-back lands in Buf; the boolean reports whether the LLC supplied
// the data (false means a sharer's L2 forwards it).
func (d *TDED) ReadHitTD(core int, line addr.Line, m *Meta) (fromLLC bool) {
	if d.AppendixAFix {
		return d.ReadHitTDAt(cachesim.Cursor{}, -1, core, line, m)
	}
	_, slot := d.TD.ProbeSlot(line)
	return d.ReadHitTDAt(cachesim.Cursor{}, slot, core, line, m)
}

// ReadHitTDAt is ReadHitTD with the line's TD slot already located and the
// ED fill cursor from the caller's missed ED scan (both used only on the
// unfixed TD→ED migration path; the fixed design mutates the entry in place
// and ignores them).
func (d *TDED) ReadHitTDAt(edCur cachesim.Cursor, tdSlot, core int, line addr.Line, m *Meta) (fromLLC bool) {
	fromLLC = m.HasData
	if d.AppendixAFix {
		if m.HasData && m.Dirty {
			d.Buf.Emit(Action{Kind: WritebackMem, Line: line, Reason: ReasonCoherence})
		}
		m.HasData = false
		m.Dirty = false
		m.Sharers = m.Sharers.Set(core)
		return fromLLC
	}
	meta := *m
	d.TD.RemoveSlot(tdSlot)
	d.Stat.TDToED++
	if meta.HasData && meta.Dirty {
		d.Buf.Emit(Action{Kind: WritebackMem, Line: line, Reason: ReasonCoherence})
	}
	meta.Sharers = meta.Sharers.Set(core)
	meta.Dirty = false
	meta.HasData = false
	d.InsertEDAt(edCur, cachesim.Cursor{}, line, meta)
	return fromLLC
}

// BaselineTDVictim is the traditional directory's disposal of a TD conflict
// victim (transition ② of Figure 3(a)): the entry is discarded, the LLC copy
// is written back if dirty, and every private copy is invalidated, creating
// inclusion victims.
func (d *TDED) BaselineTDVictim(line addr.Line, m Meta) {
	if m.HasData && m.Dirty {
		d.Buf.Emit(Action{Kind: WritebackMem, Line: line, Reason: ReasonTDConflict})
	}
	m.Sharers.ForEach(func(c int) {
		d.Buf.Emit(Action{Kind: InvalidateL2, Core: c, Line: line, Reason: ReasonTDConflict})
		d.Stat.InclusionVictims++
	})
	d.Stat.TDDrop++
}

// Find locates a line in the ED or TD without mutating replacement state.
func (d *TDED) Find(line addr.Line) (Meta, Where, bool) {
	if m, ok := d.ED.Probe(line); ok {
		return *m, WhereED, true
	}
	if m, ok := d.TD.Probe(line); ok {
		return *m, WhereTD, true
	}
	return Meta{}, WhereNone, false
}
