package directory

import (
	"fmt"

	"secdir/internal/addr"
	"secdir/internal/cachesim"
	"secdir/internal/rng"
)

// WayPartSlice is the §1/§11 alternative secure design: the ED and TD ways of
// every set are statically partitioned across cores (the DAWG-style
// way-partitioning the paper argues against). Look-ups search all ways, but a
// core's fills and the evictions they cause stay inside the core's own ways,
// so an attacker cannot displace a victim's entries — at the cost of tiny
// effective associativity and a hard core-count ceiling:
//
//	"this approach is inflexible, low performing, and limited, since servers
//	 can have many more cores than directory ways." (§1)
//
// NewWayPartitioned returns an error once cores exceed the way count of
// either structure, materialising the "limited" criticism.
type WayPartSlice struct {
	ed *partTable
	td *partTable

	// buf is the reusable action accumulator; see ActionBuf for the aliasing
	// contract the Slice methods inherit.
	buf ActionBuf

	stat Stats
}

// Verify interface conformance.
var _ Slice = (*WayPartSlice)(nil)

// WayPartParams configures a WayPartSlice.
type WayPartParams struct {
	Cores          int
	TDSets, TDWays int
	EDSets, EDWays int
	Index          cachesim.Index
	Seed           int64
}

// Validate reports the error NewWayPartitioned would return for p: more
// cores than directory ways (the design's hard limit), or unequal TD and ED
// set counts.
func (p WayPartParams) Validate() error {
	if p.Cores > p.TDWays || p.Cores > p.EDWays {
		return fmt.Errorf("directory: way partitioning cannot serve %d cores with only %d TD / %d ED ways",
			p.Cores, p.TDWays, p.EDWays)
	}
	if p.TDSets != p.EDSets {
		return fmt.Errorf("directory: TD and ED must have the same set count")
	}
	return nil
}

// NewWayPartitioned returns a way-partitioned directory slice, or an error if
// the machine has more cores than directory ways (the design's hard limit).
func NewWayPartitioned(p WayPartParams) (*WayPartSlice, error) {
	if err := p.Validate(); err != nil {
		return nil, err
	}
	s := &WayPartSlice{
		ed: newPartTable(p.EDSets, p.EDWays, p.Cores, p.Index, p.Seed),
		td: newPartTable(p.TDSets, p.TDWays, p.Cores, p.Index, p.Seed+1),
	}
	s.buf.Grow(tdedBufCap)
	return s, nil
}

// partEntry is one way of a partitioned table.
type partEntry struct {
	line  addr.Line
	valid bool
	meta  Meta
}

// partTable is a set-associative table whose ways are statically owned by
// cores. Fills by core c may only (re)use c's ways; look-ups scan every way.
type partTable struct {
	sets, ways, cores int
	index             cachesim.Index
	rng               rng.Rand
	arr               []partEntry
	// wayLo[c]..wayHi[c] is core c's way range (remainder ways distributed
	// to the low-numbered cores).
	wayLo, wayHi []int
}

func newPartTable(sets, ways, cores int, index cachesim.Index, seed int64) *partTable {
	t := &partTable{
		sets: sets, ways: ways, cores: cores,
		index: index,
		rng:   rng.New(seed),
		arr:   make([]partEntry, sets*ways),
		wayLo: make([]int, cores),
		wayHi: make([]int, cores),
	}
	base, extra := ways/cores, ways%cores
	w := 0
	for c := 0; c < cores; c++ {
		t.wayLo[c] = w
		w += base
		if c < extra {
			w++
		}
		t.wayHi[c] = w
	}
	return t
}

func (t *partTable) set(i int) []partEntry { return t.arr[i*t.ways : (i+1)*t.ways] }

// find scans every way of the line's set (look-ups are not partitioned).
func (t *partTable) find(l addr.Line) *partEntry {
	s := t.set(t.index.Of(l))
	for i := range s {
		if s[i].valid && s[i].line == l {
			return &s[i]
		}
	}
	return nil
}

// insert places the entry into core's way range, evicting a random resident
// entry of the same range if it is full.
func (t *partTable) insert(core int, l addr.Line, m Meta) (victim addr.Line, vm Meta, evicted bool) {
	s := t.set(t.index.Of(l))
	lo, hi := t.wayLo[core], t.wayHi[core]
	for i := lo; i < hi; i++ {
		if !s[i].valid {
			s[i] = partEntry{line: l, valid: true, meta: m}
			return 0, Meta{}, false
		}
	}
	vi := lo + t.rng.Intn(hi-lo)
	victim, vm = s[vi].line, s[vi].meta
	s[vi] = partEntry{line: l, valid: true, meta: m}
	return victim, vm, true
}

// remove deletes the line wherever it lives.
func (t *partTable) remove(l addr.Line) (Meta, bool) {
	if e := t.find(l); e != nil {
		m := e.meta
		*e = partEntry{}
		return m, true
	}
	return Meta{}, false
}

// Miss implements Slice. The protocol mirrors the Appendix-A-fixed baseline;
// only placement differs (requester-owned ways).
func (s *WayPartSlice) Miss(core int, line addr.Line, write bool) MissResult {
	s.buf.Reset()
	if e := s.ed.find(line); e != nil {
		s.stat.EDHits++
		res := MissResult{
			Where:   WhereED,
			Source:  SourceRemoteL2,
			SrcCore: int32(e.meta.Sharers.First()),
		}
		edServe(&s.buf, &e.meta, core, line, write)
		res.Actions = s.buf.Actions()
		return res
	}
	if e := s.td.find(line); e != nil {
		s.stat.TDHits++
		res := MissResult{Where: WhereTD}
		if e.meta.HasData {
			res.Source = SourceLLC
		} else {
			res.Source = SourceRemoteL2
			res.SrcCore = int32(e.meta.Sharers.First())
		}
		meta := e.meta
		if write {
			meta.Sharers.ForEach(func(c int) {
				if c != core {
					s.buf.Emit(Action{Kind: InvalidateL2, Core: c, Line: line, Reason: ReasonCoherence})
				}
			})
			s.td.remove(line)
			s.stat.TDToED++
			s.insertED(core, line, Meta{Sharers: Bitset(0).Set(core), Dirty: true})
		} else {
			// Victim-cache promotion: entry stays in the TD, data-less.
			if meta.HasData && meta.Dirty {
				s.buf.Emit(Action{Kind: WritebackMem, Line: line, Reason: ReasonCoherence})
			}
			e.meta.HasData = false
			e.meta.Dirty = false
			e.meta.Sharers = e.meta.Sharers.Set(core)
		}
		res.Actions = s.buf.Actions()
		return res
	}
	s.stat.MemFetches++
	s.insertED(core, line, Meta{Sharers: Bitset(0).Set(core), Dirty: write})
	return MissResult{
		Where:     WhereNone,
		Source:    SourceMemory,
		Exclusive: !write,
		Actions:   s.buf.Actions(),
	}
}

// insertED fills into the requester's ED ways; a displaced entry migrates to
// the TD — still within the same core's TD ways, so all interference stays
// inside one partition. Side effects land in s.buf.
func (s *WayPartSlice) insertED(core int, line addr.Line, m Meta) {
	v, vm, evicted := s.ed.insert(core, line, m)
	if !evicted {
		return
	}
	s.stat.EDToTD++
	vm.HasData = false
	s.insertTD(core, v, vm)
}

// insertTD fills into the owner's TD ways; a conflict discards the victim
// entry and invalidates its copies — by construction these are entries the
// same core allocated, so only self-conflicts occur. Side effects land in
// s.buf.
func (s *WayPartSlice) insertTD(core int, line addr.Line, m Meta) {
	v, vm, evicted := s.td.insert(core, line, m)
	if !evicted {
		return
	}
	if vm.HasData && vm.Dirty {
		s.buf.Emit(Action{Kind: WritebackMem, Line: v, Reason: ReasonTDConflict})
	}
	vm.Sharers.ForEach(func(c int) {
		s.buf.Emit(Action{Kind: InvalidateL2, Core: c, Line: v, Reason: ReasonTDConflict})
		s.stat.InclusionVictims++
	})
	s.stat.TDDrop++
}

// Upgrade implements Slice.
func (s *WayPartSlice) Upgrade(core int, line addr.Line) []Action {
	s.buf.Reset()
	if e := s.ed.find(line); e != nil {
		edServe(&s.buf, &e.meta, core, line, true)
		return s.buf.Actions()
	}
	if e := s.td.find(line); e != nil {
		meta := e.meta
		meta.Sharers.ForEach(func(c int) {
			if c != core {
				s.buf.Emit(Action{Kind: InvalidateL2, Core: c, Line: line, Reason: ReasonCoherence})
			}
		})
		s.td.remove(line)
		s.stat.TDToED++
		s.insertED(core, line, Meta{Sharers: Bitset(0).Set(core), Dirty: true})
		return s.buf.Actions()
	}
	panic("directory: upgrade for a line with no directory entry")
}

// L2Evict implements Slice.
//
// Placement detail with security weight: the migrated TD entry goes into the
// partition of a *remaining sharer* when one exists, not the evictor's.
// Naively placing it with the evictor leaks on shared (read-only) lines: an
// attacker that reloads the victim's line and then evicts its own copy would
// drag the victim's entry into the attacker's partition, where the attacker's
// own conflicts can discard it — re-opening the evict+reload channel this
// design exists to close. (DAWG-style partitioning ties placement to the
// protection domain for the same reason.)
func (s *WayPartSlice) L2Evict(core int, line addr.Line, dirty bool) []Action {
	s.buf.Reset()
	if e := s.ed.find(line); e != nil {
		meta := e.meta
		if !meta.Sharers.Has(core) {
			panic("directory: L2 evict by a non-sharer (ED)")
		}
		s.ed.remove(line)
		s.stat.EDToTD++
		meta.Sharers = meta.Sharers.Clear(core)
		meta.HasData = true
		meta.Dirty = dirty
		owner := core
		if r := meta.Sharers.First(); r >= 0 {
			owner = r
		}
		s.insertTD(owner, line, meta)
		return s.buf.Actions()
	}
	if e := s.td.find(line); e != nil {
		if !e.meta.Sharers.Has(core) {
			panic("directory: L2 evict by a non-sharer (TD)")
		}
		e.meta.Sharers = e.meta.Sharers.Clear(core)
		e.meta.HasData = true
		e.meta.Dirty = e.meta.Dirty || dirty
		return nil
	}
	panic("directory: L2 evict for a line with no directory entry")
}

// Find implements Slice.
func (s *WayPartSlice) Find(line addr.Line) (Meta, Where, bool) {
	if e := s.ed.find(line); e != nil {
		return e.meta, WhereED, true
	}
	if e := s.td.find(line); e != nil {
		return e.meta, WhereTD, true
	}
	return Meta{}, WhereNone, false
}

// Stats implements Slice.
func (s *WayPartSlice) Stats() *Stats { return &s.stat }

// ForEach calls fn for every entry in the slice until fn returns false.
func (s *WayPartSlice) ForEach(fn func(line addr.Line, m Meta, w Where) bool) {
	for i := range s.ed.arr {
		if s.ed.arr[i].valid && !fn(s.ed.arr[i].line, s.ed.arr[i].meta, WhereED) {
			return
		}
	}
	for i := range s.td.arr {
		if s.td.arr[i].valid && !fn(s.td.arr[i].line, s.td.arr[i].meta, WhereTD) {
			return
		}
	}
}
