// Package core implements SecDir, the paper's primary contribution: a
// directory slice that re-assigns Extended Directory ways to per-core,
// cuckoo-hashed Victim Directory (VD) banks (Figure 2(b)).
//
// Entries displaced from the TD that still have sharers migrate into the
// sharers' private VD banks (transition ③ of Table 2) instead of being
// discarded, so a cross-core attacker cannot force inclusion victims in a
// victim's private caches. VD conflicts are self-conflicts by construction
// (transition ⑤) and leak nothing under the paper's threat model.
package core

import (
	"secdir/internal/addr"
	"secdir/internal/cachesim"
	"secdir/internal/cuckoo"
	"secdir/internal/directory"
	"secdir/internal/metrics"
)

// Slice is one SecDir directory slice: a TD, a narrower ED, and one VD bank
// per core.
type Slice struct {
	d     *directory.TDED
	vd    []*cuckoo.Table
	banks int

	// emptyBit enables the per-set Empty Bit arrays that filter accesses to
	// empty VD sets (§5.2.2). It affects only the look-up counters (and,
	// through them, the latency the engine charges).
	emptyBit bool

	// disableEDTD emulates the strongest adversary of §9, which fully
	// controls the shared ED and TD: the victim can use only its VDs.
	disableEDTD bool

	// searchBatch limits the banks searched per round (0 = all).
	searchBatch int

	// Metric handles (nil when no registry is attached; recording is then a
	// branch per event). Shared across slices by name, so they aggregate
	// machine-wide.
	mxEBFiltered *metrics.Counter
	mxVDProbes   *metrics.Counter
	mxTDToVD     *metrics.Counter
	mxVDDrop     *metrics.Counter
}

// Verify interface conformance.
var _ directory.Slice = (*Slice)(nil)

// Params configures a SecDir slice.
type Params struct {
	Cores          int
	TDSets, TDWays int
	EDSets, EDWays int
	VDSets, VDWays int
	NumRelocations int
	Cuckoo         bool // cuckoo (CKVD) vs. single-hash (NoCKVD) banks
	EmptyBit       bool
	DisableEDTD    bool
	// SearchBatch limits how many banks one search round touches (§5.1);
	// 0 searches all banks in parallel. Reads stop at the first hit.
	SearchBatch int
	// StashSize adds a per-bank overflow stash to the cuckoo tables.
	StashSize    int
	Index        cachesim.Index
	AppendixAFix bool
	Seed         int64
}

// New returns an empty SecDir slice.
func New(p Params) *Slice {
	s := &Slice{
		d:           directory.NewTDED(p.TDSets, p.TDWays, p.EDSets, p.EDWays, p.Index, p.AppendixAFix, p.Seed),
		vd:          make([]*cuckoo.Table, p.Cores),
		banks:       p.Cores,
		emptyBit:    p.EmptyBit,
		disableEDTD: p.DisableEDTD,
		searchBatch: p.SearchBatch,
	}
	for c := range s.vd {
		s.vd[c] = cuckoo.New(cuckoo.Config{
			Sets:           p.VDSets,
			Ways:           p.VDWays,
			NumRelocations: p.NumRelocations,
			Cuckoo:         p.Cuckoo,
			StashSize:      p.StashSize,
			Seed:           p.Seed + int64(c)*7919,
		})
	}
	s.d.TDVictim = s.tdVictim
	return s
}

// AttachMetrics registers this slice's instruments in the registry. Handles
// are looked up by name, so every slice of a machine shares one series:
// "vd/reloc_depth" (cuckoo relocation-chain depth per VD insertion),
// "vd/eb_churn" (Empty-Bit set transitions), "vd/eb_filtered" /
// "vd/lookups" (bank probes skipped by / surviving the EB filter), and the
// "dir/td_to_vd" / "dir/vd_drop" migration counters. A nil registry hands
// out nil handles, which record nothing, so it detaches the slice.
func (s *Slice) AttachMetrics(r *metrics.Registry) {
	s.mxEBFiltered = r.Counter("vd/eb_filtered")
	s.mxVDProbes = r.Counter("vd/lookups")
	s.mxTDToVD = r.Counter("dir/td_to_vd")
	s.mxVDDrop = r.Counter("dir/vd_drop")
	depth := r.Histogram("vd/reloc_depth")
	churn := r.Counter("vd/eb_churn")
	for _, b := range s.vd {
		b.DepthHist = depth
		b.EBChurn = churn
	}
}

// Reset restores the slice to the state New would produce with the given
// seed, reusing the TD/ED and VD-bank storage: the shared structures are
// emptied and every cuckoo bank reseeded exactly as construction seeds them
// (seed + bank*7919). Attached metric handles are preserved.
func (s *Slice) Reset(seed int64) {
	s.d.Reset(seed)
	for c, b := range s.vd {
		b.Reset(seed + int64(c)*7919)
	}
}

// tdVictim disposes of a TD conflict victim per Figure 3(b), appending the
// side effects to the slice's action buffer.
func (s *Slice) tdVictim(line addr.Line, m directory.Meta) {
	if m.HasData && m.Dirty {
		// The LLC copy is the up-to-date one; it goes back to memory
		// whether or not sharers keep clean copies.
		s.d.Buf.Emit(directory.Action{Kind: directory.WritebackMem, Line: line, Reason: directory.ReasonTDConflict})
	}
	if m.Sharers == 0 {
		// Transition ②: the line lives only in the LLC, which means the
		// victim itself evicted it from its private cache (a self-conflict).
		// Discarding it is secure.
		s.d.Stat.TDDrop++
		return
	}
	// Transition ③: migrate the entry into the VD bank of every sharer.
	// This is local to the directory: no coherence transactions, no L2 state
	// changes, and the sharers keep their lines.
	s.d.Stat.TDToVD++
	s.mxTDToVD.Inc()
	m.Sharers.ForEach(func(c int) {
		s.insertVD(c, line)
	})
}

// insertVD places the line in core's VD bank. A cuckoo conflict evicts some
// entry of the same bank (transition ⑤): the corresponding line is
// invalidated from that core's L2 only — a self-conflict, emitted into the
// slice's action buffer. If the insertion of the line itself fails (the
// relocation chain ends by displacing the new entry), the line simply gains
// no VD entry and the caller invalidates it.
func (s *Slice) insertVD(core int, line addr.Line) {
	victim, evicted := s.vd[core].Insert(line)
	if !evicted {
		return
	}
	s.d.Stat.VDDrop++
	s.mxVDDrop.Inc()
	s.d.Buf.Emit(directory.Action{
		Kind: directory.InvalidateL2, Core: core, Line: victim, Reason: directory.ReasonVDConflict,
	})
}

// vdSearch assembles the presence bit vector of Figure 4(b), counting bank
// look-ups with and without the Empty Bit filter. With a search-batch limit
// (§5.1), banks are visited batch by batch and — when stopAtFirst is set, as
// on read requests — the search is called off as soon as a match is found.
// It returns the sharers found and the number of batch rounds visited.
func (s *Slice) vdSearch(line addr.Line, stopAtFirst bool) (directory.Bitset, int) {
	batch := s.searchBatch
	if batch <= 0 || batch > s.banks {
		batch = s.banks
	}
	// All banks share one geometry, so the skewing hashes agree across banks:
	// hash the line once and probe every bank at the precomputed pair — the
	// hardware computes h1/h2 once per request too, not once per bank.
	s0, s1 := s.vd[0].SetPair(line)
	var sh directory.Bitset
	rounds := 0
	for start := 0; start < s.banks; start += batch {
		rounds++
		end := start + batch
		if end > s.banks {
			end = s.banks
		}
		for c := start; c < end; c++ {
			s.d.Stat.VDLookupsNoEB++
			if s.emptyBit && s.vd[c].EmptyBitHitAt(s0, s1) {
				s.mxEBFiltered.Inc()
				continue
			}
			s.d.Stat.VDLookups++
			s.mxVDProbes.Inc()
			if s.vd[c].ContainsAt(line, s0, s1) {
				sh = sh.Set(c)
			}
		}
		if stopAtFirst && sh != 0 {
			break
		}
	}
	return sh, rounds
}

// vdSharers performs a full (non-early-out) VD search.
func (s *Slice) vdSharers(line addr.Line) directory.Bitset {
	sh, _ := s.vdSearch(line, false)
	return sh
}

// Miss implements directory.Slice.
func (s *Slice) Miss(core int, line addr.Line, write bool) directory.MissResult {
	s.d.Buf.Reset()
	var edCur, tdCur cachesim.Cursor
	if !s.disableEDTD {
		m, slot, c1 := s.d.ED.AccessCursor(line)
		if slot >= 0 {
			s.d.Stat.EDHits++
			res := directory.MissResult{
				Where:   directory.WhereED,
				Source:  directory.SourceRemoteL2,
				SrcCore: int32(m.Sharers.First()),
			}
			edServe(&s.d.Buf, m, core, line, write)
			res.Actions = s.d.Buf.Actions()
			return res
		}
		edCur = c1
		m, slot, c2 := s.d.TD.AccessCursor(line)
		if slot >= 0 {
			s.d.Stat.TDHits++
			res := directory.MissResult{Where: directory.WhereTD}
			if !m.HasData {
				res.SrcCore = int32(m.Sharers.First())
			}
			if write {
				meta := *m
				if meta.HasData {
					res.Source = directory.SourceLLC
				} else {
					res.Source = directory.SourceRemoteL2
				}
				s.d.PromoteTDToEDAt(edCur, slot, core, line, meta)
			} else {
				fromLLC := s.d.ReadHitTDAt(edCur, slot, core, line, m)
				if fromLLC {
					res.Source = directory.SourceLLC
				} else {
					res.Source = directory.SourceRemoteL2
				}
			}
			res.Actions = s.d.Buf.Actions()
			return res
		}
		tdCur = c2
	}

	// ED and TD missed: consult the Victim Directories (§5.1). Reads call
	// off the search at the first matching bank; writes need the complete
	// sharer vector.
	probedBefore := s.d.Stat.VDLookups
	sharers, rounds := s.vdSearch(line, !write)
	res := directory.MissResult{
		VDConsulted:   true,
		VDBanksProbed: uint8(s.d.Stat.VDLookups - probedBefore),
		VDBatchRounds: uint8(rounds),
	}
	if sharers != 0 {
		s.d.Stat.VDHits++
		res.Where = directory.WhereVD
		res.Source = directory.SourceRemoteL2
		res.SrcCore = int32(sharers.First())
		if write {
			// Invalidate every sharer and its VD entry; the writer's entry
			// is allocated in the writer's own bank (§5.1).
			sharers.ForEach(func(c int) {
				s.vd[c].Remove(line)
				s.d.Buf.Emit(directory.Action{
					Kind: directory.InvalidateL2, Core: c, Line: line, Reason: directory.ReasonCoherence,
				})
			})
		}
		s.allocRequester(core, line, &res)
		res.Actions = s.d.Buf.Actions()
		return res
	}

	// Nothing anywhere: fetch from memory (transition ①). The entry goes to
	// the ED, or to the requester's VD bank when the shared structures are
	// disabled (§9's strongest-adversary emulation).
	s.d.Stat.MemFetches++
	res.Where = directory.WhereNone
	res.Source = directory.SourceMemory
	res.Exclusive = !write
	if s.disableEDTD {
		s.allocRequester(core, line, &res)
	} else {
		s.d.InsertEDAt(edCur, tdCur, line, directory.Meta{
			Sharers: directory.Bitset(0).Set(core), Dirty: write,
		})
	}
	res.Actions = s.d.Buf.Actions()
	return res
}

// allocRequester inserts the requester's VD entry for a line served out of
// the VDs (or out of memory in disableEDTD mode), emitting any self-conflict
// invalidation into the slice's action buffer. If the cuckoo chain ends by
// displacing the new entry itself, the fill is suppressed (NoFill) instead of
// caching a line with no directory entry.
func (s *Slice) allocRequester(core int, line addr.Line, res *directory.MissResult) {
	victim, evicted := s.vd[core].Insert(line)
	if !evicted {
		return
	}
	s.d.Stat.VDDrop++
	s.mxVDDrop.Inc()
	if victim == line {
		res.NoFill = true
		return
	}
	s.d.Buf.Emit(directory.Action{
		Kind: directory.InvalidateL2, Core: core, Line: victim, Reason: directory.ReasonVDConflict,
	})
}

// edServe mirrors the baseline's in-place ED update for a miss, appending a
// write's coherence invalidations to buf.
func edServe(buf *directory.ActionBuf, m *directory.Meta, core int, line addr.Line, write bool) {
	if !write {
		m.Sharers = m.Sharers.Set(core)
		return
	}
	m.Sharers.ForEach(func(c int) {
		if c != core {
			buf.Emit(directory.Action{Kind: directory.InvalidateL2, Core: c, Line: line, Reason: directory.ReasonCoherence})
		}
	})
	m.Sharers = directory.Bitset(0).Set(core)
	m.Dirty = true
}

// Upgrade implements directory.Slice.
func (s *Slice) Upgrade(core int, line addr.Line) []directory.Action {
	s.d.Buf.Reset()
	if !s.disableEDTD {
		if m, ok := s.d.ED.Access(line); ok {
			edServe(&s.d.Buf, m, core, line, true)
			return s.d.Buf.Actions()
		}
		if m, ok := s.d.TD.Access(line); ok {
			s.d.Stat.TDHits++
			s.d.PromoteTDToED(core, line, *m)
			return s.d.Buf.Actions()
		}
	}
	sharers := s.vdSharers(line)
	if !sharers.Has(core) {
		panic("core: upgrade by a core with no VD entry or directory entry")
	}
	sharers.ForEach(func(c int) {
		if c == core {
			return
		}
		s.vd[c].Remove(line)
		s.d.Buf.Emit(directory.Action{
			Kind: directory.InvalidateL2, Core: c, Line: line, Reason: directory.ReasonCoherence,
		})
	})
	return s.d.Buf.Actions()
}

// L2Evict implements directory.Slice. A line whose entry lives in the VDs is
// consolidated into a single TD entry (transition ④): all banks are searched,
// matching entries are removed, and the line is written into the LLC.
func (s *Slice) L2Evict(core int, line addr.Line, dirty bool) []directory.Action {
	s.d.Buf.Reset()
	if !s.disableEDTD {
		if m, slot := s.d.ED.ProbeSlot(line); slot >= 0 {
			meta := *m
			if !meta.Sharers.Has(core) {
				panic("core: L2 evict by a non-sharer (ED)")
			}
			s.d.ED.RemoveSlot(slot)
			s.d.Stat.EDToTD++
			meta.Sharers = meta.Sharers.Clear(core)
			meta.HasData = true
			meta.Dirty = dirty
			s.d.InsertTD(line, meta)
			return s.d.Buf.Actions()
		}
		if m, ok := s.d.TD.Probe(line); ok {
			if !m.Sharers.Has(core) {
				panic("core: L2 evict by a non-sharer (TD)")
			}
			m.Sharers = m.Sharers.Clear(core)
			m.HasData = true
			m.Dirty = m.Dirty || dirty
			return nil
		}
	}

	if s.disableEDTD {
		// No LLC/TD to receive the victim: the evicting core's VD entry is
		// dropped with the line; other sharers are undisturbed.
		if !s.vd[core].Remove(line) {
			panic("core: L2 evict for a line with no directory entry")
		}
		if dirty {
			s.d.Buf.Emit(directory.Action{Kind: directory.WritebackMem, Line: line, Reason: directory.ReasonCoherence})
		}
		return s.d.Buf.Actions()
	}

	// Transition ④: the entry must be in the VDs; consolidate.
	var sharers directory.Bitset
	s0, s1 := s.vd[0].SetPair(line)
	for c := 0; c < s.banks; c++ {
		if s.vd[c].ContainsAt(line, s0, s1) {
			sharers = sharers.Set(c)
			s.vd[c].Remove(line)
		}
	}
	if !sharers.Has(core) {
		panic("core: L2 evict for a line with no directory entry")
	}
	s.d.Stat.VDToTD++
	meta := directory.Meta{
		Sharers: sharers.Clear(core),
		HasData: true,
		Dirty:   dirty,
	}
	s.d.InsertTD(line, meta)
	return s.d.Buf.Actions()
}

// Find implements directory.Slice.
func (s *Slice) Find(line addr.Line) (directory.Meta, directory.Where, bool) {
	if m, w, ok := s.d.Find(line); ok {
		return m, w, ok
	}
	var sh directory.Bitset
	s0, s1 := s.vd[0].SetPair(line)
	for c := 0; c < s.banks; c++ {
		if s.vd[c].ContainsAt(line, s0, s1) {
			sh = sh.Set(c)
		}
	}
	if sh != 0 {
		return directory.Meta{Sharers: sh}, directory.WhereVD, true
	}
	return directory.Meta{}, directory.WhereNone, false
}

// Stats implements directory.Slice.
func (s *Slice) Stats() *directory.Stats { return &s.d.Stat }

// VDBank exposes core's VD bank in this slice for tests and experiments.
func (s *Slice) VDBank(core int) *cuckoo.Table { return s.vd[core] }

// TDED exposes the shared structures for tests and the attack toolkit.
func (s *Slice) TDED() *directory.TDED { return s.d }

// VDSelfConflicts returns the total cuckoo conflicts across all banks of this
// slice — the CKVD/NoCKVD metric of Table 6.
func (s *Slice) VDSelfConflicts() uint64 {
	var n uint64
	for _, b := range s.vd {
		n += b.Conflicts
	}
	return n
}
