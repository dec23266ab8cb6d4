// Package coherence implements the multicore cache-coherence engine: private
// L1/L2 caches per core, one directory/LLC slice per core, and a MOESI-style
// protocol driven through the directory.Slice interface. The engine is
// behavioural and sequential: each access is an atomic transaction (no
// transient states), which is the right abstraction level for the paper's
// directory-occupancy and conflict results.
package coherence

import (
	"fmt"

	"secdir/internal/addr"
	"secdir/internal/cachesim"
	"secdir/internal/config"
	"secdir/internal/core"
	"secdir/internal/directory"
)

// l2Line is the per-line private cache state. MOESI is encoded as
// {Excl,Dirty}: M = {true,true}, O = {false,true}, E = {true,false},
// S = {false,false}; Invalid lines are simply absent.
type l2Line struct {
	Dirty bool
	Excl  bool
}

// Level classifies where an access was satisfied.
type Level int

const (
	// LevelL1: hit in the private L1.
	LevelL1 Level = iota
	// LevelL2: hit in the private L2.
	LevelL2
	// LevelEDTD: L2 miss satisfied by an ED or TD entry.
	LevelEDTD
	// LevelVD: L2 miss satisfied by a Victim Directory entry.
	LevelVD
	// LevelMemory: L2 miss that fetched from DRAM.
	LevelMemory
)

// String implements fmt.Stringer.
func (l Level) String() string {
	switch l {
	case LevelL1:
		return "L1"
	case LevelL2:
		return "L2"
	case LevelEDTD:
		return "ED+TD"
	case LevelVD:
		return "VD"
	case LevelMemory:
		return "memory"
	default:
		return fmt.Sprintf("Level(%d)", int(l))
	}
}

// AccessResult describes one memory access.
type AccessResult struct {
	Level   Level
	Latency int // round-trip cycles charged to the core
	NoFill  bool
}

// CoreStats aggregates per-core counters.
type CoreStats struct {
	Accesses uint64
	L1Hits   uint64
	L2Hits   uint64
	MissEDTD uint64 // L2 misses satisfied by ED/TD
	MissVD   uint64 // L2 misses satisfied by VD
	MissMem  uint64 // L2 misses that went to memory
	Upgrades uint64 // S->M directory upgrades
	NoFills  uint64
	// ConflictInvalidations counts private-cache lines this core lost to
	// shared-structure conflicts (TD or unfixed-ED) caused by any core —
	// the inclusion victims that directory attacks create.
	ConflictInvalidations uint64
	// SelfConflictInvalidations counts lines lost to this core's own VD
	// conflicts (transition ⑤) — safe under the threat model.
	SelfConflictInvalidations uint64
}

// Stats aggregates engine-wide counters.
type Stats struct {
	Core          []CoreStats
	MemWritebacks uint64
}

// L2Misses returns the total L2 misses of a core.
func (c CoreStats) L2Misses() uint64 { return c.MissEDTD + c.MissVD + c.MissMem }

// Engine is the multicore coherence simulator.
type Engine struct {
	cfg    config.Config
	mapper addr.Mapper
	l1     []*cachesim.Cache[struct{}]
	l2     []*cachesim.Cache[l2Line]
	// slices[s] is nil until slice s is first used; newSlice builds it.
	slices   []directory.Slice
	newSlice func(seed int64) directory.Slice

	// secSlices/baseSlices alias slices with their concrete types when the
	// configuration uses SecDir or Baseline directories (nil otherwise). The
	// miss path dispatches through these so the two kinds every experiment
	// sweep measures skip the directory.Slice interface call.
	secSlices  []*core.Slice
	baseSlices []*directory.BaselineSlice
	// housekeepers[s] is non-nil iff slice s needs maintenance at transaction
	// boundaries; resolving the type assertion once at construction keeps it
	// off the per-miss path.
	housekeepers []directory.Housekeeper

	stats Stats
	log   *eventLog
	mx    *engineMetrics

	// flushScratch is FlushCore's reusable line buffer, sized to the largest
	// L2 occupancy flushed so far.
	flushScratch []addr.Line
}

// NewEngine builds a machine from the configuration. The directory kind
// selects baseline or SecDir slices. The per-core private caches are built
// here; each directory slice is built on its first use (see Slice), so a
// trial that touches one slice pays for one. NewEngine still rejects every
// configuration whose slices cannot be built.
func NewEngine(cfg config.Config) (*Engine, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	newSlice, err := sliceBuilder(cfg)
	if err != nil {
		return nil, err
	}
	e := &Engine{
		cfg:          cfg,
		mapper:       addr.NewMapper(cfg.Cores, cfg.TDSets),
		newSlice:     newSlice,
		l1:           make([]*cachesim.Cache[struct{}], cfg.Cores),
		l2:           make([]*cachesim.Cache[l2Line], cfg.Cores),
		slices:       make([]directory.Slice, cfg.Cores),
		secSlices:    make([]*core.Slice, cfg.Cores),
		baseSlices:   make([]*directory.BaselineSlice, cfg.Cores),
		housekeepers: make([]directory.Housekeeper, cfg.Cores),
	}
	e.stats.Core = make([]CoreStats, cfg.Cores)
	for c := 0; c < cfg.Cores; c++ {
		e.l1[c] = cachesim.New[struct{}](cfg.L1Sets, cfg.L1Ways, cachesim.ModIndex(cfg.L1Sets), cachesim.LRU, cfg.Seed+int64(c)*31)
		e.l2[c] = cachesim.New[l2Line](cfg.L2Sets, cfg.L2Ways, cachesim.ModIndex(cfg.L2Sets), cfg.L2Policy, cfg.Seed+int64(c)*37)
	}
	return e, nil
}

// sliceSeed is the seed of directory slice s. Each slice is seeded on its
// own, so building slices in any order, or never building an untouched one,
// cannot change what the others do.
func sliceSeed(seed int64, s int) int64 { return seed + int64(s)*101 }

// sliceBuilder validates the configuration's directory parameters and
// returns the constructor of one slice from its seed. Every slice of a
// machine shares the parameters, so once the builder exists no build can
// fail. Engine.Reset drops the rival kinds and Slice rebuilds them through
// the same constructor, so a reset engine and a fresh engine stay
// bit-identical.
func sliceBuilder(cfg config.Config) (func(seed int64) directory.Slice, error) {
	// Identical to closing over the mapper's Set, but expressed as data so
	// directory probes stay on the cachesim shift-and-mask fast path.
	index := cachesim.ShiftIndex(addr.SetShift, cfg.TDSets)
	switch cfg.Kind {
	case config.Baseline:
		p := directory.BaselineParams{
			TDSets: cfg.TDSets, TDWays: cfg.TDWays,
			EDSets: cfg.EDSets, EDWays: cfg.EDWays,
			Index:        index,
			AppendixAFix: cfg.AppendixAFix,
		}
		return func(seed int64) directory.Slice {
			p.Seed = seed
			return directory.NewBaseline(p)
		}, nil
	case config.SecDir:
		p := core.Params{
			Cores:  cfg.Cores,
			TDSets: cfg.TDSets, TDWays: cfg.TDWays,
			EDSets: cfg.EDSets, EDWays: cfg.EDWays,
			VDSets: cfg.VDSets, VDWays: cfg.VDWays,
			NumRelocations: cfg.NumRelocations,
			Cuckoo:         cfg.VDCuckoo,
			EmptyBit:       cfg.VDEmptyBit,
			DisableEDTD:    cfg.DisableEDTD,
			SearchBatch:    cfg.VDSearchBatch,
			StashSize:      cfg.VDStash,
			Index:          index,
			AppendixAFix:   cfg.AppendixAFix,
		}
		return func(seed int64) directory.Slice {
			p.Seed = seed
			return core.New(p)
		}, nil
	case config.WayPartitioned:
		p := directory.WayPartParams{
			Cores:  cfg.Cores,
			TDSets: cfg.TDSets, TDWays: cfg.TDWays,
			EDSets: cfg.EDSets, EDWays: cfg.EDWays,
			Index: index,
		}
		if err := p.Validate(); err != nil {
			return nil, err
		}
		return func(seed int64) directory.Slice {
			p.Seed = seed
			return must(directory.NewWayPartitioned(p))
		}, nil
	case config.SkewedDir:
		p := directory.SkewedParams{Sets: cfg.TDSets, Ways: cfg.TDWays + cfg.EDWays}
		return func(seed int64) directory.Slice {
			p.Seed = seed
			return directory.NewSkewed(p)
		}, nil
	case config.DLS:
		p := directory.DLSParams{Sets: cfg.TDSets, Ways: cfg.TDWays + cfg.EDWays, Index: index}
		return func(seed int64) directory.Slice {
			p.Seed = seed
			return directory.NewDLS(p)
		}, nil
	case config.TagPartitioned:
		// Its only error, a non-positive core count, cfg.Validate rejects.
		p := directory.TagPartParams{
			Cores: cfg.Cores,
			Sets:  cfg.TDSets, Ways: cfg.TDWays + cfg.EDWays,
			Index: index,
		}
		return func(seed int64) directory.Slice {
			p.Seed = seed
			return must(directory.NewTagPartitioned(p))
		}, nil
	case config.Ceaser:
		p := directory.CeaserParams{
			TDSets: cfg.TDSets, TDWays: cfg.TDWays,
			EDSets: cfg.EDSets, EDWays: cfg.EDWays,
			RekeyEvery: cfg.RekeyEvery,
			RemapStep:  cfg.RemapStep,
		}
		return func(seed int64) directory.Slice {
			p.Seed = seed
			return directory.NewCeaser(p)
		}, nil
	default:
		return nil, fmt.Errorf("coherence: unknown directory kind %v", cfg.Kind)
	}
}

// must unwraps a constructor whose parameters sliceBuilder already
// validated.
func must[S directory.Slice](sl S, err error) directory.Slice {
	if err != nil {
		panic(fmt.Sprintf("coherence: validated slice failed to build: %v", err))
	}
	return sl
}

// installSlice wires a slice into position s, resolving the monomorphic
// aliases and the housekeeper assertion once so none of them sit on a hot
// path. A nil slice marks position s unbuilt.
func (e *Engine) installSlice(s int, sl directory.Slice) {
	e.slices[s] = sl
	e.secSlices[s], _ = sl.(*core.Slice)
	e.baseSlices[s], _ = sl.(*directory.BaselineSlice)
	e.housekeepers[s], _ = sl.(directory.Housekeeper)
}

// Reset restores the engine to the state NewEngine(cfg.WithSeed(seed)) would
// produce, reusing the private-cache and directory storage. Built SecDir and
// Baseline slices — the kinds every leakage sweep hammers — reset in place;
// built rival-kind slices are dropped and rebuilt on first use; unbuilt
// slices stay unbuilt. Attached metrics and event logs stay attached with
// their counters untouched. Since no slice is built here, Reset cannot fail:
// the error result is always nil.
func (e *Engine) Reset(seed int64) error {
	e.cfg = e.cfg.WithSeed(seed)
	for c := 0; c < e.cfg.Cores; c++ {
		e.l1[c].Reset(e.cfg.Seed + int64(c)*31)
		e.l2[c].Reset(e.cfg.Seed + int64(c)*37)
	}
	for s := range e.slices {
		if sd := e.secSlices[s]; sd != nil {
			sd.Reset(sliceSeed(e.cfg.Seed, s))
			continue
		}
		if b := e.baseSlices[s]; b != nil {
			b.Reset(sliceSeed(e.cfg.Seed, s))
			continue
		}
		e.installSlice(s, nil)
	}
	for c := range e.stats.Core {
		e.stats.Core[c] = CoreStats{}
	}
	e.stats.MemWritebacks = 0
	return nil
}

// sliceMiss dispatches an L2 miss to its home slice, monomorphically for
// the SecDir and Baseline kinds so the compiler sees a direct call. A
// slice's first miss takes the Slice fallback, which builds it.
func (e *Engine) sliceMiss(s, c int, line addr.Line, write bool) directory.MissResult {
	if sd := e.secSlices[s]; sd != nil {
		return sd.Miss(c, line, write)
	}
	if b := e.baseSlices[s]; b != nil {
		return b.Miss(c, line, write)
	}
	return e.Slice(s).Miss(c, line, write)
}

// sliceUpgrade dispatches a directory upgrade, monomorphically where possible.
func (e *Engine) sliceUpgrade(s, c int, line addr.Line) []directory.Action {
	if sd := e.secSlices[s]; sd != nil {
		return sd.Upgrade(c, line)
	}
	if b := e.baseSlices[s]; b != nil {
		return b.Upgrade(c, line)
	}
	return e.Slice(s).Upgrade(c, line)
}

// sliceL2Evict dispatches an L2 victim notification, monomorphically where
// possible.
func (e *Engine) sliceL2Evict(s, c int, line addr.Line, dirty bool) []directory.Action {
	if sd := e.secSlices[s]; sd != nil {
		return sd.L2Evict(c, line, dirty)
	}
	if b := e.baseSlices[s]; b != nil {
		return b.L2Evict(c, line, dirty)
	}
	return e.Slice(s).L2Evict(c, line, dirty)
}

// Config returns the engine's configuration.
func (e *Engine) Config() config.Config { return e.cfg }

// Mapper returns the address mapper (slice/set hashing).
func (e *Engine) Mapper() addr.Mapper { return e.mapper }

// Slice returns directory slice s, building it on first use. A slice built
// while metrics are attached gets its own instruments attached too.
func (e *Engine) Slice(s int) directory.Slice {
	if sl := e.slices[s]; sl != nil {
		return sl
	}
	sl := e.newSlice(sliceSeed(e.cfg.Seed, s))
	if sd, ok := sl.(*core.Slice); ok && e.mx != nil {
		sd.AttachMetrics(e.mx.reg)
	}
	e.installSlice(s, sl)
	return sl
}

// Stats returns the engine counters.
func (e *Engine) Stats() *Stats { return &e.stats }

// DirStats returns the sum of all slices' directory counters. Unbuilt
// slices have seen no operation and are skipped without being built.
func (e *Engine) DirStats() directory.Stats {
	var agg directory.Stats
	for _, s := range e.slices {
		if s != nil {
			agg.Add(*s.Stats())
		}
	}
	return agg
}

// dirLatency returns the round trip to the line's home slice from the core.
// With MeshHopRT set, tiles sit on a width-4 mesh (Table 4's 4×2 layout for
// 8 cores) and the cost grows with the Manhattan distance; otherwise the flat
// local/remote split applies.
func (e *Engine) dirLatency(c, slice int) int {
	if hop := e.cfg.Lat.MeshHopRT; hop > 0 {
		return e.cfg.Lat.DirLocalRT + hop*meshHops(c, slice, e.cfg.Cores)
	}
	if c == slice {
		return e.cfg.Lat.DirLocalRT
	}
	return e.cfg.Lat.DirRemoteRT
}

// meshHops returns the Manhattan distance between two tiles on a mesh of
// width min(4, cores).
func meshHops(a, b, cores int) int {
	w := 4
	if cores < w {
		w = cores
	}
	ax, ay := a%w, a/w
	bx, by := b%w, b/w
	dx, dy := ax-bx, ay-by
	if dx < 0 {
		dx = -dx
	}
	if dy < 0 {
		dy = -dy
	}
	return dx + dy
}

// Access performs one memory access by the core and returns where it was
// satisfied plus the latency charged.
func (e *Engine) Access(c int, line addr.Line, write bool) AccessResult {
	st := &e.stats.Core[c]
	st.Accesses++

	// L1 probe. L1 is a subset of L2, so an L1 hit implies an L2 entry that
	// holds the authoritative MOESI state. The miss scans leave fill cursors
	// behind so the fills at the end of the transaction skip their re-scans.
	_, l1slot, l1cur := e.l1[c].AccessCursor(line)
	if l1slot >= 0 {
		st.L1Hits++
		lat := e.cfg.Lat.L1RT
		if write {
			ls, ok := e.l2[c].Probe(line)
			if !ok {
				panic("coherence: L1 line not present in L2 (subset invariant)")
			}
			l, _ := e.writeHit(c, line, ls)
			lat += l
		}
		if e.log != nil {
			e.emit(Event{Kind: OpAccess, Core: c, Line: line, Level: LevelL1, Write: write})
		}
		e.recordAccess(LevelL1, lat)
		return AccessResult{Level: LevelL1, Latency: lat}
	}

	// L2 probe.
	ls, l2slot, l2cur := e.l2[c].AccessCursor(line)
	if l2slot >= 0 {
		st.L2Hits++
		lat := e.cfg.Lat.L2RT
		lost := false
		if write {
			var l int
			l, lost = e.writeHit(c, line, ls)
			lat += l
		}
		if !lost {
			e.l1[c].PutAt(l1cur, line, struct{}{})
		}
		if e.log != nil {
			e.emit(Event{Kind: OpAccess, Core: c, Line: line, Level: LevelL2, Write: write})
		}
		e.recordAccess(LevelL2, lat)
		return AccessResult{Level: LevelL2, Latency: lat}
	}

	// L2 miss: consult the line's home directory slice.
	if mx := e.mx; mx != nil {
		if write {
			mx.msgGetX.Inc()
		} else {
			mx.msgGetS.Inc()
		}
	}
	slice := e.mapper.Slice(line)
	res := e.sliceMiss(slice, c, line, write)
	e.apply(c, res.Actions)

	lat := e.cfg.Lat.L2RT + e.dirLatency(c, slice)
	if res.VDConsulted {
		rounds := int(res.VDBatchRounds)
		if rounds < 1 {
			rounds = 1
		}
		if e.cfg.VDEmptyBit {
			lat += e.cfg.Lat.EBCheck
			if res.VDBanksProbed > 0 {
				lat += e.cfg.Lat.VDAccess * rounds
			}
		} else {
			lat += e.cfg.Lat.VDAccess * rounds
		}
	} else if e.cfg.Kind == config.SecDir {
		// §6 timing-channel mitigation: pad ED/TD-satisfied transactions so
		// the attacker cannot tell from latency whether a victim's entry
		// lives in the shared structures or in a VD.
		lat += e.mitigationPad(res.Source == directory.SourceRemoteL2 || hasInvalidation(res.Actions))
	}
	var level Level
	switch res.Where {
	case directory.WhereED, directory.WhereTD:
		st.MissEDTD++
		level = LevelEDTD
	case directory.WhereVD:
		st.MissVD++
		level = LevelVD
	default:
		st.MissMem++
		level = LevelMemory
	}
	switch res.Source {
	case directory.SourceMemory:
		lat += e.cfg.Lat.DRAMRT
	case directory.SourceRemoteL2:
		lat += e.cfg.Lat.CacheToCore
		// A forwarding exclusive owner downgrades on a read: M→O / E→S under
		// MOESI; under MESI there is no Owned state, so a dirty forwarder
		// writes back to memory and both copies become Shared.
		if !write {
			if fs, ok := e.l2[res.SrcCore].Probe(line); ok {
				fs.Excl = false
				if e.cfg.Protocol == config.MESI && fs.Dirty {
					fs.Dirty = false
					e.stats.MemWritebacks++
					if e.mx != nil {
						e.mx.writebacks.Inc()
					}
				}
			}
		}
	}

	// The core overlaps independent misses (memory-level parallelism): the
	// stall charged per miss is the round trip divided by the MLP factor.
	if mlp := e.cfg.Lat.MLP; mlp > 1 {
		lat /= mlp
	}

	if e.log != nil {
		e.emit(Event{Kind: OpAccess, Core: c, Line: line, Level: level, Write: write})
	}
	e.recordAccess(level, lat)
	if res.NoFill {
		st.NoFills++
		if e.mx != nil {
			e.mx.noFills.Inc()
		}
		e.housekeep(c, slice)
		return AccessResult{Level: level, Latency: lat, NoFill: true}
	}
	// The victim's eviction cascade can conflict-invalidate the very line
	// just filled (likeliest with tiny per-core partitions): only install
	// it in the L1 if it survived, or the L1 would outlive the L2.
	if e.fillL2At(c, l2cur, line, l2Line{Dirty: write, Excl: write || res.Exclusive}) {
		e.l1[c].PutAt(l1cur, line, struct{}{})
	}
	e.housekeep(c, slice)
	return AccessResult{Level: level, Latency: lat}
}

// housekeep runs deferred slice maintenance (e.g. randomized re-keying) at a
// transaction boundary, where every cached line has a settled directory
// entry. The Housekeeper assertion is resolved once at construction, so the
// common kinds pay one nil check here.
func (e *Engine) housekeep(c, slice int) {
	if hk := e.housekeepers[slice]; hk != nil {
		e.apply(c, hk.Housekeep())
	}
}

// writeHit upgrades a private copy for writing. ls is the writer's L2 entry,
// already located by the caller's probe. Exclusive copies (E/M) are written
// silently; Shared/Owned copies need a directory upgrade that invalidates the
// other sharers. It returns the extra latency and whether the writer's own
// copy was lost mid-upgrade: an upgrade never invalidates the writer, but
// slice housekeeping (the randomized design's re-keying) can conflict the
// freshly upgraded entry out before the transaction settles. On loss, the
// store itself has already been performed architecturally; the caller must
// simply not re-install the line in the L1.
func (e *Engine) writeHit(c int, line addr.Line, ls *l2Line) (int, bool) {
	if ls.Excl {
		ls.Dirty = true
		return 0, false
	}
	slice := e.mapper.Slice(line)
	lat := e.dirLatency(c, slice)
	if e.cfg.Kind == config.SecDir {
		// An upgrade consults the VDs only when the entry lives there;
		// charge that path, or the §6 mitigation pad on the ED/TD path
		// (an upgrade always invalidates other sharers, so the selective
		// mitigation applies too).
		if _, w, _ := e.secSlices[slice].Find(line); w == directory.WhereVD {
			lat += e.cfg.Lat.EBCheck + e.cfg.Lat.VDAccess
		} else {
			lat += e.mitigationPad(true)
		}
	}
	gen := e.l2[c].Gen()
	acts := e.sliceUpgrade(slice, c, line)
	e.apply(c, acts)
	e.housekeep(c, slice)
	e.stats.Core[c].Upgrades++
	if e.mx != nil {
		e.mx.msgUpgrade.Inc()
	}
	// Housekeeping may have invalidated the writer's copy (and with it the
	// pointer captured above); the probe pointer stays valid as long as
	// nothing in the L2 moved, which the unchanged generation certifies.
	if e.l2[c].Gen() != gen {
		var ok bool
		ls, ok = e.l2[c].Probe(line)
		if !ok {
			return lat, true
		}
	}
	ls.Excl = true
	ls.Dirty = true
	return lat, false
}

// mitigationPad returns the §6 latency padding for an ED/TD-satisfied
// transaction. crossCore reports whether the transaction invalidates or
// queries another core's cache.
func (e *Engine) mitigationPad(crossCore bool) int {
	switch e.cfg.Mitigation {
	case config.MitigationNaive:
		return e.cfg.Lat.EBCheck + e.cfg.Lat.VDAccess
	case config.MitigationSelective:
		if crossCore {
			return e.cfg.Lat.EBCheck + e.cfg.Lat.VDAccess
		}
	}
	return 0
}

// hasInvalidation reports whether any action invalidates a private cache.
func hasInvalidation(acts []directory.Action) bool {
	for _, a := range acts {
		if a.Kind == directory.InvalidateL2 {
			return true
		}
	}
	return false
}

// fillL2At installs a line in the core's L2 at the slot the miss scan's
// cursor selected, handling the victim's directory update (and any cascade it
// triggers). It reports whether the line is still present afterwards: the
// victim's eviction cascade can conflict-invalidate the just-filled line. The
// common no-invalidation case is detected by the L2 generation counter not
// having moved, skipping the re-probe.
func (e *Engine) fillL2At(c int, cur cachesim.Cursor, line addr.Line, state l2Line) bool {
	v, evicted := e.l2[c].PutAt(cur, line, state)
	if !evicted {
		return true
	}
	gen := e.l2[c].Gen()
	// Back-invalidate L1 to preserve the subset property.
	e.l1[c].Remove(v.Line)
	if e.log != nil {
		e.emit(Event{Kind: OpL2Evict, Core: c, Line: v.Line})
	}
	if e.mx != nil {
		e.mx.msgEvict.Inc()
	}
	vslice := e.mapper.Slice(v.Line)
	acts := e.sliceL2Evict(vslice, c, v.Line, v.Data.Dirty)
	e.apply(c, acts)
	if e.l2[c].Gen() == gen {
		return true
	}
	_, ok := e.l2[c].Probe(line)
	return ok
}

// apply executes the side effects of a directory transition. requester is
// the core whose access triggered the transition (used only for accounting).
func (e *Engine) apply(requester int, acts []directory.Action) {
	for _, a := range acts {
		switch a.Kind {
		case directory.InvalidateL2:
			e.l1[a.Core].Remove(a.Line)
			ls, ok := e.l2[a.Core].Remove(a.Line)
			if !ok {
				panic(fmt.Sprintf("coherence: invalidate of uncached line %#x on core %d (%v)", uint64(a.Line), a.Core, a.Reason))
			}
			if e.log != nil {
				e.emit(Event{Kind: OpInvalidate, Core: a.Core, Line: a.Line, Reason: a.Reason})
			}
			if e.mx != nil {
				e.mx.invalidate[a.Reason].Inc()
			}
			switch a.Reason {
			case directory.ReasonCoherence:
				// The requester takes ownership of the data: no write-back.
			case directory.ReasonVDConflict:
				e.stats.Core[a.Core].SelfConflictInvalidations++
				if ls.Dirty {
					e.stats.MemWritebacks++
					if e.mx != nil {
						e.mx.writebacks.Inc()
					}
				}
			default: // TD or unfixed-ED conflicts: inclusion victims.
				e.stats.Core[a.Core].ConflictInvalidations++
				if ls.Dirty {
					e.stats.MemWritebacks++
					if e.mx != nil {
						e.mx.writebacks.Inc()
					}
				}
			}
		case directory.WritebackMem:
			e.stats.MemWritebacks++
			if e.mx != nil {
				e.mx.writebacks.Inc()
			}
			if e.log != nil {
				e.emit(Event{Kind: OpWriteback, Core: requester, Line: a.Line})
			}
		}
	}
}

// L2Contains reports whether the core's L2 holds the line — used by the
// attack toolkit to detect inclusion victims directly.
func (e *Engine) L2Contains(c int, line addr.Line) bool {
	_, ok := e.l2[c].Probe(line)
	return ok
}

// FlushCore invalidates every line of the core's private caches, updating
// the directory as if each line were evicted (used to reset attacker state
// between attack rounds).
func (e *Engine) FlushCore(c int) {
	// Pre-size the scratch buffer from the L2 occupancy so collecting the
	// lines never reallocates mid-Range.
	if n := e.l2[c].Len(); cap(e.flushScratch) < n {
		e.flushScratch = make([]addr.Line, 0, n)
	}
	lines := e.flushScratch[:0]
	e.l2[c].Range(func(l addr.Line, _ *l2Line) bool {
		lines = append(lines, l)
		return true
	})
	e.flushScratch = lines
	for _, l := range lines {
		// Evicting one line can conflict-invalidate a later one from this
		// same core; skip lines that are already gone.
		st, ok := e.l2[c].Remove(l)
		if !ok {
			continue
		}
		e.l1[c].Remove(l)
		if e.mx != nil {
			e.mx.msgEvict.Inc()
		}
		acts := e.sliceL2Evict(e.mapper.Slice(l), c, l, st.Dirty)
		e.apply(c, acts)
	}
}
