package coherence

import (
	"fmt"

	"secdir/internal/addr"
	"secdir/internal/core"
	"secdir/internal/directory"
)

// entryRanger is the merged entry walk that single-structure directory
// designs expose for invariant checks and conformance tests.
type entryRanger interface {
	ForEach(fn func(l addr.Line, m directory.Meta, w directory.Where) bool)
}

// CheckInvariants verifies the global coherence invariants and returns the
// first violation found. It is intended for tests, fuzzing and end-of-run
// audits, not for the hot path. Its cost is one directory look-up per
// private L2 line plus a few set-indexed cache probes per directory entry:
// an ED/TD entry probes its sharers' L2s, and a VD presence probes its
// owner's L2 and its slice's ED and TD. The only skew hashes are those of
// the look-ups of VD-tracked L2 lines, one pair each.
//
// Invariants:
//  1. L1 is a subset of L2 on every core.
//  2. Every line cached in a private L2 has exactly one directory entry
//     (ED, TD, or a VD presence) whose sharer vector includes the core.
//  3. ED entries have at least one sharer and never LLC data.
//  4. TD entries have sharers or LLC data (or they would have been dropped).
//  5. Every sharer bit in an ED/TD entry corresponds to a cached L2 line;
//     every VD bank entry corresponds to a line in the owner's L2.
//  6. A line has an entry in at most one structure (ED xor TD xor VDs).
//  7. An Exclusive/Modified private copy is the only copy in the machine.
func (e *Engine) CheckInvariants() error {
	// 1 & 2 & 7: walk private caches.
	for c := 0; c < e.cfg.Cores; c++ {
		var err error
		e.l1[c].Range(func(l addr.Line, _ *struct{}) bool {
			if _, ok := e.l2[c].Probe(l); !ok {
				err = fmt.Errorf("core %d: L1 line %#x not in L2", c, uint64(l))
				return false
			}
			return true
		})
		if err != nil {
			return err
		}
		cc := c
		e.l2[cc].Range(func(l addr.Line, st *l2Line) bool {
			var m directory.Meta
			ok := false
			if sl := e.slices[e.mapper.Slice(l)]; sl != nil {
				m, _, ok = sl.Find(l)
			}
			switch {
			case !ok:
				err = fmt.Errorf("core %d: L2 line %#x has no directory entry", cc, uint64(l))
			case !m.Sharers.Has(cc):
				err = fmt.Errorf("core %d: L2 line %#x entry lacks sharer bit (sharers=%b)", cc, uint64(l), m.Sharers)
			case st.Excl && m.Sharers.Count() != 1:
				err = fmt.Errorf("core %d: exclusive line %#x has %d sharers", cc, uint64(l), m.Sharers.Count())
			}
			return err == nil
		})
		if err != nil {
			return err
		}
	}

	// 3-6: walk the directory slices. Unbuilt slices hold no entries.
	for si, sl := range e.slices {
		if sl == nil {
			continue
		}
		var tded *directory.TDED
		var sec *core.Slice
		switch s := sl.(type) {
		case *core.Slice:
			tded, sec = s.TDED(), s
		case interface{ TDED() *directory.TDED }:
			// The baseline and the ceaser directory, which wraps one.
			tded = s.TDED()
		case entryRanger:
			// Single-structure designs (way-partitioned, skewed, DLS,
			// tag-partitioned) expose a merged entry walk; the shared rules
			// apply — a data-less (ED-role) entry must have sharers, and
			// every sharer bit must correspond to a cached L2 line.
			var werr error
			s.ForEach(func(l addr.Line, m directory.Meta, w directory.Where) bool {
				if w == directory.WhereED && m.Sharers == 0 {
					werr = fmt.Errorf("slice %d (%T): data-less entry %#x has no sharers", si, sl, uint64(l))
					return false
				}
				if w == directory.WhereTD && m.Sharers == 0 && !m.HasData {
					werr = fmt.Errorf("slice %d (%T): entry %#x has neither sharers nor data", si, sl, uint64(l))
					return false
				}
				m.Sharers.ForEach(func(c int) {
					if werr == nil {
						if _, ok := e.l2[c].Probe(l); !ok {
							werr = fmt.Errorf("slice %d (%T): %v entry %#x lists non-caching sharer %d", si, sl, w, uint64(l), c)
						}
					}
				})
				return werr == nil
			})
			if werr != nil {
				return werr
			}
			continue
		default:
			return fmt.Errorf("slice %d: unknown directory type %T", si, sl)
		}

		var err error
		check := func(where directory.Where) func(l addr.Line, m *directory.Meta) bool {
			return func(l addr.Line, m *directory.Meta) bool {
				if where == directory.WhereED {
					if m.Sharers == 0 {
						err = fmt.Errorf("slice %d: ED entry %#x has no sharers", si, uint64(l))
						return false
					}
					if m.HasData {
						err = fmt.Errorf("slice %d: ED entry %#x claims LLC data", si, uint64(l))
						return false
					}
					if _, ok := tded.TD.Probe(l); ok {
						err = fmt.Errorf("slice %d: line %#x in both ED and TD", si, uint64(l))
						return false
					}
				} else if m.Sharers == 0 && !m.HasData {
					err = fmt.Errorf("slice %d: TD entry %#x has neither sharers nor data", si, uint64(l))
					return false
				}
				m.Sharers.ForEach(func(c int) {
					if err == nil {
						if _, ok := e.l2[c].Probe(l); !ok {
							err = fmt.Errorf("slice %d: %v entry %#x lists non-caching sharer %d", si, where, uint64(l), c)
						}
					}
				})
				return err == nil
			}
		}
		tded.ED.Range(check(directory.WhereED))
		if err != nil {
			return err
		}
		tded.TD.Range(check(directory.WhereTD))
		if err != nil {
			return err
		}
		if sec == nil {
			continue
		}
		// 5 & 6 from the VD side: a VD presence (stash included) must be
		// absent from the slice's ED and TD and present in its owner's L2.
		// Probing ED and TD per presence covers every (ED/TD entry, bank)
		// pair without a skew hash.
		for c := 0; c < e.cfg.Cores; c++ {
			for _, l := range sec.VDBank(c).Lines() {
				if _, ok := tded.ED.Probe(l); ok {
					return fmt.Errorf("slice %d: line %#x in both ED and VD bank %d", si, uint64(l), c)
				}
				if _, ok := tded.TD.Probe(l); ok {
					return fmt.Errorf("slice %d: line %#x in both TD and VD bank %d", si, uint64(l), c)
				}
				if _, ok := e.l2[c].Probe(l); !ok {
					return fmt.Errorf("slice %d: VD bank %d entry %#x not in owner's L2", si, c, uint64(l))
				}
			}
		}
	}
	return nil
}
