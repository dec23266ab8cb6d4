// Package cuckoo implements the cuckoo directory organization used by a
// SecDir Victim Directory bank (§5.2.1 and Appendix B of the paper).
//
// A bank is a set-associative table accessed with two skewing hash functions
// h1 and h2. An insertion that finds both candidate sets full evicts an entry
// and re-inserts it under its alternate hash function, repeating for up to
// NumRelocations steps before an entry is evicted from the table for good.
// Each entry carries a Cuckoo bit recording which function placed it, and each
// set has an Empty Bit (EB) that lets the simulator skip accesses to empty
// sets (§5.2.2).
package cuckoo

import (
	"math/bits"

	"secdir/internal/addr"
	"secdir/internal/hashfn"
	"secdir/internal/metrics"
	"secdir/internal/rng"
)

// entry is one slot of a bank. A VD entry holds only an address tag, a Valid
// bit and the Cuckoo bit (Table 3); sharer information is encoded by which
// core's bank the entry lives in.
type entry struct {
	line  addr.Line
	fn    uint8 // which hash function placed the entry (the Cuckoo bit)
	valid bool
}

// Table is a cuckoo-hashed set-associative table.
// It is not safe for concurrent use; the simulator is sequential.
type Table struct {
	sets        int
	ways        int
	skew        hashfn.Skew
	relocations int
	cuckoo      bool // false = plain directory using only h1 (NoCKVD mode)
	rng         rng.Rand
	arr         []entry
	count       int

	// occ[s] is the number of valid entries in set s. It materialises the
	// Empty Bit array of §5.2.2: real hardware NORs the set's Valid bits in
	// parallel, so the model must answer SetEmpty in O(1) too rather than
	// scanning the ways on the hottest filter in the VD search path.
	occ []uint16

	// dirty has bit s set when set s has held a valid entry since New or the
	// last Reset. Every entry enters the array through place, which marks
	// it; relocations and conflict evictions only overwrite full sets. Reset
	// clears just the marked sets.
	dirty []uint64

	// stash is a small fully-associative overflow buffer: entries that a
	// failed relocation chain would evict are parked here instead (a
	// classic cuckoo-with-stash design; §10.3 leaves "more sophisticated"
	// cuckoo organizations to future work). FIFO replacement.
	stash    []entry
	stashCap int

	// Conflicts counts insertions that ended by evicting a live entry —
	// the VD self-conflicts of Table 6.
	Conflicts uint64
	// Relocated counts individual relocation steps performed.
	Relocated uint64

	// DepthHist, when attached, observes the relocation-chain depth of every
	// insertion (0 for a first-try placement). Nil adds only a branch to the
	// insert path.
	DepthHist *metrics.Histogram
	// EBChurn, when attached, counts Empty-Bit transitions: a set going
	// empty→non-empty on insert or non-empty→empty on remove.
	EBChurn *metrics.Counter
}

// Config parameterises a Table.
type Config struct {
	Sets           int
	Ways           int
	NumRelocations int  // maximum relocation chain length (8 in Table 4)
	Cuckoo         bool // use two hash functions (CKVD) or one (NoCKVD)
	// StashSize adds a fully-associative overflow stash (0 disables).
	StashSize int
	Seed      int64
}

// New returns an empty Table.
func New(cfg Config) *Table {
	if cfg.Sets <= 0 || cfg.Sets&(cfg.Sets-1) != 0 {
		panic("cuckoo: set count must be a positive power of two")
	}
	if cfg.Ways <= 0 {
		panic("cuckoo: ways must be positive")
	}
	t := &Table{
		sets:        cfg.Sets,
		ways:        cfg.Ways,
		skew:        hashfn.NewSkew(cfg.Sets),
		relocations: cfg.NumRelocations,
		cuckoo:      cfg.Cuckoo,
		stashCap:    cfg.StashSize,
		rng:         rng.New(cfg.Seed),
		arr:         make([]entry, cfg.Sets*cfg.Ways),
		occ:         make([]uint16, cfg.Sets),
		dirty:       make([]uint64, (cfg.Sets+63)/64),
	}
	if t.stashCap > 0 {
		// The stash is bounded by stashCap; allocating it up front keeps the
		// insert path allocation-free.
		t.stash = make([]entry, 0, t.stashCap)
	}
	return t
}

// Reset restores the table to the state New would produce with the given
// seed, reusing the entry, occupancy and stash storage: every entry and
// Empty-Bit count zeroed, the conflict/relocation counters cleared, and the
// relocation generator reseeded. Only the sets marked dirty are cleared, so
// the cost follows the sets used since the last Reset, not the capacity. The
// skew hash functions are seedless and keep their construction-time tables;
// attached metric instruments (DepthHist, EBChurn) stay attached.
func (t *Table) Reset(seed int64) {
	for w, word := range t.dirty {
		for word != 0 {
			set := w<<6 | bits.TrailingZeros64(word)
			word &= word - 1
			clear(t.set(set))
			t.occ[set] = 0
		}
	}
	clear(t.dirty)
	t.stash = t.stash[:0]
	t.count = 0
	t.rng = rng.New(seed)
	t.Conflicts = 0
	t.Relocated = 0
}

// Sets returns the number of sets.
func (t *Table) Sets() int { return t.sets }

// Ways returns the associativity of each set.
func (t *Table) Ways() int { return t.ways }

// Len returns the number of valid entries.
func (t *Table) Len() int { return t.count }

// Capacity returns Sets()*Ways().
func (t *Table) Capacity() int { return t.sets * t.ways }

func (t *Table) set(i int) []entry { return t.arr[i*t.ways : (i+1)*t.ways] }

func (t *Table) setOf(fn int, l addr.Line) int { return t.skew.Hash(fn, uint64(l)) }

// place writes e into way w of set s, maintaining the occupancy counts and
// the EB-churn metric. The slot must be invalid.
func (t *Table) place(set, w int, e entry) {
	if t.occ[set] == 0 && t.EBChurn != nil {
		t.EBChurn.Inc()
	}
	t.occ[set]++
	t.dirty[set>>6] |= 1 << uint(set&63)
	t.set(set)[w] = e
	t.count++
}

// clear invalidates way w of set s, maintaining the occupancy counts and the
// EB-churn metric. The slot must be valid.
func (t *Table) clear(set, w int) {
	t.set(set)[w] = entry{}
	t.occ[set]--
	if t.occ[set] == 0 && t.EBChurn != nil {
		t.EBChurn.Inc()
	}
	t.count--
}

// SetPair returns the line's two candidate set indices (h1 and h2). Every
// bank with the same set count computes the same pair — the skewing functions
// are parameterised only by geometry — so a multi-bank search can hash once
// and probe each bank with ContainsAt/EmptyBitHitAt.
func (t *Table) SetPair(l addr.Line) (s0, s1 int) {
	return t.skew.Hash(0, uint64(l)), t.skew.Hash(1, uint64(l))
}

// Contains reports whether the line is present. In cuckoo mode both candidate
// sets are probed; a bank look-up can return at most one hit (§5.2.1).
func (t *Table) Contains(l addr.Line) bool {
	s0, s1 := t.SetPair(l)
	return t.ContainsAt(l, s0, s1)
}

// ContainsAt is Contains with the candidate sets precomputed via SetPair.
func (t *Table) ContainsAt(l addr.Line, s0, s1 int) bool {
	if t.occ[s0] != 0 && t.findWayIn(s0, 0, l) >= 0 {
		return true
	}
	if t.cuckoo && t.occ[s1] != 0 && t.findWayIn(s1, 1, l) >= 0 {
		return true
	}
	for i := range t.stash {
		if t.stash[i].line == l {
			return true
		}
	}
	return false
}

// findWay returns the way index of l in its fn-hashed set, or -1.
func (t *Table) findWay(fn int, l addr.Line) int {
	return t.findWayIn(t.setOf(fn, l), fn, l)
}

// findWayIn returns the way index of l in the given set under fn, or -1.
func (t *Table) findWayIn(set, fn int, l addr.Line) int {
	s := t.set(set)
	for i := range s {
		if s[i].valid && s[i].line == l && int(s[i].fn) == fn {
			return i
		}
	}
	return -1
}

// SetEmpty reports whether the given set has no valid entries — the Empty Bit
// of §5.2.2, wired as the NOR of the set's Valid bits (answered from the
// occupancy count, not a way scan, to match the O(1) hardware check).
func (t *Table) SetEmpty(set int) bool { return t.occ[set] == 0 }

// EmptyBitHit reports whether a look-up for the line would be filtered by the
// EB array: true when every candidate set of the line is empty, so the bank
// array access can be skipped entirely.
func (t *Table) EmptyBitHit(l addr.Line) bool {
	s0, s1 := t.SetPair(l)
	return t.EmptyBitHitAt(s0, s1)
}

// EmptyBitHitAt is EmptyBitHit with the candidate sets precomputed via
// SetPair.
func (t *Table) EmptyBitHitAt(s0, s1 int) bool {
	if t.occ[s0] != 0 {
		return false
	}
	return !t.cuckoo || t.occ[s1] == 0
}

// Remove deletes the line, reporting whether it was present.
func (t *Table) Remove(l addr.Line) bool {
	for fn := 0; fn < t.hashes(); fn++ {
		set := t.setOf(fn, l)
		if w := t.findWayIn(set, fn, l); w >= 0 {
			t.clear(set, w)
			return true
		}
	}
	for i := range t.stash {
		if t.stash[i].line == l {
			t.stash = append(t.stash[:i], t.stash[i+1:]...)
			t.count--
			return true
		}
	}
	return false
}

func (t *Table) hashes() int {
	if t.cuckoo {
		return 2
	}
	return 1
}

// Insert adds the line to the table. If the insertion (after up to
// NumRelocations cuckoo relocations) forces a live entry out of the table,
// that entry is returned with evicted = true; the caller must then apply the
// VD-conflict transition (⑤ of Table 2). Inserting a line already present is
// a no-op.
func (t *Table) Insert(l addr.Line) (victim addr.Line, evicted bool) {
	if t.Contains(l) {
		return 0, false
	}
	cur := entry{line: l, fn: 0, valid: true}
	// First placement: prefer an empty slot under either hash function.
	for fn := 0; fn < t.hashes(); fn++ {
		set := t.setOf(fn, l)
		s := t.set(set)
		for i := range s {
			if !s[i].valid {
				cur.fn = uint8(fn)
				t.place(set, i, cur)
				t.DepthHist.Observe(0)
				return 0, false
			}
		}
	}
	if !t.cuckoo {
		// Plain directory: evict a random way of the single candidate set.
		s := t.set(t.setOf(0, l))
		vi := t.rng.Intn(len(s))
		victim = s[vi].line
		s[vi] = cur
		t.Conflicts++
		t.DepthHist.Observe(0)
		return victim, true
	}
	// Both candidate sets full: displace an entry and relocate it under its
	// alternate hash function, bounded by NumRelocations. Only a failed
	// chain falls back to the stash, keeping the stash free for genuine
	// overflow.
	fn := t.rng.Intn(2)
	cur.fn = uint8(fn)
	for r := 0; r <= t.relocations; r++ {
		s := t.set(t.setOf(int(cur.fn), cur.line))
		// Place cur, displacing a random resident entry.
		vi := t.rng.Intn(len(s))
		disp := s[vi]
		s[vi] = cur
		// Rehash the displaced entry with its alternate function.
		disp.fn ^= 1
		dset := t.setOf(int(disp.fn), disp.line)
		ds := t.set(dset)
		placed := false
		for i := range ds {
			if !ds[i].valid {
				t.place(dset, i, disp)
				placed = true
				break
			}
		}
		if placed {
			t.Relocated += uint64(r)
			t.DepthHist.Observe(uint64(r) + 1)
			return 0, false
		}
		if r == t.relocations {
			// Give up. With a stash, the displaced entry is parked there
			// instead of being evicted; otherwise (or with a full stash)
			// an entry leaves the table for good. Note the final victim is
			// generally not from the set the new entry hashed to, which
			// obscures conflict patterns (Appendix B).
			t.Relocated += uint64(r)
			t.DepthHist.Observe(uint64(r) + 1)
			if t.stashCap > 0 && len(t.stash) < t.stashCap {
				t.stash = append(t.stash, disp)
				t.count++
				return 0, false
			}
			if t.stashCap > 0 {
				// FIFO: the oldest stash entry makes room for the new one.
				victim := t.stash[0].line
				t.stash = append(t.stash[:0], t.stash[1:]...)
				t.stash = append(t.stash, disp)
				t.Conflicts++
				return victim, true
			}
			t.Conflicts++
			return disp.line, true
		}
		cur = disp
	}
	panic("cuckoo: unreachable")
}

// Lines returns all valid lines, stash included, in arbitrary order. Used by
// tests and by the coherence engine's invariant audit.
func (t *Table) Lines() []addr.Line {
	out := make([]addr.Line, 0, t.count)
	for i := range t.arr {
		if t.arr[i].valid {
			out = append(out, t.arr[i].line)
		}
	}
	for i := range t.stash {
		out = append(out, t.stash[i].line)
	}
	return out
}

// StashLen returns the number of entries currently parked in the stash.
func (t *Table) StashLen() int { return len(t.stash) }
