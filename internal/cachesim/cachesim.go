// Package cachesim provides a generic set-associative tag cache used to model
// the private L1 and L2 caches of the simulated machine. The cache stores a
// caller-defined payload per line (e.g. a MOESI state); data values are never
// modeled — the simulator is behavioural.
package cachesim

import (
	"math/bits"

	"secdir/internal/addr"
	"secdir/internal/rng"
)

// Policy selects the replacement policy of a Cache.
type Policy int

const (
	// LRU evicts the least recently used way.
	LRU Policy = iota
	// Random evicts a uniformly random way (the paper uses random
	// replacement in ED and VD, §7).
	Random
	// SRRIP is static re-reference interval prediction (Jaleel et al.,
	// 2-bit RRPV): hits predict near re-reference, fills predict long,
	// victims are distant lines. Scan-resistant, close to what commercial
	// LLCs implement.
	SRRIP
	// PLRU is the classic tree pseudo-LRU (requires power-of-two ways).
	PLRU
)

// String implements fmt.Stringer.
func (p Policy) String() string {
	switch p {
	case LRU:
		return "lru"
	case Random:
		return "random"
	case SRRIP:
		return "srrip"
	case PLRU:
		return "plru"
	default:
		return "unknown-policy"
	}
}

// srripMax is the distant re-reference value for the 2-bit RRPV.
const srripMax = 3

// IndexFunc maps a line address to a set index.
type IndexFunc func(addr.Line) int

// Index maps a line address to a set index. The common shift-and-mask
// indexings are stored as data (shift amount + mask) so every probe is two
// ALU ops instead of a closure call; arbitrary indexings fall back to a
// function. Construct with ModIndex, ShiftIndex or FuncIndex.
type Index struct {
	direct bool
	shift  uint8
	mask   addr.Line
	fn     IndexFunc
}

// ModIndex returns an Index that uses the low line-address bits,
// the conventional indexing of private caches.
func ModIndex(sets int) Index {
	return ShiftIndex(0, sets)
}

// ShiftIndex returns an Index selecting sets from the line-address bits
// starting at bit shift: set = (line >> shift) & (sets-1).
func ShiftIndex(shift uint, sets int) Index {
	if sets <= 0 || sets&(sets-1) != 0 {
		panic("cachesim: set count must be a positive power of two")
	}
	if shift > 63 {
		panic("cachesim: shift out of range")
	}
	return Index{direct: true, shift: uint8(shift), mask: addr.Line(sets - 1)}
}

// FuncIndex wraps an arbitrary indexing function (keyed/randomized
// indexings). It keeps the per-probe closure call that the direct forms
// avoid, so use it only where the indexing really is data-dependent.
func FuncIndex(fn IndexFunc) Index {
	if fn == nil {
		panic("cachesim: nil index function")
	}
	return Index{fn: fn}
}

// Of returns the set index for a line.
func (ix Index) Of(l addr.Line) int {
	if ix.direct {
		return int((l >> ix.shift) & ix.mask)
	}
	return ix.fn(l)
}

// invalidTag marks an empty way in the tags array. Line addresses carry at
// most addr.LineBits (34) significant bits, so the all-ones value can never
// collide with a real line.
const invalidTag = ^addr.Line(0)

// Cache is a set-associative tag cache with payload type P.
// It is not safe for concurrent use; the simulator is sequential.
//
// Storage is structure-of-arrays: tags, replacement ticks, payloads and SRRIP
// state each live in their own dense array. The tag-match scan — the hottest
// loop in the simulator — walks only the 8-byte tag words; the LRU victim
// search additionally walks the dense tick array; the payload array is
// touched for at most one way per operation. With interleaved per-way structs
// a 16-way LRU fill read up to six host cache lines of metadata; the split
// layout reads two lines of tags plus two of ticks. Only LRU reads ticks, so
// the other policies carry no tick array at all.
//
// A one-bit-per-set dirty bitmap records every set that has held a valid
// line since the last Reset, so Reset clears only those sets instead of the
// whole geometry.
type Cache[P any] struct {
	sets       int
	ways       int
	index      Index
	policy     Policy
	plruLevels int
	rng        rng.Rand // used by Random only; a bare uint64, never heap-allocated
	tags       []addr.Line
	ticks      []uint64 // LRU recency stamps (allocated for LRU only)
	data       []P
	rrpv       []uint8  // SRRIP re-reference values (allocated for SRRIP only)
	plru       []uint64 // per-set PLRU tree bits
	dirty      []uint64 // bit s set: set s has held a valid line since New/Reset
	clock      uint64
	count      int
	gen        uint32 // bumped on every Put/PutAt/Remove; invalidates Cursors
}

// New returns a Cache with the given geometry. The index maps lines to sets;
// use ModIndex for conventional caches. The seed feeds the Random policy's
// generator; deterministic policies (LRU/PLRU/SRRIP) carry no random state
// beyond the embedded seed word — nothing is allocated for it either way.
func New[P any](sets, ways int, index Index, policy Policy, seed int64) *Cache[P] {
	if sets <= 0 || ways <= 0 {
		panic("cachesim: sets and ways must be positive")
	}
	if policy == PLRU && (ways&(ways-1) != 0 || ways > 64) {
		panic("cachesim: PLRU requires a power-of-two associativity up to 64")
	}
	c := &Cache[P]{
		sets:   sets,
		ways:   ways,
		index:  index,
		policy: policy,
		tags:   make([]addr.Line, sets*ways),
		data:   make([]P, sets*ways),
		dirty:  make([]uint64, (sets+63)/64),
	}
	for i := range c.tags {
		c.tags[i] = invalidTag
	}
	if policy == LRU {
		c.ticks = make([]uint64, sets*ways)
	}
	if policy == Random {
		c.rng = rng.New(seed)
	}
	if policy == SRRIP {
		c.rrpv = make([]uint8, sets*ways)
	}
	if policy == PLRU {
		c.plru = make([]uint64, sets)
		for 1<<c.plruLevels < ways {
			c.plruLevels++
		}
	}
	return c
}

// Sets returns the number of sets.
func (c *Cache[P]) Sets() int { return c.sets }

// Ways returns the associativity.
func (c *Cache[P]) Ways() int { return c.ways }

// Len returns the number of valid lines currently cached.
func (c *Cache[P]) Len() int { return c.count }

// SetOf returns the set index a line maps to.
func (c *Cache[P]) SetOf(l addr.Line) int { return c.index.Of(l) }

// findIdx returns the flat way index of l, or -1 when absent.
func (c *Cache[P]) findIdx(l addr.Line) int {
	base := c.index.Of(l) * c.ways
	t := c.tags[base : base+c.ways]
	for i := range t {
		if t[i] == l {
			return base + i
		}
	}
	return -1
}

// Probe reports whether the line is cached, without updating replacement
// state. The returned pointer stays valid until the next Put or Remove and
// may be used to mutate the payload in place.
func (c *Cache[P]) Probe(l addr.Line) (*P, bool) {
	if i := c.findIdx(l); i >= 0 {
		return &c.data[i], true
	}
	return nil, false
}

// Access looks up the line and, on a hit, promotes it per the replacement
// policy (most-recently-used for LRU/PLRU, near re-reference for SRRIP).
func (c *Cache[P]) Access(l addr.Line) (*P, bool) {
	set := c.index.Of(l)
	base := set * c.ways
	t := c.tags[base : base+c.ways]
	for i := range t {
		if t[i] == l {
			switch c.policy {
			case LRU:
				c.clock++
				c.ticks[base+i] = c.clock
			case SRRIP:
				c.rrpv[base+i] = 0
			case PLRU:
				c.plruTouch(set, i)
			}
			return &c.data[base+i], true
		}
	}
	return nil, false
}

// Cursor memoizes an AccessCursor miss — which set was scanned and that the
// line was absent from it — so a following PutAt can install the line
// without repeating the tag-match scan. The victim choice itself is NOT
// precomputed: many misses are served elsewhere (the directory's VD path)
// and never fill, so the inv/victim scan is deferred to PutAt and only paid
// when a fill actually happens. A cursor is pinned to the cache state at
// scan time: any Put, PutAt, RemoveSlot or Remove on the cache afterwards
// invalidates it (tracked by the generation counter), and PutAt then falls
// back to a full Put — so consuming a stale cursor is always correct, just
// not faster.
type Cursor struct {
	base int    // set * ways
	set  int32  // set index
	gen  uint32 // cache generation at scan time
	ok   bool   // set by AccessCursor; the zero Cursor is invalid and safe to pass
}

// Gen returns the cache's mutation generation. It advances on every Put,
// PutAt and Remove, so two equal readings bracket a window in which the
// cache's contents did not change — the engine uses this to skip
// did-my-fill-survive re-probes.
func (c *Cache[P]) Gen() uint32 { return c.gen }

// AccessCursor is Access plus fill/removal slot information: on a hit the
// second result is the entry's flat slot (usable with RemoveSlot before any
// other mutation); on a miss it is -1 and the Cursor records the scanned set
// so a subsequent PutAt can fill it without a second tag-match pass. On a
// hit the cursor is the zero Cursor, which PutAt treats as absent.
func (c *Cache[P]) AccessCursor(l addr.Line) (*P, int, Cursor) {
	set := c.index.Of(l)
	base := set * c.ways
	t := c.tags[base : base+c.ways]
	for i := range t {
		if t[i] == l {
			switch c.policy {
			case LRU:
				c.clock++
				c.ticks[base+i] = c.clock
			case SRRIP:
				c.rrpv[base+i] = 0
			case PLRU:
				c.plruTouch(set, i)
			}
			return &c.data[base+i], base + i, Cursor{}
		}
	}
	return nil, -1, Cursor{base: base, set: int32(set), gen: c.gen, ok: true}
}

// PutAt installs a line into the set a prior AccessCursor miss scanned,
// skipping the tag-match pass (the cursor proves the line is absent). The
// caller must pass a line that maps to the cursor's set and is known absent
// from it — the scanned line itself, or, for the directory's ED→TD
// migrations, a victim from a same-indexed set. A stale or zero cursor (the
// cache mutated since the scan) degrades to a full Put; the result is
// identical either way.
func (c *Cache[P]) PutAt(cur Cursor, l addr.Line, data P) (Victim[P], bool) {
	if !cur.ok || cur.gen != c.gen {
		return c.Put(l, data)
	}
	c.gen++
	c.clock++
	set := int(cur.set)
	base := cur.base
	t := c.tags[base : base+c.ways]
	if c.policy == LRU {
		// Fused invalid-slot and LRU-victim search, as in Put's fast path
		// but with the per-way tag-match comparison dropped.
		tk := c.ticks[base : base+c.ways]
		inv, vi := -1, 0
		minTick := ^uint64(0)
		for i := range t {
			if t[i] == invalidTag {
				if inv < 0 {
					inv = i
				}
			} else if tk[i] < minTick {
				minTick = tk[i]
				vi = i
			}
		}
		if inv >= 0 {
			c.fillWay(set, base+inv, l, data)
			c.count++
			c.markDirty(set)
			return Victim[P]{}, false
		}
		v := Victim[P]{Line: t[vi], Data: c.data[base+vi]}
		c.fillWay(set, base+vi, l, data)
		return v, true
	}
	inv := -1
	for i := range t {
		if t[i] == invalidTag {
			inv = i
			break
		}
	}
	if inv >= 0 {
		c.fillWay(set, base+inv, l, data)
		c.count++
		c.markDirty(set)
		return Victim[P]{}, false
	}
	var vi int
	switch c.policy {
	case Random:
		vi = c.rng.Intn(c.ways)
	case SRRIP:
		vi = c.srripVictim(base)
	case PLRU:
		vi = c.plruVictim(set)
	}
	v := Victim[P]{Line: t[vi], Data: c.data[base+vi]}
	c.fillWay(set, base+vi, l, data)
	return v, true
}

// plruTouch flips the tree bits on the path to w so they point away from it.
func (c *Cache[P]) plruTouch(set, w int) {
	node := 1
	for level := c.plruLevels - 1; level >= 0; level-- {
		right := w>>uint(level)&1 == 1
		if right {
			c.plru[set] &^= 1 << uint(node) // 0 = points left (away from right child)
			node = node*2 + 1
		} else {
			c.plru[set] |= 1 << uint(node) // 1 = points right
			node = node * 2
		}
	}
}

// plruVictim follows the tree bits to the pseudo-LRU way.
func (c *Cache[P]) plruVictim(set int) int {
	node := 1
	w := 0
	for level := 0; level < c.plruLevels; level++ {
		right := c.plru[set]&(1<<uint(node)) != 0
		w <<= 1
		if right {
			w |= 1
			node = node*2 + 1
		} else {
			node = node * 2
		}
	}
	return w
}

// Victim is a line evicted by Put.
type Victim[P any] struct {
	Line addr.Line
	Data P
}

// Put inserts the line with the given payload, evicting a victim from the
// set if it is full. If the line is already present its payload is replaced
// in place and no eviction occurs. The second result reports whether a
// victim was evicted.
func (c *Cache[P]) Put(l addr.Line, data P) (Victim[P], bool) {
	c.gen++
	c.clock++
	set := c.index.Of(l)
	base := set * c.ways
	t := c.tags[base : base+c.ways]
	if c.policy == LRU {
		// Fused scan: hit / first-invalid / least-recent victim in one pass.
		// Fills hit full sets in steady state, so the victim search is the
		// common case and folding it into the tag scan saves a second pass.
		tk := c.ticks[base : base+c.ways]
		inv, vi := -1, 0
		minTick := ^uint64(0)
		for i := range t {
			switch t[i] {
			case l:
				c.data[base+i] = data
				tk[i] = c.clock
				return Victim[P]{}, false
			case invalidTag:
				if inv < 0 {
					inv = i
				}
			default:
				if tk[i] < minTick {
					minTick = tk[i]
					vi = i
				}
			}
		}
		if inv >= 0 {
			t[inv] = l
			tk[inv] = c.clock
			c.data[base+inv] = data
			c.count++
			c.markDirty(set)
			return Victim[P]{}, false
		}
		v := Victim[P]{Line: t[vi], Data: c.data[base+vi]}
		t[vi] = l
		tk[vi] = c.clock
		c.data[base+vi] = data
		return v, true
	}
	inv := -1
	for i := range t {
		if t[i] == l {
			c.data[base+i] = data
			return Victim[P]{}, false
		}
		if t[i] == invalidTag && inv < 0 {
			inv = i
		}
	}
	if inv >= 0 {
		c.fillWay(set, base+inv, l, data)
		c.count++
		c.markDirty(set)
		return Victim[P]{}, false
	}
	vi := 0
	switch c.policy {
	case Random:
		vi = c.rng.Intn(c.ways)
	case SRRIP:
		vi = c.srripVictim(base)
	case PLRU:
		vi = c.plruVictim(set)
	}
	v := Victim[P]{Line: t[vi], Data: c.data[base+vi]}
	c.fillWay(set, base+vi, l, data)
	return v, true
}

// markDirty records that the set now holds a valid line, for Reset. Every
// invalid→valid transition of a way goes through a c.count++ site, and each
// of those calls markDirty; hits, victim replacements and removals only touch
// sets that already held a valid line.
func (c *Cache[P]) markDirty(set int) {
	c.dirty[set>>6] |= 1 << uint(set&63)
}

// fillWay installs a line in way i (a flat index) of the given set.
func (c *Cache[P]) fillWay(set, i int, l addr.Line, data P) {
	c.tags[i] = l
	c.data[i] = data
	switch c.policy {
	case LRU:
		c.ticks[i] = c.clock
	case SRRIP:
		c.rrpv[i] = srripMax - 1
	case PLRU:
		c.plruTouch(set, i-set*c.ways)
	}
}

// srripVictim finds (aging as needed) a way predicted for distant reuse.
// A fresh SRRIP fill is predicted for a long interval (srripMax-1) so scans
// age out before resident lines.
func (c *Cache[P]) srripVictim(base int) int {
	m := c.rrpv[base : base+c.ways]
	for {
		for i := range m {
			if m[i] >= srripMax {
				return i
			}
		}
		for i := range m {
			m[i]++
		}
	}
}

// Reset restores the cache to the state New would produce with the given
// seed, reusing every backing array: all ways invalid, replacement state and
// the mutation clock zeroed, and the Random policy's generator reseeded.
// Deterministic policies ignore the seed, exactly as New does. Only the sets
// marked in the dirty bitmap are cleared — every other set is still in its
// New state — so the cost is proportional to the sets used since the last
// Reset, not to the cache's capacity. Any Cursor taken before the Reset must
// be discarded.
func (c *Cache[P]) Reset(seed int64) {
	for w, word := range c.dirty {
		for word != 0 {
			c.clearSet(w<<6 | bits.TrailingZeros64(word))
			word &= word - 1
		}
	}
	clear(c.dirty)
	if c.policy == Random {
		c.rng = rng.New(seed)
	}
	c.clock = 0
	c.count = 0
	c.gen = 0
}

// clearSet returns every way of the set, and its replacement state, to the
// values New gives them.
func (c *Cache[P]) clearSet(set int) {
	lo, hi := set*c.ways, (set+1)*c.ways
	for i := lo; i < hi; i++ {
		c.tags[i] = invalidTag
	}
	clear(c.data[lo:hi])
	if c.ticks != nil {
		clear(c.ticks[lo:hi])
	}
	if c.rrpv != nil {
		clear(c.rrpv[lo:hi])
	}
	if c.plru != nil {
		c.plru[set] = 0
	}
}

// Remove invalidates the line, returning its payload if it was present.
func (c *Cache[P]) Remove(l addr.Line) (P, bool) {
	var zero P
	if i := c.findIdx(l); i >= 0 {
		return c.RemoveSlot(i), true
	}
	return zero, false
}

// ProbeSlot is Probe plus the entry's flat slot index, or -1 on a miss. The
// slot stays meaningful until the next mutation, so a caller that probes and
// then removes the same entry can pass it to RemoveSlot and skip the second
// tag scan.
func (c *Cache[P]) ProbeSlot(l addr.Line) (*P, int) {
	if i := c.findIdx(l); i >= 0 {
		return &c.data[i], i
	}
	return nil, -1
}

// RemoveSlot invalidates the valid slot i — as returned by ProbeSlot or a
// hitting AccessCursor, with no mutation in between — and returns its
// payload.
func (c *Cache[P]) RemoveSlot(i int) P {
	d := c.data[i]
	var zp P
	c.gen++
	c.tags[i] = invalidTag
	c.data[i] = zp
	if c.ticks != nil {
		c.ticks[i] = 0
	}
	if c.rrpv != nil {
		c.rrpv[i] = 0
	}
	c.count--
	return d
}

// LinesInSet returns the valid lines currently in the given set,
// in way order. It is used by tests and the attack toolkit.
func (c *Cache[P]) LinesInSet(set int) []addr.Line {
	base := set * c.ways
	var out []addr.Line
	for _, tag := range c.tags[base : base+c.ways] {
		if tag != invalidTag {
			out = append(out, tag)
		}
	}
	return out
}

// Range calls fn for every valid line until fn returns false.
func (c *Cache[P]) Range(fn func(l addr.Line, data *P) bool) {
	for i := range c.tags {
		if c.tags[i] != invalidTag {
			if !fn(c.tags[i], &c.data[i]) {
				return
			}
		}
	}
}
