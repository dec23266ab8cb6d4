package cachesim

import (
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"

	"secdir/internal/addr"
)

func newLRU(sets, ways int) *Cache[int] {
	return New[int](sets, ways, ModIndex(sets), LRU, 1)
}

func TestPutProbeRemove(t *testing.T) {
	c := newLRU(4, 2)
	if _, ok := c.Probe(10); ok {
		t.Fatal("empty cache claims a hit")
	}
	if _, ev := c.Put(10, 100); ev {
		t.Fatal("insert into empty set evicted")
	}
	p, ok := c.Probe(10)
	if !ok || *p != 100 {
		t.Fatalf("Probe(10) = %v,%v", p, ok)
	}
	*p = 200 // in-place payload mutation
	if p2, _ := c.Probe(10); *p2 != 200 {
		t.Fatal("payload mutation lost")
	}
	if d, ok := c.Remove(10); !ok || d != 200 {
		t.Fatalf("Remove = %v,%v", d, ok)
	}
	if c.Len() != 0 {
		t.Fatalf("Len = %d after remove", c.Len())
	}
	if _, ok := c.Remove(10); ok {
		t.Fatal("double remove succeeded")
	}
}

func TestPutReplacesInPlace(t *testing.T) {
	c := newLRU(4, 2)
	c.Put(10, 1)
	if _, ev := c.Put(10, 2); ev {
		t.Fatal("re-Put of resident line evicted")
	}
	if c.Len() != 1 {
		t.Fatalf("Len = %d", c.Len())
	}
	p, _ := c.Probe(10)
	if *p != 2 {
		t.Fatalf("payload = %d, want 2", *p)
	}
}

func TestLRUEvictionOrder(t *testing.T) {
	c := newLRU(1, 3) // single set
	c.Put(1, 0)
	c.Put(2, 0)
	c.Put(3, 0)
	// Touch 1 so 2 becomes LRU.
	if _, ok := c.Access(1); !ok {
		t.Fatal("access miss")
	}
	v, ev := c.Put(4, 0)
	if !ev || v.Line != 2 {
		t.Fatalf("victim = %v (evicted=%v), want line 2", v.Line, ev)
	}
	// Recency order is now (old→new): 3, 1 (touched by Access), 4. Probe
	// must NOT update recency, so after probing 3 it is still the LRU.
	c.Probe(3)
	v, ev = c.Put(5, 0)
	if !ev || v.Line != 3 {
		t.Fatalf("victim = %v, want line 3 (Probe must not bump recency)", v.Line)
	}
}

func TestRandomPolicyEvictsWithinSet(t *testing.T) {
	c := New[int](2, 2, ModIndex(2), Random, 42)
	// Fill set 0 (even lines).
	c.Put(0, 0)
	c.Put(2, 0)
	v, ev := c.Put(4, 0)
	if !ev {
		t.Fatal("full set did not evict")
	}
	if v.Line != 0 && v.Line != 2 {
		t.Fatalf("random victim %d not from the conflicting set", v.Line)
	}
}

func TestLinesInSetAndRange(t *testing.T) {
	c := newLRU(2, 2)
	c.Put(0, 0)
	c.Put(2, 0)
	c.Put(1, 0)
	got := c.LinesInSet(0)
	if len(got) != 2 {
		t.Fatalf("LinesInSet(0) = %v", got)
	}
	n := 0
	c.Range(func(l addr.Line, d *int) bool { n++; return true })
	if n != 3 {
		t.Fatalf("Range visited %d lines, want 3", n)
	}
	// Early termination.
	n = 0
	c.Range(func(l addr.Line, d *int) bool { n++; return false })
	if n != 1 {
		t.Fatalf("Range did not stop early (visited %d)", n)
	}
}

func TestPanics(t *testing.T) {
	for _, f := range []func(){
		func() { New[int](0, 4, ModIndex(4), LRU, 1) },
		func() { New[int](4, 0, ModIndex(4), LRU, 1) },
		func() { ModIndex(3) },
		func() { ModIndex(0) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Error("expected panic")
				}
			}()
			f()
		}()
	}
}

// TestCapacityProperty drives random operations and checks structural
// invariants with testing/quick: occupancy never exceeds capacity, per-set
// occupancy never exceeds associativity, and Len matches the resident count.
func TestCapacityProperty(t *testing.T) {
	f := func(seed int64, ops []uint16) bool {
		c := New[int](8, 4, ModIndex(8), LRU, seed)
		for _, op := range ops {
			l := addr.Line(op % 256)
			switch op % 3 {
			case 0:
				c.Put(l, int(op))
			case 1:
				c.Access(l)
			case 2:
				c.Remove(l)
			}
		}
		if c.Len() > 8*4 {
			return false
		}
		count := 0
		c.Range(func(addr.Line, *int) bool { count++; return true })
		if count != c.Len() {
			return false
		}
		for set := 0; set < 8; set++ {
			if len(c.LinesInSet(set)) > 4 {
				return false
			}
			for _, l := range c.LinesInSet(set) {
				if c.SetOf(l) != set {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

// TestNoDuplicateTags: a line is never resident twice.
func TestNoDuplicateTags(t *testing.T) {
	c := New[int](4, 4, ModIndex(4), Random, 9)
	rng := rand.New(rand.NewSource(4))
	for i := 0; i < 10000; i++ {
		c.Put(addr.Line(rng.Intn(64)), i)
	}
	seen := map[addr.Line]bool{}
	dup := false
	c.Range(func(l addr.Line, _ *int) bool {
		if seen[l] {
			dup = true
			return false
		}
		seen[l] = true
		return true
	})
	if dup {
		t.Fatal("duplicate resident tag")
	}
}

// resetOps are the ways a line can enter or leave a cache, each used alone
// to warm a cache before a Reset so a fill site that fails to mark its set
// dirty leaves state behind that the oracle sees.
var resetOps = []struct {
	name string
	op   func(c *Cache[int], l addr.Line, i int)
}{
	{"Put", func(c *Cache[int], l addr.Line, i int) { c.Put(l, i) }},
	{"PutAt", func(c *Cache[int], l addr.Line, i int) {
		if _, slot, cur := c.AccessCursor(l); slot < 0 {
			c.PutAt(cur, l, i)
		}
	}},
	{"RemoveSlot", func(c *Cache[int], l addr.Line, i int) {
		if _, slot := c.ProbeSlot(l); slot >= 0 && i%2 == 0 {
			c.RemoveSlot(slot)
			return
		}
		c.Put(l, i)
	}},
}

// TestResetMatchesFresh: a Reset cache equals a freshly constructed one —
// every internal array, the generator and the counters — and then replays a
// workload exactly like it, for every replacement policy after Put,
// cursor (PutAt) fills and RemoveSlot. The warm-up touches a few sets of a
// cache wider than one bitmap word, so the O(sets dirtied) Reset must find
// exactly the sets it used.
func TestResetMatchesFresh(t *testing.T) {
	const sets, ways = 128, 4
	for _, policy := range []Policy{LRU, Random, SRRIP, PLRU} {
		for _, ro := range resetOps {
			fresh := New[int](sets, ways, ModIndex(sets), policy, 321)
			dirty := New[int](sets, ways, ModIndex(sets), policy, 77)
			warm := rand.New(rand.NewSource(5))
			used := []int{3, 64, 65, 127}
			for i := 0; i < 5000; i++ {
				set := used[warm.Intn(len(used))]
				l := addr.Line(set + sets*warm.Intn(3*ways))
				if warm.Intn(4) == 0 {
					dirty.Access(l)
					continue
				}
				ro.op(dirty, l, i)
			}
			dirty.Reset(321)
			if !reflect.DeepEqual(dirty, fresh) {
				t.Fatalf("%v/%s: reset cache differs from New:\nreset %+v\nfresh %+v", policy, ro.name, *dirty, *fresh)
			}
			rng := rand.New(rand.NewSource(6))
			for i := 0; i < 20000; i++ {
				l := addr.Line(rng.Intn(4 * sets * ways))
				if rng.Intn(3) == 0 {
					_, aok := fresh.Access(l)
					_, bok := dirty.Access(l)
					if aok != bok {
						t.Fatalf("%v/%s op %d: access hit diverged", policy, ro.name, i)
					}
					continue
				}
				av, ae := fresh.Put(l, i)
				bv, be := dirty.Put(l, i)
				if ae != be || av != bv {
					t.Fatalf("%v/%s op %d: victim diverged: fresh (%v,%v) reset (%v,%v)",
						policy, ro.name, i, av, ae, bv, be)
				}
			}
		}
	}
}
