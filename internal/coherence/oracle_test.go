package coherence

import (
	"math/rand"
	"testing"
	"testing/quick"

	"secdir/internal/addr"
	"secdir/internal/config"
)

// oracle is an abstract reference model of the coherence protocol's
// *observable* guarantees. It does not model capacity or conflicts (those
// are the engine's business); it tracks only what must be true regardless of
// structure sizes:
//
//   - after a write by core c, no other core may hit the line;
//   - a core that has not touched a line since it was last invalidated
//     cannot hit it;
//   - a hit is only possible if the core accessed the line before.
type oracle struct {
	// mayHold[line] is the set of cores that could legally hold the line.
	mayHold map[addr.Line]uint64
}

func newOracle() *oracle { return &oracle{mayHold: map[addr.Line]uint64{}} }

func (o *oracle) access(core int, line addr.Line, write bool) {
	if write {
		o.mayHold[line] = 1 << uint(core)
		return
	}
	o.mayHold[line] |= 1 << uint(core)
}

// mayHit reports whether a hit by core on line is legal.
func (o *oracle) mayHit(core int, line addr.Line) bool {
	return o.mayHold[line]&(1<<uint(core)) != 0
}

// TestEngineAgainstOracle drives random operations through the engine and
// the oracle in lockstep: every engine *hit* must be legal per the oracle
// (the engine may miss more often than the oracle allows, because of
// capacity and conflict evictions the oracle does not model — but it must
// never hit a line the protocol says the core cannot have).
func TestEngineAgainstOracle(t *testing.T) {
	for _, d := range allDesigns() {
		cfg := d.cfg
		e := newEngine(t, cfg)
		o := newOracle()
		rng := rand.New(rand.NewSource(99))
		for i := 0; i < 120000; i++ {
			c := rng.Intn(cfg.Cores)
			l := addr.Line(rng.Intn(1 << 13))
			w := rng.Intn(5) == 0
			res := e.Access(c, l, w)
			hit := res.Level == LevelL1 || res.Level == LevelL2
			if hit && !o.mayHit(c, l) {
				t.Fatalf("%s step %d: core %d hit line %#x it cannot legally hold",
					d.name, i, c, uint64(l))
			}
			o.access(c, l, w)
		}
		if err := e.CheckInvariants(); err != nil {
			t.Fatalf("%s: invariants violated after workload: %v", d.name, err)
		}
	}
}

// TestEngineQuickSequences uses testing/quick to generate short operation
// sequences and validates both the oracle property and the full structural
// invariants after every operation of each sequence.
func TestEngineQuickSequences(t *testing.T) {
	cfg := smallConfig(config.SecDir)
	f := func(ops []uint32) bool {
		e, err := NewEngine(cfg)
		if err != nil {
			return false
		}
		o := newOracle()
		for i, op := range ops {
			c := int(op % 4)
			l := addr.Line((op >> 2) % 4096)
			w := op%7 == 0
			res := e.Access(c, l, w)
			hit := res.Level == LevelL1 || res.Level == LevelL2
			if hit && !o.mayHit(c, l) {
				return false
			}
			o.access(c, l, w)
			if err := e.CheckInvariants(); err != nil {
				t.Errorf("op %d of %d: %v", i, len(ops), err)
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

// TestDifferentialMemoryImage is a differential oracle across directory
// designs: one seeded workload is replayed bit-identically through every
// design of allDesigns.
//
// Data is modeled by a shadow version counter per line (bumped on every
// write). For each design the test tracks the version each core last
// fetched or wrote; the coherence protocol guarantees that a private-cache
// hit always observes the line's current version (any intervening remote
// write must have invalidated the copy). At the end, structural invariants
// must hold and a read sweep from core 0 must build the same memory image —
// line -> observed version — in every design: capacity and conflict
// behaviour may differ, observable data may not.
func TestDifferentialMemoryImage(t *testing.T) {
	type op struct {
		core  int
		line  addr.Line
		write bool
	}
	const numOps = 60000
	rng := rand.New(rand.NewSource(2026))
	stream := make([]op, numOps)
	touched := map[addr.Line]bool{}
	for i := range stream {
		stream[i] = op{core: rng.Intn(4), line: addr.Line(rng.Intn(1 << 12)), write: rng.Intn(4) == 0}
		touched[stream[i].line] = true
	}
	var sweep []addr.Line
	for l := range touched {
		sweep = append(sweep, l)
	}

	designs := allDesigns()

	images := make([]map[addr.Line]uint64, len(designs))
	for di, d := range designs {
		e := newEngine(t, d.cfg)
		version := map[addr.Line]uint64{} // current data version per line
		held := make([]map[addr.Line]uint64, d.cfg.Cores)
		for c := range held {
			held[c] = map[addr.Line]uint64{}
		}
		access := func(i int, o op) {
			res := e.Access(o.core, o.line, o.write)
			if res.Level == LevelL1 || res.Level == LevelL2 {
				if held[o.core][o.line] != version[o.line] {
					t.Fatalf("%s step %d: core %d hit line %#x at version %d, current is %d (stale data)",
						d.name, i, o.core, uint64(o.line), held[o.core][o.line], version[o.line])
				}
			} else if !res.NoFill {
				// Miss with fill: the fetch returns the current version,
				// forwarded from the owner or from memory.
				held[o.core][o.line] = version[o.line]
			}
			if o.write {
				version[o.line]++
				held[o.core][o.line] = version[o.line]
			}
		}
		for i, o := range stream {
			access(i, o)
		}
		if err := e.CheckInvariants(); err != nil {
			t.Fatalf("%s: invariants violated after workload: %v", d.name, err)
		}
		// Final read sweep from core 0 builds the observable memory image.
		img := make(map[addr.Line]uint64, len(sweep))
		for i, l := range sweep {
			access(numOps+i, op{core: 0, line: l})
			img[l] = held[0][l]
		}
		if err := e.CheckInvariants(); err != nil {
			t.Fatalf("%s: invariants violated after sweep: %v", d.name, err)
		}
		images[di] = img
	}

	base := images[0]
	for di := 1; di < len(designs); di++ {
		for l, v := range base {
			if got := images[di][l]; got != v {
				t.Errorf("memory image diverges at line %#x: %s observed version %d, %s observed %d",
					uint64(l), designs[0].name, v, designs[di].name, got)
			}
		}
	}
}

// TestWriteSerialization: after any interleaving, a written line has exactly
// one holder with the exclusive+dirty state.
func TestWriteSerialization(t *testing.T) {
	cfg := smallConfig(config.SecDir)
	e := newEngine(t, cfg)
	rng := rand.New(rand.NewSource(5))
	l := addr.Line(0x222)
	last := -1
	for i := 0; i < 2000; i++ {
		c := rng.Intn(cfg.Cores)
		if rng.Intn(3) == 0 {
			e.Access(c, l, true)
			last = c
		} else {
			e.Access(c, l, false)
		}
		// Whoever wrote last is the only core allowed to hold it dirty.
		for cc := 0; cc < cfg.Cores; cc++ {
			st, ok := e.l2[cc].Probe(l)
			if ok && st.Dirty && cc != last {
				t.Fatalf("step %d: core %d holds dirty data but core %d wrote last", i, cc, last)
			}
		}
	}
}
