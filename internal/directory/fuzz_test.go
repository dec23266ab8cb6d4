package directory

import (
	"fmt"
	"math/rand"
	"testing"

	"secdir/internal/addr"
	"secdir/internal/cachesim"
)

// sliceOracle mirrors a directory slice's externally visible contract:
// which cores hold each line, derived only from the operations issued and
// the actions returned. After every operation, Find's sharer vector must
// match the oracle exactly, for every line ever touched.
type sliceOracle struct {
	holders map[addr.Line]Bitset
}

func newSliceOracle() *sliceOracle { return &sliceOracle{holders: map[addr.Line]Bitset{}} }

func (o *sliceOracle) applyActions(acts []Action) {
	for _, a := range acts {
		if a.Kind == InvalidateL2 {
			o.holders[a.Line] = o.holders[a.Line].Clear(a.Core)
		}
	}
}

// checkLine verifies the slice's Find against the oracle for one line.
func checkLine(s Slice, o *sliceOracle, l addr.Line) error {
	want := o.holders[l]
	m, w, ok := s.Find(l)
	if want != 0 {
		if !ok {
			return fmt.Errorf("line %#x: oracle holders %b but no directory entry", uint64(l), want)
		}
		if m.Sharers != want {
			return fmt.Errorf("line %#x in %v: sharers %b, oracle %b", uint64(l), w, m.Sharers, want)
		}
		return nil
	}
	if ok && m.Sharers != 0 {
		return fmt.Errorf("line %#x in %v: stale sharers %b, oracle empty", uint64(l), w, m.Sharers)
	}
	return nil
}

// fuzzSlice drives random operations against the slice and the oracle in
// lockstep.
func fuzzSlice(t *testing.T, name string, s Slice, seed int64, ops int) {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	o := newSliceOracle()
	const cores = 4
	lineSpace := int64(512)

	for i := 0; i < ops; i++ {
		c := rng.Intn(cores)
		l := addr.Line(rng.Int63n(lineSpace))
		h := o.holders[l]
		switch {
		case !h.Has(c):
			write := rng.Intn(4) == 0
			res := s.Miss(c, l, write)
			o.applyActions(res.Actions)
			if !res.NoFill {
				o.holders[l] = o.holders[l].Set(c)
			}
			if write && !res.NoFill && o.holders[l] != Bitset(0).Set(c) {
				t.Fatalf("%s op %d: write left other sharers (%b)", name, i, o.holders[l])
			}
		case rng.Intn(3) == 0:
			acts := s.Upgrade(c, l)
			o.applyActions(acts)
			if !o.holders[l].Has(c) {
				t.Fatalf("%s op %d: upgrade invalidated the writer", name, i)
			}
			if o.holders[l].Count() != 1 {
				t.Fatalf("%s op %d: upgrade left %d sharers", name, i, o.holders[l].Count())
			}
		default:
			acts := s.L2Evict(c, l, rng.Intn(2) == 0)
			o.holders[l] = o.holders[l].Clear(c)
			o.applyActions(acts)
		}

		if hk, ok := s.(Housekeeper); ok && i%50 == 49 {
			o.applyActions(hk.Housekeep())
		}

		if err := checkLine(s, o, l); err != nil {
			t.Fatalf("%s op %d: %v", name, i, err)
		}
		if i%500 == 499 {
			for ll := range o.holders {
				if err := checkLine(s, o, ll); err != nil {
					t.Fatalf("%s op %d (sweep): %v", name, i, err)
				}
			}
		}
	}
}

// TestSliceFuzzAgainstOracle fuzzes every directory implementation against
// the sharer oracle. Tiny geometries force constant conflicts so every
// migration and disposal path is exercised.
func TestSliceFuzzAgainstOracle(t *testing.T) {
	idx := func(l addr.Line) int { return int(l) % 8 }
	const ops = 6000

	t.Run("baseline-fixed", func(t *testing.T) {
		fuzzSlice(t, "baseline-fixed", NewBaseline(BaselineParams{
			TDSets: 8, TDWays: 2, EDSets: 8, EDWays: 2,
			Index: cachesim.FuncIndex(idx), AppendixAFix: true, Seed: 1,
		}), 11, ops)
	})
	t.Run("baseline-unfixed", func(t *testing.T) {
		fuzzSlice(t, "baseline-unfixed", NewBaseline(BaselineParams{
			TDSets: 8, TDWays: 2, EDSets: 8, EDWays: 2,
			Index: cachesim.FuncIndex(idx), AppendixAFix: false, Seed: 2,
		}), 12, ops)
	})
	t.Run("way-partitioned", func(t *testing.T) {
		wp, err := NewWayPartitioned(WayPartParams{
			Cores:  4,
			TDSets: 8, TDWays: 4, EDSets: 8, EDWays: 4,
			Index: cachesim.FuncIndex(idx), Seed: 3,
		})
		if err != nil {
			t.Fatal(err)
		}
		fuzzSlice(t, "way-partitioned", wp, 13, ops)
	})
	t.Run("rand-mapped", func(t *testing.T) {
		// A remap step over every set: the bulk re-key.
		fuzzSlice(t, "rand-mapped", NewCeaser(CeaserParams{
			TDSets: 8, TDWays: 2, EDSets: 8, EDWays: 2,
			RekeyEvery: 400, RemapStep: 8, Seed: 4,
		}), 14, ops)
	})
}
