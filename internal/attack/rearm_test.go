package attack

import (
	"reflect"
	"testing"

	"secdir/internal/coherence"
	"secdir/internal/config"
	"secdir/internal/directory"
)

// strategy is the constructor half of leakage.Strategy, which every
// strategy type here implements.
type strategy interface {
	Name() string
	NewDriver(e *coherence.Engine, p Params) (Driver, error)
}

// strategies lists the five strategy types in leakage's canonical order.
var strategies = []strategy{
	PrimeProbeStrategy{}, EvictReloadStrategy{}, EvictTimeStrategy{},
	FloodReloadStrategy{}, MonitorStrategy{},
}

// playback is everything a trial exposes: each round's observable, the
// driver's ground-truth counters and the engine's statistics afterwards.
type playback struct {
	obs       []float64
	evictions int
	monitor   MonitorResult
	stats     coherence.Stats
	dir       directory.Stats
}

// play runs rounds of d on e under a seed-dependent schedule.
func play(d Driver, e *coherence.Engine, rounds int, seed int64) playback {
	var pb playback
	ForEachRound(d, rounds, func(i int) bool { return (int64(i)*5+seed)%3 != 0 },
		func(_ int, _ bool, obs float64) { pb.obs = append(pb.obs, obs) })
	pb.evictions = d.VictimEvictions()
	if m, ok := d.(*monitorDriver); ok {
		pb.monitor = m.res
	}
	pb.stats = *e.Stats()
	pb.stats.Core = append([]coherence.CoreStats(nil), pb.stats.Core...)
	pb.dir = e.DirStats()
	return pb
}

// TestRearmMatchesFresh pins Driver.Rearm, which lets a leakage trial
// worker mount each attack once: for every strategy, on the unfixed
// baseline, SecDir and two rival designs (whose slices Engine.Reset drops
// and rebuilds), a driver that has already run a trial, re-armed on its
// engine after Reset, must reproduce round for round what NewDriver on a
// freshly built engine with the same seed gives — observables, victim
// evictions, the monitor's confusion matrix and every engine and directory
// counter.
func TestRearmMatchesFresh(t *testing.T) {
	const cores, rounds = 4, 8
	// floodreload's default flood is 40 000 lines per wave; a smaller one
	// keeps the matrix fast.
	const floodLines = 3000
	for _, name := range []string{"skylake-unfixed", "secdir", "skewed", "ceaser"} {
		cfg, err := config.ByName(name, cores)
		if err != nil {
			t.Fatal(err)
		}
		for _, s := range strategies {
			t.Run(name+"/"+s.Name(), func(t *testing.T) {
				p := Params{Victim: 0, Attackers: attackerCores(cores), Target: targetLine}
				if s.Name() == "floodreload" {
					p.EvictionLines = floodLines
				}
				reused := newEngine(t, cfg.WithSeed(97))
				d, err := s.NewDriver(reused, p)
				if err != nil {
					t.Fatal(err)
				}
				// The first trial leaves counters for Rearm to zero: on the
				// baseline, evict+reload evicts the victim. (A flood that
				// evicts on these machines needs ~47k lines per wave.)
				first := play(d, reused, rounds, 97)
				if name == "skylake-unfixed" && s.Name() == "evictreload" && first.evictions == 0 {
					t.Fatalf("first trial evicted the victim in none of %d rounds", rounds)
				}
				for _, seed := range []int64{1, 2, 3} {
					if err := reused.Reset(seed); err != nil {
						t.Fatal(err)
					}
					d.Rearm()
					got := play(d, reused, rounds, seed)

					fresh := newEngine(t, cfg.WithSeed(seed))
					fd, err := s.NewDriver(fresh, p)
					if err != nil {
						t.Fatal(err)
					}
					want := play(fd, fresh, rounds, seed)
					if !reflect.DeepEqual(got, want) {
						t.Fatalf("seed %d: re-armed driver diverged from a fresh one:\nfresh    %+v\nre-armed %+v", seed, want, got)
					}
				}
			})
		}
	}
}
