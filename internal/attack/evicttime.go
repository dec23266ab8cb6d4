package attack

import (
	"secdir/internal/addr"
	"secdir/internal/coherence"
)

// EvictTimeResult summarises an evict+time experiment (§2.2): instead of
// probing its own eviction set, the attacker times the *victim's* operation —
// if the Conflict step evicted the target, a victim operation that touches it
// runs measurably slower.
type EvictTimeResult struct {
	Rounds int
	// MeanActiveCycles / MeanIdleCycles are the victim operation's average
	// simulated duration for rounds where the operation does / does not
	// touch the target line.
	MeanActiveCycles float64
	MeanIdleCycles   float64
}

// Signal is the timing difference in cycles the attacker observes between
// target-touching and target-free victim operations. A positive signal means
// the attacker can distinguish them; ≈0 means the defense holds.
func (r EvictTimeResult) Signal() float64 {
	return r.MeanActiveCycles - r.MeanIdleCycles
}

// EvictTimeStrategy mounts the evict+time attack: the observable is the
// simulated cycle count of the victim's operation. Both operation variants
// perform the same number of loads — the target-free variant loads a warm
// victim-private dummy line instead of the target — so the distributions
// differ only through the directory side channel (a TVLA-style
// fixed-vs-random pair), not through the operation's intrinsic work.
// Implements leakage.Strategy.
type EvictTimeStrategy struct{}

// Name returns the strategy identifier.
func (EvictTimeStrategy) Name() string { return "evicttime" }

// DefaultLines returns the default conflict-set size.
func (EvictTimeStrategy) DefaultLines() int { return defaultEvictionLines }

// NewDriver prepares the attack against e and warms the victim's state
// (target, dummy and fillers cached).
func (EvictTimeStrategy) NewDriver(e *coherence.Engine, p Params) (Driver, error) {
	a, err := NewAttacker(e, p.Attackers, p.Target, p.lines(defaultEvictionLines))
	if err != nil {
		return nil, err
	}
	d := &evictTimeDriver{e: e, a: a, p: p}
	// Victim-private filler lines, far from the target's directory set; the
	// dummy line the idle operation loads sits in the same private region.
	for i := range d.fillers {
		d.fillers[i] = addr.Line(uint64(0x3F)<<24 + uint64(i))
	}
	d.dummy = addr.Line(uint64(0x3F)<<24 + uint64(len(d.fillers)))
	d.Rearm()
	return d, nil
}

// evictTimeDriver is EvictTimeStrategy's per-engine state.
type evictTimeDriver struct {
	e       *coherence.Engine
	a       *Attacker
	p       Params
	fillers [16]addr.Line
	dummy   addr.Line
}

// operation is the victim's timed computation: one lead load — the target or
// the dummy — followed by the filler loads that pad it so it resembles a real
// computation.
func (d *evictTimeDriver) operation(touchTarget bool) (cycles uint64) {
	lead := d.dummy
	if touchTarget {
		lead = d.p.Target
	}
	cycles += uint64(d.e.Access(d.p.Victim, lead, false).Latency)
	for _, f := range d.fillers {
		cycles += uint64(d.e.Access(d.p.Victim, f, false).Latency)
	}
	return cycles
}

// Round evicts and times the victim's next operation.
func (d *evictTimeDriver) Round(_ int, active bool) float64 {
	// The victim holds the target from its previous use.
	d.e.Access(d.p.Victim, d.p.Target, false)
	// Conflict step.
	d.a.Prime()
	// The attacker times the victim's next operation.
	return float64(d.operation(active))
}

// VictimEvictions always reports 0: evict+time observes the victim's timing,
// not its cache contents.
func (d *evictTimeDriver) VictimEvictions() int { return 0 }

// Rearm warms the victim's state on the reset engine: target, dummy and
// fillers cached.
func (d *evictTimeDriver) Rearm() {
	d.operation(true)
	d.operation(false)
}

// EvictTime runs rounds of the evict+time attack: the attacker primes, then
// times the victim's next operation, which loads the target on active rounds
// and a warm dummy line otherwise.
func EvictTime(e *coherence.Engine, victim int, attackers []int, target addr.Line, rounds, evictionLines int) (EvictTimeResult, error) {
	d, err := EvictTimeStrategy{}.NewDriver(e, Params{
		Victim: victim, Attackers: attackers, Target: target, EvictionLines: evictionLines,
	})
	if err != nil {
		return EvictTimeResult{}, err
	}
	var res EvictTimeResult
	res.Rounds = rounds
	var activeSum, idleSum float64
	var activeN, idleN int
	ForEachRound(d, rounds, nil, func(_ int, active bool, obs float64) {
		if active {
			activeSum += obs
			activeN++
		} else {
			idleSum += obs
			idleN++
		}
	})
	if activeN > 0 {
		res.MeanActiveCycles = activeSum / float64(activeN)
	}
	if idleN > 0 {
		res.MeanIdleCycles = idleSum / float64(idleN)
	}
	return res, nil
}
