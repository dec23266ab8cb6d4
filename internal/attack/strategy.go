package attack

import (
	"secdir/internal/addr"
	"secdir/internal/coherence"
)

// This file is the package's single trial loop and the per-attack drivers
// behind it. Every attack entry point (PrimeProbe, EvictReload, EvictTime,
// FloodReload, RecoverPattern) is a thin result-shaping wrapper around
// ForEachRound driving one of the five strategy types below, and the same
// five types implement leakage.Strategy, so the statistical leakage lab runs
// exactly the attack code the unit tests exercise.

// Params configures one mounted attack instance against one engine: who
// attacks whom, over which target line, with how many conflicting lines.
type Params struct {
	// Victim is the core under attack.
	Victim int
	// Attackers are the cores mounting the attack (round-robin owners of the
	// eviction set).
	Attackers []int
	// Target is the monitored line (typically a line of the AES T0 table).
	Target addr.Line
	// EvictionLines sizes the conflict set: the targeted eviction-set size
	// for the set-conflict attacks, the flood size for FloodReload. Zero
	// selects the strategy's default.
	EvictionLines int
}

// lines returns the configured conflict-set size, or def when unset.
func (p Params) lines(def int) int {
	if p.EvictionLines > 0 {
		return p.EvictionLines
	}
	return def
}

// Driver executes one attack round at a time against the engine it was
// mounted on. A round's scalar observable is what the attacker measures on
// hardware (probe misses, reload hit, victim cycles, ...); victim-active and
// victim-idle observables form the two distributions the leakage lab tests
// against each other.
//
// A driver stays mounted on its engine across Engine.Reset: what NewDriver
// derives from the engine's geometry alone (eviction sets, flood sets, the
// attacker's cores) does not depend on the seed, so one driver serves every
// trial a worker runs on one pooled machine. Rearm is the per-trial half of
// NewDriver.
type Driver interface {
	// Round runs attack round i; active selects whether the victim acts
	// during the round's Wait step. It returns the attacker's observable.
	Round(i int, active bool) float64
	// VictimEvictions reports how many Conflict steps so far displaced the
	// victim's private copy — ground truth the simulator exposes but a real
	// attacker cannot see. Strategies without the notion return 0.
	VictimEvictions() int
	// Rearm readies the driver for a new trial on its engine, which the
	// caller has just Reset: it zeroes the per-trial counters and replays
	// any engine warm-up NewDriver performs, so the driver and engine are
	// in the state NewDriver on a freshly built engine with the same seed
	// leaves them. Every NewDriver ends by calling it.
	Rearm()
}

// Schedule decides victim activity per round. A nil Schedule alternates
// strictly, victim active on even rounds — the deterministic pattern the
// classic entry points use; the leakage trial runner passes a seeded
// balanced-random schedule instead (TVLA-style random interleaving).
type Schedule func(i int) bool

// ForEachRound is the one rounds loop every attack shares: it asks the
// schedule whether the victim acts, runs the round, and hands the observable
// to sink (which may be nil). Keeping the loop in one place is what lets the
// leakage lab wrap any attack without the per-attack copies the entry points
// used to carry.
func ForEachRound(d Driver, rounds int, sched Schedule, sink func(i int, active bool, obs float64)) {
	for i := 0; i < rounds; i++ {
		active := i%2 == 0
		if sched != nil {
			active = sched(i)
		}
		obs := d.Round(i, active)
		if sink != nil {
			sink(i, active, obs)
		}
	}
}

// b2f converts an attacker's binary observation to its scalar observable.
func b2f(b bool) float64 {
	if b {
		return 1
	}
	return 0
}

// defaultEvictionLines comfortably exceeds the W_ED+W_TD = 23 entry bound of
// §2.3, so a targeted conflict set reliably fills the victim's directory set.
const defaultEvictionLines = 32

// PrimeProbeStrategy mounts the prime+probe attack of §2.2: the observable is
// the attacker's probe-miss count per round. Implements leakage.Strategy.
type PrimeProbeStrategy struct{}

// Name returns the strategy identifier.
func (PrimeProbeStrategy) Name() string { return "primeprobe" }

// DefaultLines returns the default conflict-set size.
func (PrimeProbeStrategy) DefaultLines() int { return defaultEvictionLines }

// NewDriver prepares the attack against e.
func (PrimeProbeStrategy) NewDriver(e *coherence.Engine, p Params) (Driver, error) {
	a, err := NewAttacker(e, p.Attackers, p.Target, p.lines(defaultEvictionLines))
	if err != nil {
		return nil, err
	}
	d := &primeProbeDriver{e: e, a: a, p: p}
	d.Rearm()
	return d, nil
}

// primeProbeDriver is PrimeProbeStrategy's per-engine state.
type primeProbeDriver struct {
	e *coherence.Engine
	a *Attacker
	p Params
}

// Round primes, lets the victim act, and probes.
func (d *primeProbeDriver) Round(_ int, active bool) float64 {
	d.a.Prime()
	if active {
		d.e.Access(d.p.Victim, d.p.Target, false)
	}
	return float64(d.a.Probe())
}

// VictimEvictions always reports 0: prime+probe observes the attacker's own
// set, not the victim's copy.
func (d *primeProbeDriver) VictimEvictions() int { return 0 }

// Rearm has nothing to do: prime+probe keeps no per-trial state.
func (d *primeProbeDriver) Rearm() {}

// EvictReloadStrategy mounts the evict+reload attack of §2.2 against a
// read-shared target: the observable is 1 when the reload hit somewhere in
// the hierarchy (the attacker's "victim accessed" verdict). Implements
// leakage.Strategy.
type EvictReloadStrategy struct{}

// Name returns the strategy identifier.
func (EvictReloadStrategy) Name() string { return "evictreload" }

// DefaultLines returns the default conflict-set size.
func (EvictReloadStrategy) DefaultLines() int { return defaultEvictionLines }

// NewDriver prepares the attack against e.
func (EvictReloadStrategy) NewDriver(e *coherence.Engine, p Params) (Driver, error) {
	a, err := NewAttacker(e, p.Attackers, p.Target, p.lines(defaultEvictionLines))
	if err != nil {
		return nil, err
	}
	d := &evictReloadDriver{e: e, a: a, p: p}
	d.Rearm()
	return d, nil
}

// evictReloadDriver is EvictReloadStrategy's per-engine state.
type evictReloadDriver struct {
	e         *coherence.Engine
	a         *Attacker
	p         Params
	evictions int
}

// Round runs one Conflict-Wait-Analyze cycle.
func (d *evictReloadDriver) Round(_ int, active bool) float64 {
	// The victim holds the target (e.g. a T-table line it used before).
	d.e.Access(d.p.Victim, d.p.Target, false)
	// Conflict step: evict the victim's directory entry (and with it, on the
	// baseline, the victim's private copy).
	d.a.Prime()
	if !d.e.L2Contains(d.p.Victim, d.p.Target) {
		d.evictions++
	}
	// Wait step: the victim accesses the target on active rounds.
	if active {
		d.e.Access(d.p.Victim, d.p.Target, false)
	}
	// Analyze step: reload. The line being anywhere in the hierarchy is the
	// attacker's "victim accessed" verdict — but only if the eviction
	// actually worked; otherwise the reload always hits and carries no
	// information, so the attacker must guess.
	hit := d.a.Reload(d.p.Target)
	// Reset: purge the attacker's own copy of the target so the next round
	// starts clean, and drain the reload's directory state.
	d.e.FlushCore(d.a.Cores[0])
	return b2f(hit)
}

// VictimEvictions reports rounds whose Conflict step displaced the victim's
// private copy.
func (d *evictReloadDriver) VictimEvictions() int { return d.evictions }

// Rearm zeroes the eviction count.
func (d *evictReloadDriver) Rearm() { d.evictions = 0 }
