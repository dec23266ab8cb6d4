package attack

import (
	"fmt"

	"secdir/internal/addr"
	"secdir/internal/coherence"
)

// defaultFloodLines is the flood size FloodReloadStrategy uses when Params
// leaves it unset: enough same-slice lines that the victim's entry is
// statistically certain to be displaced on the randomized design (§11's
// "tens of thousands of accesses per observation").
const defaultFloodLines = 40_000

// FloodReloadStrategy is the brute-force variant of evict+reload for
// directories whose set mapping the attacker cannot compute (the §11
// randomized alternative): instead of a targeted eviction set, the attacker
// floods the target's home slice with lines across many sets. The observable
// is the reload hit, as in EvictReloadStrategy; Params.EvictionLines is the
// flood size. Implements leakage.Strategy.
type FloodReloadStrategy struct{}

// Name returns the strategy identifier.
func (FloodReloadStrategy) Name() string { return "floodreload" }

// DefaultLines returns the default flood size.
func (FloodReloadStrategy) DefaultLines() int { return defaultFloodLines }

// NewDriver enumerates the flood set against e.
func (FloodReloadStrategy) NewDriver(e *coherence.Engine, p Params) (Driver, error) {
	floodLines := p.lines(defaultFloodLines)
	m := e.Mapper()
	slice := m.Slice(p.Target)
	flood := make([]addr.Line, 0, floodLines)
	for cand := addr.Line(0); len(flood) < floodLines; cand++ {
		if cand != p.Target && m.Slice(cand) == slice {
			flood = append(flood, cand)
		}
	}
	if len(flood) < floodLines {
		return nil, fmt.Errorf("attack: found only %d/%d same-slice lines", len(flood), floodLines)
	}
	d := &floodReloadDriver{e: e, p: p, flood: flood}
	d.Rearm()
	return d, nil
}

// floodReloadDriver is FloodReloadStrategy's per-engine state.
type floodReloadDriver struct {
	e         *coherence.Engine
	p         Params
	flood     []addr.Line
	evictions int
}

// Round runs one flood-Wait-Analyze cycle.
func (d *floodReloadDriver) Round(_ int, active bool) float64 {
	d.e.Access(d.p.Victim, d.p.Target, false)
	// Conflict step: flood the slice from all attacker cores, twice —
	// flushing the attackers between waves so every flood line re-inserts a
	// directory entry each time (the brute-force cost randomization imposes;
	// a targeted set needs ~32 accesses, this needs tens of thousands).
	for wave := 0; wave < 2; wave++ {
		for _, a := range d.p.Attackers {
			d.e.FlushCore(a)
		}
		for j, l := range d.flood {
			d.e.Access(d.p.Attackers[j%len(d.p.Attackers)], l, false)
		}
	}
	if !d.e.L2Contains(d.p.Victim, d.p.Target) {
		d.evictions++
	}
	if active {
		d.e.Access(d.p.Victim, d.p.Target, false)
	}
	hit := d.e.Access(d.p.Attackers[0], d.p.Target, false).Level != coherence.LevelMemory
	d.e.FlushCore(d.p.Attackers[0])
	return b2f(hit)
}

// VictimEvictions reports rounds whose flood displaced the victim's private
// copy.
func (d *floodReloadDriver) VictimEvictions() int { return d.evictions }

// Rearm zeroes the eviction count.
func (d *floodReloadDriver) Rearm() { d.evictions = 0 }

// FloodReload runs rounds of the brute-force slice-flooding variant of
// evict+reload against directories whose set mapping the attacker cannot
// compute. This is the paper's point about randomization-based defenses —
// they "can only reduce the bandwidth of the attack, instead of eliminating
// it": each observation costs tens of thousands of accesses instead of a few
// dozen.
func FloodReload(e *coherence.Engine, victim int, attackers []int, target addr.Line, rounds, floodLines int) (EvictReloadResult, error) {
	d, err := FloodReloadStrategy{}.NewDriver(e, Params{
		Victim: victim, Attackers: attackers, Target: target, EvictionLines: floodLines,
	})
	if err != nil {
		return EvictReloadResult{}, err
	}
	var res EvictReloadResult
	res.Rounds = rounds
	ForEachRound(d, rounds, nil, func(_ int, active bool, obs float64) {
		if (obs >= 0.5) == active {
			res.Correct++
		}
	})
	res.VictimEvictions = d.VictimEvictions()
	return res, nil
}
