package experiments

import (
	"context"
	"errors"

	"secdir/internal/attack"
	"secdir/internal/coherence"
	"secdir/internal/config"
	"secdir/internal/trace"
)

// ALT — the §1/§11 design-space comparison: the vulnerable baseline, the
// DAWG-style way-partitioned alternative, the CEASER-style randomized
// alternative, and SecDir, on the same workload and under two attacks
// (targeted evict+reload and brute-force slice flooding). Way partitioning is
// secure but pays in conflict misses and cannot be built beyond 11 cores;
// randomization defeats the targeted attack but only raises the price of the
// flood; SecDir blocks both structurally at baseline-like performance.

// ALTRow is one design's outcome.
type ALTRow struct {
	Design string

	// Buildable is false when the design cannot exist at this core count
	// (way partitioning with cores > ways).
	Buildable bool

	// Performance on the workload.
	IPC      float64
	L2Misses uint64

	// Security under targeted evict+reload.
	AttackAccuracy  float64
	VictimEvictions int

	// Security under brute-force slice flooding (48k lines per round).
	FloodAccuracy  float64
	FloodEvictions int

	// InclusionVictims the victim core suffered from other cores' activity
	// during the workload run (cross-core only; way partitioning's
	// self-conflicts are not counted here, matching the threat model).
	InclusionVictims uint64
}

// Alternatives runs the four designs on SPEC mix2 and the two directory attacks.
// ctx is checked between designs and inside each simulation leg.
func Alternatives(ctx context.Context, o RunOpts) ([]ALTRow, error) {
	// Each row's label and its design-catalogue name.
	configs := []struct{ name, design string }{
		{"baseline", "baseline"},
		{"way-partitioned", "waypart"},
		{"rand-mapped", "randmap"},
		{"secdir", "secdir"},
	}
	target := trace.T0Lines()[0]
	attackers := make([]int, 0, o.Cores-1)
	for c := 1; c < o.Cores; c++ {
		attackers = append(attackers, c)
	}

	var rows []ALTRow
	for _, c := range configs {
		row := ALTRow{Design: c.name, Buildable: true}
		cfg, err := config.ByName(c.design, o.Cores)
		if err != nil {
			return nil, err
		}
		cfg.Seed = o.Seed

		// Performance leg.
		w, err := trace.NewSpecMix(2, o.Cores, o.Seed)
		if err != nil {
			return nil, err
		}
		res, err := run(ctx, cfg, w, o, nil)
		if err != nil {
			if errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded) {
				return nil, err
			}
			// Unbuildable designs surface here (e.g. way partitioning at
			// 16+ cores).
			row.Buildable = false
			rows = append(rows, row)
			continue
		}
		row.IPC = res.TotalIPC()
		row.L2Misses = res.L2Misses()
		for _, cr := range res.PerCore {
			row.InclusionVictims += cr.Stats.ConflictInvalidations
		}

		// Security leg.
		e, err := coherence.Acquire(cfg)
		if err != nil {
			return nil, err
		}
		er, err := attack.EvictReload(e, 0, attackers, target, 40, 32)
		coherence.Release(e)
		if err != nil {
			return nil, err
		}
		row.AttackAccuracy = er.Accuracy()
		row.VictimEvictions = er.VictimEvictions

		ef, err := coherence.Acquire(cfg)
		if err != nil {
			return nil, err
		}
		fr, err := attack.FloodReload(ef, 0, attackers, target, 10, 48_000)
		coherence.Release(ef)
		if err != nil {
			return nil, err
		}
		row.FloodAccuracy = fr.Accuracy()
		row.FloodEvictions = fr.VictimEvictions
		rows = append(rows, row)
	}
	return rows, nil
}
