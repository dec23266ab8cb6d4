package experiments

import (
	"context"

	"secdir/internal/area"
	"secdir/internal/attack"
	"secdir/internal/coherence"
	"secdir/internal/config"
	"secdir/internal/trace"
)

// SC — scaling study (§4.1 "the VD design is scalable with the number of
// cores"): at every machine size, the attack gets *easier* against the
// baseline (more attacker cores, §2.3) while SecDir keeps blocking it, and
// the per-core VD capacity stays pinned to the L2 size.

// SCRow is one machine size of the scaling study.
type SCRow struct {
	Cores int

	// RequiredAssoc is the §2.3 bound W_L2·(N−1)+W_LLC.
	RequiredAssoc int

	// VDEntriesPerCore and L2Lines compare the distributed VD capacity to
	// the private cache it must cover.
	VDEntriesPerCore int
	L2Lines          int

	// Storage delta (SecDir − baseline) per slice, in KB; negative means
	// SecDir is smaller.
	StorageDeltaKB float64

	// Attack outcomes at this scale.
	BaselineAccuracy        float64
	SecDirAccuracy          float64
	BaselineVictimEvictions int
	SecDirVictimEvictions   int
}

// Scaling runs the attack and the sizing arithmetic at 8..maxCores cores
// (power-of-two steps; the simulator supports up to config.MaxCores). ctx
// is checked between machine sizes.
func Scaling(ctx context.Context, o RunOpts, maxCores int) ([]SCRow, error) {
	if maxCores > config.MaxCores {
		maxCores = config.MaxCores
	}
	const rounds = 20
	var rows []SCRow
	for n := 8; n <= maxCores; n *= 2 {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		row := SCRow{
			Cores:         n,
			RequiredAssoc: area.RequiredAssociativity(n),
			L2Lines:       config.SecDirConfig(n).L2Lines(),
		}
		secCfg := config.SecDirConfig(n)
		secCfg.Seed = o.Seed
		row.VDEntriesPerCore = secCfg.VDEntriesPerCore()
		base := area.SkylakeSlice(n)
		sec := area.SecDirSlice(n, 8)
		row.StorageDeltaKB = area.KB(sec.Total()) - area.KB(base.Total())

		target := trace.T0Lines()[0]
		attackers := make([]int, 0, n-1)
		for c := 1; c < n; c++ {
			attackers = append(attackers, c)
		}
		// The eviction set must beat W_ED+W_TD regardless of scale; 32
		// lines suffices and every added core makes priming easier.
		baseCfg := config.SkylakeX(n)
		baseCfg.Seed = o.Seed
		eb, err := coherence.Acquire(baseCfg)
		if err != nil {
			return nil, err
		}
		rb, err := attack.EvictReload(eb, 0, attackers, target, rounds, 32)
		coherence.Release(eb)
		if err != nil {
			return nil, err
		}
		row.BaselineAccuracy = rb.Accuracy()
		row.BaselineVictimEvictions = rb.VictimEvictions

		es, err := coherence.Acquire(secCfg)
		if err != nil {
			return nil, err
		}
		rs, err := attack.EvictReload(es, 0, attackers, target, rounds, 32)
		coherence.Release(es)
		if err != nil {
			return nil, err
		}
		row.SecDirAccuracy = rs.Accuracy()
		row.SecDirVictimEvictions = rs.VictimEvictions

		rows = append(rows, row)
	}
	return rows, nil
}
