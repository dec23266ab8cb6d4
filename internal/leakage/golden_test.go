package leakage

import (
	"context"
	"flag"
	"math"
	"testing"

	"secdir/internal/golden"
)

// update rewrites the golden verdict CSV under data/ instead of diffing:
// go test ./internal/leakage -run TestGoldenVerdicts -update
var update = flag.Bool("update", false, "rewrite data/leakage_verdicts.csv")

// Golden sampling parameters: heavy enough that prime+probe clears the
// ISSUE's capacity bar (>0.5 bit needs ≥~96 rounds per trial at a 23-line
// eviction set — the W_ED+W_TD way count, minimizing prime self-eviction
// noise), light enough to rerun in seconds.
const (
	goldenTrials  = 200
	goldenRounds  = 128
	goldenEvLines = 23
	goldenSeed    = 1
)

// TestGoldenVerdicts pins the leakage verdicts under a fixed seed to the
// committed CSV — any change to the trial runner, the schedule derivation,
// the statistics, or the simulated machine shows up as a diff here — and
// additionally asserts the paper's headline claim at golden strength:
// skylake-unfixed leaks (|t| > 4.5, capacity > 0.5 bit) and secdir does not
// (|t| < 4.5, capacity ≈ 0) for prime+probe and evict+reload.
func TestGoldenVerdicts(t *testing.T) {
	strategies, err := ParseStrategyList("primeprobe,evictreload")
	if err != nil {
		t.Fatal(err)
	}
	rep, err := RunReport(context.Background(), ReportOptions{
		Configs:       []string{"skylake-unfixed", "secdir"},
		Strategies:    strategies,
		Trials:        goldenTrials,
		Rounds:        goldenRounds,
		EvictionLines: goldenEvLines,
		Seed:          goldenSeed,
	})
	if err != nil {
		t.Fatal(err)
	}

	for _, v := range rep.Verdicts {
		// The ISSUE's acceptance bars, checked at golden strength.
		abs := math.Abs(v.TStat)
		switch v.Config {
		case "skylake-unfixed":
			if !v.Leak || abs <= TVLAThreshold || v.CapacityBits <= 0.5 {
				t.Errorf("%s/%s: |t|=%.2f capacity=%.3f — want |t|>4.5 and capacity>0.5 bit",
					v.Config, v.Strategy, abs, v.CapacityBits)
			}
		case "secdir":
			if v.Leak || abs >= TVLAThreshold || v.CapacityBits >= 0.05 {
				t.Errorf("%s/%s: |t|=%.2f capacity=%.3f — want |t|<4.5 and capacity≈0",
					v.Config, v.Strategy, abs, v.CapacityBits)
			}
		}
	}
	head, rows := rep.CSV()
	golden.Check(t, "leakage_verdicts.csv", head, rows, *update)
}
