package leakage

import (
	"context"
	"math"
	"reflect"
	"strings"
	"testing"

	"secdir/internal/golden"
)

// Leaderboard sampling parameters: lighter than the headline golden (six
// defenses × two strategies is twelve cells) but heavy enough that the
// baseline's channel clears TVLA by a wide margin at seed 1.
const (
	lbTrials  = 60
	lbRounds  = 32
	lbEvLines = 23
	lbSeed    = 1
)

// TestLeaderboardGolden pins the full cross-defense leaderboard —
// skylake-unfixed, secdir and the four rival designs raced through
// prime+probe and evict+reload, with the deterministic performance probe and
// the Table-7-model cost columns — to data/leaderboard.csv, and asserts the
// reference rows: the unfixed baseline leaks on both strategies, secdir on
// neither.
//
//	go test ./internal/leakage -run Leaderboard          # verify
//	go test ./internal/leakage -run Leaderboard -update  # regenerate
func TestLeaderboardGolden(t *testing.T) {
	lb := raceLeaderboard(t, ReportOptions{
		Configs:       LeaderboardNames,
		Trials:        lbTrials,
		Rounds:        lbRounds,
		EvictionLines: lbEvLines,
		Seed:          lbSeed,
	}, 0)
	if want := 2 * len(LeaderboardNames); len(lb.Rows) != want {
		t.Fatalf("got %d rows, want %d", len(lb.Rows), want)
	}
	for _, r := range lb.Rows {
		switch r.Config {
		case "skylake-unfixed":
			if !r.Leak {
				t.Errorf("%s/%s: |t|=%.2f — the unfixed baseline must LEAK",
					r.Config, r.Strategy, math.Abs(r.TStat))
			}
		case "secdir":
			if r.Leak {
				t.Errorf("%s/%s: |t|=%.2f — secdir must not leak",
					r.Config, r.Strategy, math.Abs(r.TStat))
			}
		}
		if r.SimNsAccess <= 0 {
			t.Errorf("%s: non-positive simulated latency %v", r.Config, r.SimNsAccess)
		}
		if r.StorageKB <= 0 || r.AreaMM2 <= 0 {
			t.Errorf("%s: missing cost estimate (%.2f KB, %.4f mm2)", r.Config, r.StorageKB, r.AreaMM2)
		}
	}
	head, rows := lb.CSV()
	golden.Check(t, "leaderboard.csv", head, rows, *update)
}

// TestLeaderboardWorkerInvariance re-runs one leaderboard cell at 1 worker
// and at 4 and requires bit-identical rows: the trial fan-out must only
// change scheduling, never results, or the committed golden would depend on
// the machine that generated it.
func TestLeaderboardWorkerInvariance(t *testing.T) {
	run := func(workers int) []LeaderboardRow {
		return raceLeaderboard(t, ReportOptions{
			Configs:       []string{"skewed"},
			Trials:        20,
			Rounds:        16,
			EvictionLines: lbEvLines,
			Seed:          lbSeed,
			Workers:       workers,
		}, 20_000).Rows
	}
	serial, parallel := run(1), run(4)
	if !reflect.DeepEqual(serial, parallel) {
		t.Fatalf("leaderboard rows depend on the worker count:\n 1 worker: %+v\n 4 workers: %+v", serial, parallel)
	}
}

// raceLeaderboard runs o over the leaderboard's strategy pair and joins the
// cost columns, as a leaderboard job does.
func raceLeaderboard(t *testing.T, o ReportOptions, perfAccesses int) *Leaderboard {
	t.Helper()
	strategies, err := ParseStrategyList(strings.Join(LeaderboardStrategies, ","))
	if err != nil {
		t.Fatal(err)
	}
	o.Strategies = strategies
	rep, err := RunReport(context.Background(), o)
	if err != nil {
		t.Fatal(err)
	}
	lb, err := NewLeaderboard(rep, o.Cores, perfAccesses)
	if err != nil {
		t.Fatal(err)
	}
	return lb
}
