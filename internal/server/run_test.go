package server

import (
	"context"
	"encoding/json"
	"reflect"
	"testing"
	"time"

	"secdir/internal/coherence"
	"secdir/internal/fleet"
	"secdir/internal/leakage"
	"secdir/internal/metrics"
)

// runSpec normalizes spec and runs it in-process through Run.
func runSpec(t *testing.T, spec JobSpec) any {
	t.Helper()
	if err := spec.Normalize(); err != nil {
		t.Fatal(err)
	}
	res, err := Run(context.Background(), spec, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	return res
}

// TestAttackJobReportPinned pins the JSON of a both-designs attack job at a
// fixed seed and a few rounds. Every number of an AttackReport is a
// deterministic function of the spec, so any drift in the attack suite or
// the engines it builds shows here.
func TestAttackJobReportPinned(t *testing.T) {
	got, err := json.Marshal(runSpec(t, JobSpec{Kind: KindAttack, Rounds: 6, Seed: 3}))
	if err != nil {
		t.Fatal(err)
	}
	const want = `[` +
		`{"design":"baseline","rounds":6,"evict_reload_accuracy":1,"victim_evictions":6,` +
		`"prime_probe_signal":1.1666666666666667,"evict_time_signal":36,"key_nibbles_recovered":4,` +
		`"key_nibbles_total":4,"encryptions":3072,"inclusion_victims":9},` +
		`{"design":"secdir","rounds":6,"evict_reload_accuracy":0.5,"victim_evictions":0,` +
		`"prime_probe_signal":0,"evict_time_signal":0,"key_nibbles_recovered":0,` +
		`"key_nibbles_total":4,"encryptions":3072,"inclusion_victims":0}]`
	if string(got) != want {
		t.Errorf("attack job report drifted:\ngot  %s\nwant %s", got, want)
	}
}

// TestJobMetricsPooledMatchCold runs a replay job and an attack job twice
// each through Run with a fresh registry: first on a cold engine pool, then
// on the engines the first run released. The two snapshots match exactly —
// counters, histograms, the IPC series and the dir/* occupancy gauges that
// Release folds — so pooling an instrumented machine cannot change what a job
// reports.
func TestJobMetricsPooledMatchCold(t *testing.T) {
	defer coherence.DropIdleEngines()
	for _, spec := range []JobSpec{
		{Kind: KindReplay, Design: "secdir", Workload: "mix2", Warmup: 2000, Measure: 2000},
		{Kind: KindAttack, Design: "both", Rounds: 6},
	} {
		t.Run(string(spec.Kind), func(t *testing.T) {
			if err := spec.Normalize(); err != nil {
				t.Fatal(err)
			}
			run := func() metrics.Snapshot {
				reg := metrics.New()
				if _, err := Run(context.Background(), spec, reg, nil); err != nil {
					t.Fatal(err)
				}
				return reg.Snapshot()
			}
			coherence.DropIdleEngines()
			cold := run()
			if coherence.IdleEngines() == 0 {
				t.Fatal("the job released no engine to the pool")
			}
			pooled := run()
			for _, g := range []string{"dir/ed_fill", "dir/td_fill", "dir/vd_fill"} {
				if _, ok := cold.Gauges[g]; !ok {
					t.Fatalf("the job's snapshot has no %s gauge", g)
				}
			}
			if !reflect.DeepEqual(pooled, cold) {
				t.Fatalf("the pooled run's metrics differ from the cold run's:\ncold   %+v\npooled %+v", cold, pooled)
			}
		})
	}
}

// TestLeaderboardHonoursBootstrapSettings runs a leaderboard at confidence
// 0.95 and 200 resamples, in-process and as a fleet job, and requires every
// row to carry exactly the verdict a leak job of the same settings reports
// for that cell — its auc_lo/auc_hi interval and confidence included. A
// leaderboard is the leak report plus cost columns, so it may not quietly
// fall back to the default bootstrap.
func TestLeaderboardHonoursBootstrapSettings(t *testing.T) {
	sweep := JobSpec{
		Configs:      []string{"skylake-unfixed", "secdir"},
		Strategies:   []string{"primeprobe"},
		Trials:       40,
		Rounds:       16,
		Seed:         7,
		Confidence:   0.95,
		Resamples:    200,
		PerfAccesses: 20_000,
	}
	as := func(kind JobKind) JobSpec {
		spec := sweep
		spec.Kind = kind
		return spec
	}
	rep := runSpec(t, as(KindLeak)).(*leakage.Report)

	// The settings must matter for the check to mean anything: the
	// baseline cell's interval at the defaults is a different one.
	def := as(KindLeak)
	def.Confidence, def.Resamples = 0, 0
	if d := runSpec(t, def).(*leakage.Report).Verdicts[0]; d.AUCLo == rep.Verdicts[0].AUCLo && d.AUCHi == rep.Verdicts[0].AUCHi {
		t.Fatalf("baseline interval [%v,%v] is the same at the default bootstrap; the test cannot tell the settings apart", d.AUCLo, d.AUCHi)
	}

	w := newTestServer(t, quickConfig())
	co := newTestServer(t, quickConfig())
	co.srv.AttachFleet(fleet.New(fleet.Config{Workers: []string{w.ts.URL}, Metrics: co.reg}))
	fleetSpec := as(KindLeaderboard)
	fleetSpec.Fleet = true
	st := co.submit(t, fleetSpec, 0)
	co.waitState(t, st.ID, StateDone, 120*time.Second)
	var fleetRes struct {
		Result leakage.Leaderboard `json:"result"`
	}
	co.getResult(t, st.ID, &fleetRes)

	for path, lb := range map[string]*leakage.Leaderboard{
		"server.Run": runSpec(t, as(KindLeaderboard)).(*leakage.Leaderboard),
		"fleet job":  &fleetRes.Result,
	} {
		if len(lb.Rows) != len(rep.Verdicts) {
			t.Fatalf("%s: %d leaderboard rows, want %d", path, len(lb.Rows), len(rep.Verdicts))
		}
		for i, row := range lb.Rows {
			if v := rep.Verdicts[i]; row.Verdict != v {
				t.Errorf("%s: %s/%s auc [%v,%v] at %v, want the leak report's [%v,%v] at %v",
					path, row.Config, row.Strategy, row.AUCLo, row.AUCHi, row.Confidence, v.AUCLo, v.AUCHi, v.Confidence)
			}
		}
	}
}
