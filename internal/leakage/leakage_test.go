package leakage

import (
	"context"
	"math"
	"strings"
	"testing"

	"secdir/internal/metrics"
)

// testOptions returns small-but-decisive options for one cell.
func testOptions(t *testing.T, cfgName, strategy string) Options {
	t.Helper()
	cfg, err := ParseConfig(cfgName, 8)
	if err != nil {
		t.Fatal(err)
	}
	s, err := ParseStrategy(strategy)
	if err != nil {
		t.Fatal(err)
	}
	return Options{
		Config:     cfg,
		ConfigName: cfgName,
		Strategy:   s,
		Trials:     100,
		Rounds:     64,
		Seed:       7,
	}
}

// TestBaselineLeaksSecDirDoesNot is the subsystem's reason to exist: the
// unfixed Skylake-X directory must register a TVLA leak under prime+probe and
// evict+reload, and SecDir must not — with the capacity estimate agreeing
// (clearly positive vs. ≈0 bits).
func TestBaselineLeaksSecDirDoesNot(t *testing.T) {
	for _, strategy := range []string{"primeprobe", "evictreload"} {
		base, err := Run(context.Background(), testOptions(t, "skylake-unfixed", strategy))
		if err != nil {
			t.Fatal(err)
		}
		if !base.Leak || math.Abs(base.TStat) <= TVLAThreshold {
			t.Errorf("skylake-unfixed/%s: |t|=%.2f, want a TVLA leak", strategy, math.Abs(base.TStat))
		}
		if base.CapacityBits <= 0.05 {
			t.Errorf("skylake-unfixed/%s: capacity %.3f bits, want clearly positive", strategy, base.CapacityBits)
		}

		sec, err := Run(context.Background(), testOptions(t, "secdir", strategy))
		if err != nil {
			t.Fatal(err)
		}
		if sec.Leak || math.Abs(sec.TStat) > TVLAThreshold {
			t.Errorf("secdir/%s: |t|=%.2f, want no TVLA leak", strategy, math.Abs(sec.TStat))
		}
		if sec.CapacityBits > 0.05 {
			t.Errorf("secdir/%s: capacity %.3f bits, want ≈0", strategy, sec.CapacityBits)
		}
	}
}

// TestDeterminism checks that a fixed seed pins the verdict bit-for-bit, and
// that the worker fan-out only changes scheduling, never results.
func TestDeterminism(t *testing.T) {
	o := testOptions(t, "skylake-unfixed", "primeprobe")
	o.Trials = 40

	o.Workers = 1
	v1, err := Run(context.Background(), o)
	if err != nil {
		t.Fatal(err)
	}
	o.Workers = 8
	v8, err := Run(context.Background(), o)
	if err != nil {
		t.Fatal(err)
	}
	o.Workers = 8
	v8b, err := Run(context.Background(), o)
	if err != nil {
		t.Fatal(err)
	}
	if v1 != v8 {
		t.Errorf("verdict depends on worker count:\n 1: %+v\n 8: %+v", v1, v8)
	}
	if v8 != v8b {
		t.Errorf("verdict not reproducible under a fixed seed:\n a: %+v\n b: %+v", v8, v8b)
	}
}

// TestSeedSensitivity checks the trials are genuinely re-randomized: a
// different master seed must change the raw statistics (while the qualitative
// verdict holds).
func TestSeedSensitivity(t *testing.T) {
	o := testOptions(t, "skylake-unfixed", "primeprobe")
	a, err := Run(context.Background(), o)
	if err != nil {
		t.Fatal(err)
	}
	o.Seed = 99
	b, err := Run(context.Background(), o)
	if err != nil {
		t.Fatal(err)
	}
	if a.TStat == b.TStat && a.ActiveMean == b.ActiveMean {
		t.Errorf("seeds 7 and 99 produced identical statistics %+v — trials not reseeded", a)
	}
	if !a.Leak || !b.Leak {
		t.Errorf("baseline leak verdict should survive reseeding: %v / %v", a.Leak, b.Leak)
	}
}

// TestMonitorEvictionLines checks that the monitor strategy sizes its
// eviction set from Options.EvictionLines like the other targeted attacks:
// the cell's access count must follow the override, and the default must
// stay 32 lines. An 8-line set cannot fill a 23-entry directory set, so it
// no longer evicts in every window and the idle mean leaves zero.
func TestMonitorEvictionLines(t *testing.T) {
	o := testOptions(t, "skylake-unfixed", "monitor")
	o.Trials, o.Rounds, o.Seed = 20, 8, 3
	accesses := map[int]uint64{}
	var small Verdict
	for _, lines := range []int{0, 8, 32, 64} {
		o.EvictionLines = lines
		v, err := Run(context.Background(), o)
		if err != nil {
			t.Fatal(err)
		}
		accesses[lines] = v.Accesses
		if lines == 8 {
			small = v
		}
	}
	if accesses[0] != accesses[32] {
		t.Errorf("default monitor cell made %d accesses, the 32-line one %d", accesses[0], accesses[32])
	}
	if accesses[8] >= accesses[32] || accesses[32] >= accesses[64] {
		t.Errorf("monitor accesses do not grow with the eviction set: 8 lines %d, 32 lines %d, 64 lines %d",
			accesses[8], accesses[32], accesses[64])
	}
	if small.IdleMean == 0 {
		t.Errorf("an 8-line monitor evicted in every idle window: %s", small)
	}
}

// TestCancellation checks the trial runner honors context cancellation
// instead of finishing the full Monte-Carlo run.
func TestCancellation(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	o := testOptions(t, "skylake-unfixed", "primeprobe")
	o.Trials = 10_000 // would take far too long if cancellation were ignored
	if _, err := Run(ctx, o); err == nil {
		t.Fatal("Run returned nil error under a canceled context")
	}
}

// TestMetricsAndProgress checks the runner's observability: trial counters
// and the latency histogram land in the registry, and progress callbacks
// arrive monotonically, ending at the full trial count.
func TestMetricsAndProgress(t *testing.T) {
	reg := metrics.New()
	o := testOptions(t, "secdir", "evictreload")
	o.Trials = 30
	o.Workers = 1 // single worker makes the progress sequence strictly ordered
	o.Metrics = reg
	var calls []int
	o.Progress = func(done, total int) {
		if total != 30 {
			t.Errorf("progress total = %d, want 30", total)
		}
		calls = append(calls, done)
	}
	if _, err := Run(context.Background(), o); err != nil {
		t.Fatal(err)
	}
	if got := reg.Counter("leakage/trials_total").Value(); got != 30 {
		t.Errorf("leakage/trials_total = %d, want 30", got)
	}
	if got := reg.Histogram("leakage/trial_micros").N(); got != 30 {
		t.Errorf("leakage/trial_micros observations = %d, want 30", got)
	}
	if len(calls) == 0 || calls[len(calls)-1] != 30 {
		t.Fatalf("progress calls %v, want a final done=30", calls)
	}
	for i := 1; i < len(calls); i++ {
		if calls[i] <= calls[i-1] {
			t.Errorf("progress not monotonic: %v", calls)
		}
	}
}

// TestRunReport sweeps a small configs×strategies grid and checks shape,
// labeling, lookup, and the text rendering's verdict column.
func TestRunReport(t *testing.T) {
	strategies, err := ParseStrategyList("primeprobe,evictreload")
	if err != nil {
		t.Fatal(err)
	}
	rep, err := RunReport(context.Background(), ReportOptions{
		Configs:    []string{"skylake-unfixed", "secdir"},
		Strategies: strategies,
		Trials:     100,
		Rounds:     64,
		Seed:       7,
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Verdicts) != 4 {
		t.Fatalf("got %d verdicts, want 4", len(rep.Verdicts))
	}
	v, ok := rep.Find("skylake-unfixed", "evictreload")
	if !ok || !v.Leak {
		t.Errorf("skylake-unfixed/evictreload: ok=%v leak=%v, want a leak", ok, v.Leak)
	}
	if v, ok := rep.Find("secdir", "evictreload"); !ok || v.Leak {
		t.Errorf("secdir/evictreload: ok=%v leak=%v, want no leak", ok, v.Leak)
	}
	if got := len(rep.Leaks()); got != 2 {
		t.Errorf("Leaks() = %d cells, want 2 (both skylake-unfixed cells)", got)
	}
	text := rep.Text()
	if !strings.Contains(text, "LEAK") || !strings.Contains(text, "NO-LEAK") {
		t.Errorf("Text() missing verdict column:\n%s", text)
	}
}

// TestPlan: a sweep that names nothing plans ConfigNames × DefaultSuite on 8
// cores in row-major order, every cell carrying the normalized per-cell
// defaults; named configs and strategies keep their order.
func TestPlan(t *testing.T) {
	cells, err := ReportOptions{}.Plan()
	if err != nil {
		t.Fatal(err)
	}
	suite := DefaultSuite()
	if len(cells) != len(ConfigNames)*len(suite) {
		t.Fatalf("default plan has %d cells, want %d", len(cells), len(ConfigNames)*len(suite))
	}
	for i, c := range cells {
		want := ConfigNames[i/len(suite)] + "/" + suite[i%len(suite)].Name()
		if c.Stage() != want || c.Config.Cores != 8 || c.Trials != DefaultTrials || c.Rounds != DefaultRounds ||
			c.Confidence != DefaultConfidence || c.Resamples != DefaultResamples || c.Seed != 1 {
			t.Errorf("cell %d = %s on %d cores, %d trials x %d rounds, %v/%d bootstrap, seed %d; want %s with the defaults",
				i, c.Stage(), c.Config.Cores, c.Trials, c.Rounds, c.Confidence, c.Resamples, c.Seed, want)
		}
	}
	ss, err := ParseStrategyList("evictreload,primeprobe")
	if err != nil {
		t.Fatal(err)
	}
	cells, err = ReportOptions{Configs: []string{"secdir", "dls"}, Strategies: ss, Cores: 4, Rounds: 5}.Plan()
	if err != nil {
		t.Fatal(err)
	}
	var got []string
	for _, c := range cells {
		got = append(got, c.Stage())
		if c.Config.Cores != 4 || c.Rounds != 6 {
			t.Errorf("%s: %d cores, %d rounds; want 4 cores and rounds forced even to 6", c.Stage(), c.Config.Cores, c.Rounds)
		}
	}
	if want := "secdir/evictreload,secdir/primeprobe,dls/evictreload,dls/primeprobe"; strings.Join(got, ",") != want {
		t.Errorf("plan order %v, want %s", got, want)
	}
	if _, err := (ReportOptions{Configs: []string{"nosuch"}}).Plan(); err == nil {
		t.Error("Plan accepted an unknown config")
	}
}

// TestRunReportGridProgress: RunReport counts progress over the whole grid —
// each cell's trials offset by its index, against cells × trials — so done
// never falls back between cells.
func TestRunReportGridProgress(t *testing.T) {
	ss, err := ParseStrategyList("evictreload")
	if err != nil {
		t.Fatal(err)
	}
	type event struct {
		stage       string
		done, total int
	}
	var events []event
	_, err = RunReport(context.Background(), ReportOptions{
		Configs:    []string{"skylake-unfixed", "secdir"},
		Strategies: ss,
		Trials:     10,
		Rounds:     4,
		Workers:    1,
		Progress:   func(stage string, done, total int) { events = append(events, event{stage, done, total}) },
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(events) == 0 || events[len(events)-1] != (event{"secdir/evictreload", 20, 20}) {
		t.Fatalf("progress %v, want it to end at secdir/evictreload 20/20", events)
	}
	for i, e := range events {
		first := e.stage == "skylake-unfixed/evictreload"
		if e.total != 20 || (first && e.done > 10) || (!first && e.done <= 10) || (i > 0 && e.done <= events[i-1].done) {
			t.Fatalf("progress event %d %+v out of the grid-wide sequence: %v", i, e, events)
		}
	}
}

// TestParsing covers the name-resolution helpers the CLI and server rely on.
func TestParsing(t *testing.T) {
	if _, err := ParseStrategy("nosuch"); err == nil {
		t.Error("ParseStrategy accepted an unknown name")
	}
	if _, err := ParseConfig("nosuch", 8); err == nil {
		t.Error("ParseConfig accepted an unknown name")
	}
	trio, err := ParseConfigList("", 8)
	if err != nil || len(trio) != len(ConfigNames) {
		t.Errorf("ParseConfigList(\"\") = %v, %v", trio, err)
	}
	all, err := ParseConfigList("all", 8)
	if err != nil || len(all) != len(AllConfigNames()) {
		t.Errorf("ParseConfigList(all) = %v, %v — want the trio plus every rival", all, err)
	}
	for _, n := range all {
		if _, err := ParseConfig(n, 8); err != nil {
			t.Errorf("ParseConfig(%q): %v", n, err)
		}
	}
	if _, err := ParseConfigList("secdir,nosuch", 8); err == nil {
		t.Error("ParseConfigList accepted an unknown name")
	}
	if names, err := ParseConfigList(" , ", 8); err == nil {
		t.Errorf("ParseConfigList accepted a list of no names: %v", names)
	}
	suite, err := ParseStrategyList("suite")
	if err != nil || len(suite) != 4 {
		t.Errorf("ParseStrategyList(suite) = %v, %v", StrategyNames(suite), err)
	}
	everything, err := ParseStrategyList("all")
	if err != nil || len(everything) != 5 {
		t.Errorf("ParseStrategyList(all) = %v, %v", StrategyNames(everything), err)
	}
	dup, err := ParseStrategyList("monitor, monitor,primeprobe")
	if err != nil || len(dup) != 2 || dup[0].Name() != "monitor" {
		t.Errorf("ParseStrategyList dedup = %v, %v", StrategyNames(dup), err)
	}
}

// TestEnginePoolWorkerInvariance pins the per-worker engine pool against the
// fleet's core determinism contract: the same measurement run with 1, 2 and 5
// workers — each worker resetting one pooled engine across the trials it
// happens to claim — must produce identical verdicts.
func TestEnginePoolWorkerInvariance(t *testing.T) {
	t.Run("serial", func(t *testing.T) {
		cfg, err := ParseConfig("secdir", 4)
		if err != nil {
			t.Fatal(err)
		}
		strat, err := ParseStrategy("primeprobe")
		if err != nil {
			t.Fatal(err)
		}
		base := Options{
			Config:     cfg,
			ConfigName: "secdir",
			Strategy:   strat,
			Trials:     24,
			Rounds:     4,
			Seed:       99,
			Resamples:  50,
		}
		var want Verdict
		for i, workers := range []int{1, 2, 5} {
			o := base
			o.Workers = workers
			v, err := Run(context.Background(), o)
			if err != nil {
				t.Fatal(err)
			}
			if i == 0 {
				want = v
			} else if v != want {
				t.Fatalf("workers=%d verdict diverged:\nwant %+v\ngot  %+v", workers, want, v)
			}
		}
	})
}
