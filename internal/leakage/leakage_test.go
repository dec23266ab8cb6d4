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
