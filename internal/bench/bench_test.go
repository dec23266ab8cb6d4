package bench

import (
	"fmt"
	"math"
	"path/filepath"
	"testing"

	"secdir/internal/cachesim"
	"secdir/internal/coherence"
	"secdir/internal/config"
	"secdir/internal/trace"
)

// BenchmarkAccess wraps the harness's baseline-engine microbenchmark.
func BenchmarkAccess(b *testing.B) { Access(b) }

// BenchmarkSecDirLookup wraps the harness's slice-lookup microbenchmark.
func BenchmarkSecDirLookup(b *testing.B) { SecDirLookup(b) }

// BenchmarkCuckooInsert wraps the harness's VD-insert microbenchmark.
func BenchmarkCuckooInsert(b *testing.B) { CuckooInsert(b) }

// BenchmarkCachePolicies runs the per-policy probe+fill microbenchmark for
// every replacement policy the cache supports.
func BenchmarkCachePolicies(b *testing.B) {
	for _, p := range []cachesim.Policy{cachesim.LRU, cachesim.Random, cachesim.SRRIP, cachesim.PLRU} {
		b.Run(p.String(), CachePolicy(p))
	}
}

// BenchmarkEngineMixed wraps the harness's SecDir-engine microbenchmark. The
// acceptance invariant — 0 allocs/op in steady state — is asserted by
// TestEngineMixedAllocFree so it fails fast in `go test` runs too.
func BenchmarkEngineMixed(b *testing.B) { EngineMixed(b) }

// BenchmarkDefenses runs the steady-state access path of every rival defense
// of the cross-defense leaderboard.
func BenchmarkDefenses(b *testing.B) {
	for _, d := range DefenseConfigs() {
		b.Run(d.Name, Defense(d.Config))
	}
}

// TestEngineMixedAllocFree pins the allocation-free hot-path invariant: after
// warmup, Engine.Access performs zero heap allocations per access on every
// design the leaderboard races.
func TestEngineMixedAllocFree(t *testing.T) {
	cases := []struct {
		name string
		cfg  config.Config
	}{
		{"skylake", config.SkylakeX(8)},
		{"secdir", config.SecDirConfig(8)},
	}
	for _, d := range DefenseConfigs() {
		cases = append(cases, struct {
			name string
			cfg  config.Config
		}{d.Name, d.Config})
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			e, err := coherence.NewEngine(tc.cfg)
			if err != nil {
				t.Fatal(err)
			}
			gen := trace.NewUniform(1<<24, 64<<10, 0.25, 0, 7)
			for i := 0; i < warmupAccesses; i++ {
				a := gen.Next()
				e.Access(i&7, a.Line, a.Write)
			}
			i := 0
			avg := testing.AllocsPerRun(5000, func() {
				a := gen.Next()
				e.Access(i&7, a.Line, a.Write)
				i++
			})
			if avg != 0 {
				t.Fatalf("steady-state Access allocates %.3f allocs/op, want 0", avg)
			}
		})
	}
}

// TestCompareSelf: a report compared against itself has no regressions — the
// invariant the CI bench job relies on for a freshly refreshed baseline.
func TestCompareSelf(t *testing.T) {
	r := &Report{
		Schema: Schema,
		Micro: []MicroResult{
			{Name: "EngineMixed", NsPerOp: 120, AllocsPerOp: 0, BytesPerOp: 0},
			{Name: "CuckooInsert", NsPerOp: 45.5, AllocsPerOp: 0},
		},
		Workloads: []WorkloadResult{{Name: "specmix2/secdir", NsPerAccess: 180}},
	}
	if reg := Regressions(Compare(r, r, 0.10)); len(reg) != 0 {
		t.Fatalf("self-comparison regressed: %v", reg)
	}
}

// TestCheckedInBaselinesSelfCompare: every BENCH_*.json committed at the
// repository root loads under the current schema — including reports that
// carry sections the harness no longer writes — and compares clean against
// itself, so any of them can serve as a CI baseline.
func TestCheckedInBaselinesSelfCompare(t *testing.T) {
	paths, err := filepath.Glob(filepath.Join("..", "..", "BENCH_*.json"))
	if err != nil {
		t.Fatal(err)
	}
	if len(paths) == 0 {
		t.Fatal("no checked-in BENCH_*.json found")
	}
	for _, p := range paths {
		r, err := Load(p)
		if err != nil {
			t.Fatal(err)
		}
		if len(r.Micro) == 0 || len(r.Workloads) == 0 {
			t.Errorf("%s: %d micro and %d workload rows, want both non-empty", p, len(r.Micro), len(r.Workloads))
		}
		if reg := Regressions(Compare(r, r, 0.10)); len(reg) != 0 {
			t.Errorf("%s: self-comparison regressed: %v", p, reg)
		}
	}
}

// TestCompareRegressions exercises the tolerance rules: time regressions past
// the tolerance fire, within-tolerance drift does not, and any allocation on
// a zero-alloc baseline fires regardless of tolerance.
func TestCompareRegressions(t *testing.T) {
	base := &Report{
		Schema: Schema,
		Micro: []MicroResult{
			{Name: "EngineMixed", NsPerOp: 100, AllocsPerOp: 0},
			{Name: "Access", NsPerOp: 100, AllocsPerOp: 4},
		},
		Workloads: []WorkloadResult{{Name: "wl", NsPerAccess: 100}},
	}
	cur := &Report{
		Schema: Schema,
		Micro: []MicroResult{
			{Name: "EngineMixed", NsPerOp: 108, AllocsPerOp: 1}, // ns within 10%, allocs 0->1
			{Name: "Access", NsPerOp: 125, AllocsPerOp: 3},      // ns +25%, allocs improved
		},
		Workloads: []WorkloadResult{{Name: "wl", NsPerAccess: 150}},
	}
	reg := Regressions(Compare(base, cur, 0.10))
	want := map[string]bool{
		"EngineMixed/allocs-op": true,
		"Access/ns-op":          true,
		"wl/ns-access":          true,
	}
	if len(reg) != len(want) {
		t.Fatalf("got %d regressions %v, want %d", len(reg), reg, len(want))
	}
	for _, d := range reg {
		if !want[d.Name] {
			t.Errorf("unexpected regression %v", d)
		}
		if math.IsNaN(d.Ratio) {
			t.Errorf("%s: NaN ratio", d.Name)
		}
	}
}

// TestReportRoundTrip: WriteFile/Load preserve the report, and FindBaseline
// picks the newest date.
func TestReportRoundTrip(t *testing.T) {
	dir := t.TempDir()
	old := &Report{Schema: Schema, Date: "2026-01-01", Micro: []MicroResult{{Name: "A", NsPerOp: 1}}}
	cur := &Report{
		Schema: Schema, Date: "2026-02-02", GoVersion: "go0.0", GOOS: "linux", GOARCH: "amd64",
		Micro:     []MicroResult{{Name: "A", NsPerOp: 2, AllocsPerOp: 3, BytesPerOp: 4}},
		Workloads: []WorkloadResult{{Name: "w", Accesses: 10, NsPerAccess: 5, MAccessesPerSec: 200}},
	}
	if err := old.WriteFile(filepath.Join(dir, "BENCH_2026-01-01.json")); err != nil {
		t.Fatal(err)
	}
	if err := cur.WriteFile(filepath.Join(dir, "BENCH_2026-02-02.json")); err != nil {
		t.Fatal(err)
	}
	path, err := FindBaseline(dir)
	if err != nil {
		t.Fatal(err)
	}
	if filepath.Base(path) != "BENCH_2026-02-02.json" {
		t.Fatalf("FindBaseline = %s, want the newest report", path)
	}
	got, err := Load(path)
	if err != nil {
		t.Fatal(err)
	}
	if got.Date != cur.Date || len(got.Micro) != 1 || got.Micro[0] != cur.Micro[0] ||
		len(got.Workloads) != 1 || got.Workloads[0] != cur.Workloads[0] {
		t.Fatalf("round trip mismatch: %+v", got)
	}
	if _, err := FindBaseline(t.TempDir()); err == nil {
		t.Fatal("FindBaseline on an empty dir should fail")
	}
}

// TestRunWorkloadContract checks the generic workload runner: best-of-reps
// timing over the closure's own access count, and error propagation.
func TestRunWorkloadContract(t *testing.T) {
	calls := 0
	res, err := runWorkload(workload{name: "synthetic", run: func() (uint64, error) {
		calls++
		return 1000, nil
	}})
	if err != nil {
		t.Fatal(err)
	}
	if calls != workloadReps {
		t.Errorf("run called %d times, want %d", calls, workloadReps)
	}
	if res.Name != "synthetic" || res.Accesses != 1000 || res.NsPerAccess < 0 {
		t.Errorf("unexpected result %+v", res)
	}
	if _, err := runWorkload(workload{name: "failing", run: func() (uint64, error) {
		return 0, fmt.Errorf("boom")
	}}); err == nil {
		t.Error("runWorkload swallowed the workload error")
	}
}

// TestLeakageTrialsWorkload runs the leakage-trials bench row once end to
// end: it must complete and report the trials' simulated access volume.
func TestLeakageTrialsWorkload(t *testing.T) {
	n, err := leakageTrials()
	if err != nil {
		t.Fatal(err)
	}
	if n == 0 {
		t.Fatal("leakage-trials reported zero simulated accesses")
	}
}
