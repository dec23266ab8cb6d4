// Package bench holds the microbenchmarks of the per-access hot paths —
// the coherence engine on every leaderboard design, the per-trial engine
// Reset, the SecDir slice Miss path, cuckoo VD insert/remove and the cache
// replacement policies — of one leakage trial per attack strategy, of the
// whole-machine invariant audit, of one short simulation on a pooled
// machine and of one small server job per kind, plus TestHotPathAllocFree,
// which pins the invariant the hot paths and the trial loop guard: after
// warmup, each of them performs zero heap allocations per operation.
//
// End-to-end and per-layer timings live in perfbench/; run these with
//
//	go test -run '^$' -bench . -benchmem ./internal/bench/
package bench

import (
	"context"
	"testing"

	"secdir/internal/addr"
	"secdir/internal/attack"
	"secdir/internal/cachesim"
	"secdir/internal/coherence"
	"secdir/internal/config"
	"secdir/internal/core"
	"secdir/internal/cuckoo"
	"secdir/internal/leakage"
	"secdir/internal/metrics"
	"secdir/internal/rng"
	"secdir/internal/server"
	"secdir/internal/sim"
	"secdir/internal/trace"
)

// warmupAccesses is how many accesses each engine benchmark performs before
// the timer starts, so fills, directory migrations and buffer growth settle
// and the measured loop sees only steady state.
const warmupAccesses = 200_000

// setupFunc builds one hot path's warmed-up state and returns its loop body;
// op(i) performs the i-th measured operation. A benchmark and its
// TestHotPathAllocFree case share the same setupFunc.
type setupFunc func(tb testing.TB) (op func(i int))

// design is one directory design of the cross-defense leaderboard at the
// benchmark core count.
type design struct {
	name string
	cfg  config.Config
}

// engineDesigns returns the designs the leaderboard races, in report order.
func engineDesigns() []design {
	return []design{
		{"skylake", config.SkylakeX(8)},
		{"secdir", config.SecDirConfig(8)},
		{"skewed", config.SkewedConfig(8)},
		{"dls", config.DLSConfig(8)},
		{"tagpart", config.TagPartConfig(8)},
		{"ceaser", config.CeaserConfig(8, 20_000)},
	}
}

// policies are the replacement policies the cache supports.
var policies = []cachesim.Policy{cachesim.LRU, cachesim.Random, cachesim.SRRIP, cachesim.PLRU}

// engineAccess is the engine's steady-state access path on a uniform mixed
// read/write working set larger than the private caches. On SecDir it
// exercises every Table 2 transition (fills, TD conflicts, VD migrations and
// consolidations); the same loop on every design keeps the rows comparable.
func engineAccess(cfg config.Config) setupFunc {
	return func(tb testing.TB) func(int) {
		_, op := warmEngine(tb, cfg)
		return op
	}
}

// warmEngine builds an engine for cfg and runs engineAccess's warm-up on
// it; op performs the loop's next access.
func warmEngine(tb testing.TB, cfg config.Config) (e *coherence.Engine, op func(int)) {
	e, err := coherence.NewEngine(cfg)
	if err != nil {
		tb.Fatal(err)
	}
	gen := trace.NewUniform(1<<24, 64<<10, 0.25, 0, 7)
	op = func(i int) {
		a := gen.Next()
		e.Access(i&7, a.Line, a.Write)
	}
	for i := 0; i < warmupAccesses; i++ {
		op(i)
	}
	return e, op
}

// checkInvariants is one whole-machine Engine.CheckInvariants audit of
// engineAccess's warm state, as perfbench's sim-specmix runs after every
// simulated run. The audit is off the per-access path and may allocate, so
// it is not a TestHotPathAllocFree case.
func checkInvariants(cfg config.Config) setupFunc {
	return func(tb testing.TB) func(int) {
		e, _ := warmEngine(tb, cfg)
		return func(int) {
			if err := e.CheckInvariants(); err != nil {
				tb.Fatal(err)
			}
		}
	}
}

// trialAccesses is about the accesses one leakage trial's attack makes
// between two engine resets.
const trialAccesses = 1536

// engineReset is the leakage trial loop's engine cost per access: accesses
// over a small footprint, with an Engine.Reset after every trialAccesses of
// them, as the trial runner resets its pooled engine between trials. Reset
// clears only the sets the burst dirtied, so its amortized share tracks the
// burst, not the machine's capacity.
func engineReset(cfg config.Config) setupFunc {
	return func(tb testing.TB) func(int) {
		e, err := coherence.NewEngine(cfg)
		if err != nil {
			tb.Fatal(err)
		}
		gen := trace.NewUniform(1<<24, 2048, 0.25, 0, 7)
		op := func(i int) {
			a := gen.Next()
			e.Access(i&7, a.Line, a.Write)
			if i%trialAccesses == trialAccesses-1 {
				if err := e.Reset(int64(i)); err != nil {
					tb.Fatal(err)
				}
			}
		}
		for i := 0; i < trialAccesses; i++ {
			op(i)
		}
		return op
	}
}

// leakTrial is one leakage trial as a trial worker runs it on its warm
// engine: Engine.Reset to the trial's seed, Driver.Rearm, and
// leakage.DefaultRounds attack rounds, the victim active on alternate
// rounds. The driver is mounted once, with the trial runner's geometry
// (victim on core 0, every other core attacking the first T0 line), and one
// trial runs before the loop. lines sizes the conflict set (0 is the
// strategy's default).
func leakTrial(s leakage.Strategy, cfg config.Config, lines int) setupFunc {
	return func(tb testing.TB) func(int) {
		e, err := coherence.NewEngine(cfg)
		if err != nil {
			tb.Fatal(err)
		}
		p := attack.Params{Victim: 0, Target: trace.T0Lines()[0], EvictionLines: lines}
		for c := 1; c < cfg.Cores; c++ {
			p.Attackers = append(p.Attackers, c)
		}
		d, err := s.NewDriver(e, p)
		if err != nil {
			tb.Fatal(err)
		}
		op := func(i int) {
			if err := e.Reset(int64(i) + 1); err != nil {
				tb.Fatal(err)
			}
			d.Rearm()
			attack.ForEachRound(d, leakage.DefaultRounds, nil, nil)
		}
		op(0)
		return op
	}
}

// secDirLookup is a single SecDir slice's Miss path — ED/TD probes plus the
// batched VD search of §5.1 — without the surrounding engine.
func secDirLookup(tb testing.TB) func(int) {
	cfg := config.SecDirConfig(8)
	s := core.New(core.Params{
		Cores:  cfg.Cores,
		TDSets: cfg.TDSets, TDWays: cfg.TDWays,
		EDSets: cfg.EDSets, EDWays: cfg.EDWays,
		VDSets: cfg.VDSets, VDWays: cfg.VDWays,
		NumRelocations: cfg.NumRelocations,
		Cuckoo:         cfg.VDCuckoo,
		EmptyBit:       cfg.VDEmptyBit,
		Index:          cachesim.ModIndex(cfg.TDSets),
		AppendixAFix:   cfg.AppendixAFix,
		Seed:           1,
	})
	// Populate well past the ED+TD capacity so look-ups hit a mix of ED, TD,
	// VD and memory, and TD conflicts migrate entries into the VDs.
	const lines = 1 << 14
	for i := 0; i < lines; i++ {
		s.Miss(i&7, addr.Line(1<<20+i), false)
	}
	return func(i int) {
		s.Miss(i&7, addr.Line(1<<20+i&(lines-1)), false)
	}
}

// cuckooInsert is a VD bank insert/remove cycle at full occupancy, where
// every insertion walks a relocation chain (Appendix B).
func cuckooInsert(tb testing.TB) func(int) {
	cfg := config.SecDirConfig(8)
	t := cuckoo.New(cuckoo.Config{
		Sets:           cfg.VDSets,
		Ways:           cfg.VDWays,
		NumRelocations: cfg.NumRelocations,
		Cuckoo:         true,
		Seed:           1,
	})
	// Twice the capacity: half the inserts displace a live entry.
	lines := 2 * t.Capacity()
	for i := 0; i < lines; i++ {
		t.Insert(addr.Line(i))
	}
	return func(i int) {
		l := addr.Line(i % lines)
		if _, evicted := t.Insert(l); !evicted {
			t.Remove(l)
		}
	}
}

// cachePolicy is a probe+fill on a standalone L2-shaped cache (1024 sets ×
// 16 ways), uniform over four times its capacity so roughly three quarters
// of probes miss and fill. It isolates the tag-scan and victim-selection
// cost that every simulated access pays, per policy.
func cachePolicy(policy cachesim.Policy) setupFunc {
	return func(tb testing.TB) func(int) {
		const sets, ways = 1024, 16
		const footprint = 4 * sets * ways // lines; power of two
		c := cachesim.New[struct{}](sets, ways, cachesim.ModIndex(sets), policy, 1)
		r := rng.New(42)
		for i := 0; i < 2*footprint; i++ {
			c.Put(addr.Line(r.Uint64()&(footprint-1)), struct{}{})
		}
		return func(int) {
			l := addr.Line(r.Uint64() & (footprint - 1))
			if _, ok := c.Access(l); !ok {
				c.Put(l, struct{}{})
			}
		}
	}
}

// measure times op over b.N operations after setup.
func measure(b *testing.B, setup setupFunc) {
	op := setup(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		op(i)
	}
}

// BenchmarkEngineAccess times Engine.Access on every leaderboard design.
func BenchmarkEngineAccess(b *testing.B) {
	for _, d := range engineDesigns() {
		b.Run(d.name, func(b *testing.B) { measure(b, engineAccess(d.cfg)) })
	}
}

// BenchmarkEngineReset times the per-access cost of trial-sized access
// bursts separated by Engine.Reset, on every leaderboard design.
func BenchmarkEngineReset(b *testing.B) {
	for _, d := range engineDesigns() {
		b.Run(d.name, func(b *testing.B) { measure(b, engineReset(d.cfg)) })
	}
}

// BenchmarkCheckInvariants times the coherence audit on every leaderboard
// design.
func BenchmarkCheckInvariants(b *testing.B) {
	for _, d := range engineDesigns() {
		b.Run(d.name, func(b *testing.B) { measure(b, checkInvariants(d.cfg)) })
	}
}

// simRunAccesses is the per-core warm-up and measured length of one
// BenchmarkSimRun operation: short, so a one-iteration smoke run stays fast.
const simRunAccesses = 2000

// simRun is one whole simulation as the experiments and the job server run
// it: sim.New, RunContext over SPEC mix 2 and Close. The pool is warmed by
// one run first, so the loop measures runs on a reused machine.
func simRun(b *testing.B, cfg config.Config) {
	run := func() {
		b.StopTimer()
		w, err := trace.NewSpecMix(2, cfg.Cores, 1)
		if err != nil {
			b.Fatal(err)
		}
		b.StartTimer()
		r, err := sim.New(sim.Options{Config: cfg, Work: w, WarmupAccesses: simRunAccesses, MeasureAccesses: simRunAccesses})
		if err != nil {
			b.Fatal(err)
		}
		if _, err := r.RunContext(context.Background()); err != nil {
			b.Fatal(err)
		}
		r.Close()
	}
	run()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		run()
	}
}

// BenchmarkSimRun times New → RunContext → Close on every leaderboard
// design.
func BenchmarkSimRun(b *testing.B) {
	for _, d := range engineDesigns() {
		b.Run(d.name, func(b *testing.B) { simRun(b, d.cfg) })
	}
}

// jobRun is one job as a server worker runs it: server.Run with a fresh
// registry, as runJob gives every job. One job runs first to warm the
// engine pool, so the loop measures jobs on reused machines.
func jobRun(b *testing.B, spec server.JobSpec) {
	if err := spec.Normalize(); err != nil {
		b.Fatal(err)
	}
	run := func() {
		if _, err := server.Run(context.Background(), spec, metrics.New(), nil); err != nil {
			b.Fatal(err)
		}
	}
	run()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		run()
	}
}

// BenchmarkJob times one small job of each simulating kind: a SPEC mix 2
// replay on SecDir, the attack suite on both designs and the S1 experiment.
func BenchmarkJob(b *testing.B) {
	for _, spec := range []server.JobSpec{
		{Kind: server.KindReplay, Design: "secdir", Workload: "mix2", Warmup: 2000, Measure: 2000},
		{Kind: server.KindAttack, Design: "both", Rounds: 6},
		{Kind: server.KindExperiment, Experiments: []string{"S1"}},
	} {
		b.Run(string(spec.Kind), func(b *testing.B) { jobRun(b, spec) })
	}
}

// BenchmarkTrial times one leakage trial per strategy, at its default
// conflict-set size, on the unfixed Skylake-X baseline and on SecDir.
func BenchmarkTrial(b *testing.B) {
	for _, s := range leakage.Strategies() {
		for _, d := range engineDesigns()[:2] {
			b.Run(s.Name()+"/"+d.name, func(b *testing.B) { measure(b, leakTrial(s, d.cfg, 0)) })
		}
	}
}

// BenchmarkSecDirLookup times the SecDir slice Miss path.
func BenchmarkSecDirLookup(b *testing.B) { measure(b, secDirLookup) }

// BenchmarkCuckooInsert times VD bank insert/remove at full occupancy.
func BenchmarkCuckooInsert(b *testing.B) { measure(b, cuckooInsert) }

// BenchmarkCachePolicies times probe+fill for every replacement policy.
func BenchmarkCachePolicies(b *testing.B) {
	for _, p := range policies {
		b.Run(p.String(), func(b *testing.B) { measure(b, cachePolicy(p)) })
	}
}

// TestHotPathAllocFree pins the allocation-free hot-path invariant: after
// warmup, every microbenchmark's loop body performs zero heap allocations
// per operation. Each case is named after its benchmark.
func TestHotPathAllocFree(t *testing.T) {
	type hotPath struct {
		name  string
		setup setupFunc
		batch int // operations measured (default 5000)
	}
	var cases []hotPath
	for _, d := range engineDesigns() {
		cases = append(cases, hotPath{name: "EngineAccess/" + d.name, setup: engineAccess(d.cfg)})
	}
	// Only the SecDir and Baseline slices reset in place; Reset drops the
	// rival designs' slice objects, to be rebuilt on first use, by design.
	for _, d := range engineDesigns()[:2] {
		cases = append(cases, hotPath{name: "EngineReset/" + d.name, setup: engineReset(d.cfg)})
	}
	// One case per strategy on the baseline: a whole trial per operation,
	// so fewer of them, and a small flood.
	base := engineDesigns()[0]
	for _, s := range leakage.Strategies() {
		lines := 0
		if s.Name() == "floodreload" {
			lines = 1000
		}
		cases = append(cases, hotPath{name: "Trial/" + s.Name() + "/" + base.name, setup: leakTrial(s, base.cfg, lines), batch: 20})
	}
	cases = append(cases, hotPath{name: "SecDirLookup", setup: secDirLookup}, hotPath{name: "CuckooInsert", setup: cuckooInsert})
	for _, p := range policies {
		cases = append(cases, hotPath{name: "CachePolicies/" + p.String(), setup: cachePolicy(p)})
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			op := tc.setup(t)
			i := 0
			// AllocsPerRun averages with integer division, which would hide
			// an allocation made on fewer than every operation; one run of
			// a whole batch reports the batch's total instead.
			batch := tc.batch
			if batch == 0 {
				batch = 5000
			}
			n := testing.AllocsPerRun(1, func() {
				for k := 0; k < batch; k++ {
					op(i)
					i++
				}
			})
			if n != 0 {
				t.Fatalf("%s made %.0f heap allocations in %d operations after warmup, want 0", tc.name, n, batch)
			}
		})
	}
}
