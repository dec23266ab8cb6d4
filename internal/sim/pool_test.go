package sim

import (
	"context"
	"errors"
	"reflect"
	"runtime"
	"testing"

	"secdir/internal/addr"
	"secdir/internal/coherence"
	"secdir/internal/config"
	"secdir/internal/metrics"
	"secdir/internal/trace"
)

// specOpts is a short SPEC-mix run at the configuration's core count.
func specOpts(t *testing.T, cfg config.Config, mix int) Options {
	t.Helper()
	w, err := trace.NewSpecMix(mix, cfg.Cores, cfg.Seed)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { w.Close() })
	return Options{Config: cfg, Work: w, WarmupAccesses: 3000, MeasureAccesses: 3000}
}

// shadowOpts is a short run of a different workload over the address
// regions of SPEC mix 2 at seed: mix 4's apps, drawn with another seed, on
// mix 2's instances. State a pooled engine failed to reset would meet the
// lines a later mix-2 run touches.
func shadowOpts(t *testing.T, cfg config.Config, seed int64) Options {
	t.Helper()
	w := trace.Workload{Name: "shadow", Gens: make([]trace.Generator, cfg.Cores)}
	for c := range w.Gens {
		app := trace.SpecMixes[4][c*2/cfg.Cores]
		g, err := trace.NewSpecApp(app, 2*cfg.Cores+c, seed+int64(c))
		if err != nil {
			t.Fatal(err)
		}
		w.Gens[c] = g
	}
	return Options{Config: cfg.WithSeed(seed), Work: w, WarmupAccesses: 3000, MeasureAccesses: 3000}
}

// auditedRun runs r to completion, audits its machine and closes it.
func auditedRun(t *testing.T, r *Runner) Result {
	t.Helper()
	res, err := r.RunContext(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if err := r.Engine.CheckInvariants(); err != nil {
		t.Fatalf("coherence invariants: %v", err)
	}
	r.Close()
	return res
}

// TestPooledRunMatchesFresh: a run on a pooled engine, which a run with a
// different seed and workload used and released, gives the same Result as
// a run on a freshly built engine, for every design. In the cancelled case
// the first run stops mid-way through its measured phase, leaving the
// engine in the middle of a workload.
func TestPooledRunMatchesFresh(t *testing.T) {
	defer coherence.DropIdleEngines()
	type tc struct {
		name   string
		cancel bool
	}
	var cases []tc
	for _, name := range config.Names() {
		cases = append(cases, tc{name: name})
	}
	cases = append(cases, tc{name: "secdir", cancel: true})
	for _, c := range cases {
		label := c.name
		if c.cancel {
			label += "-cancelled"
		}
		t.Run(label, func(t *testing.T) {
			cfg, err := config.ByName(c.name, 4)
			if err != nil {
				t.Fatal(err)
			}
			coherence.DropIdleEngines()

			first := shadowOpts(t, cfg, 41)
			ctx, cancel := context.WithCancel(context.Background())
			defer cancel()
			if c.cancel {
				var seen int
				first.Observer = func(int, uint64, addr.Line, bool, coherence.AccessResult) {
					if seen++; seen == 5000 {
						cancel()
					}
				}
			}
			r, err := New(first)
			if err != nil {
				t.Fatal(err)
			}
			used := r.Engine
			_, err = r.RunContext(ctx)
			if c.cancel != errors.Is(err, context.Canceled) {
				t.Fatalf("first run: error %v, cancelled %v", err, c.cancel)
			}
			r.Close()

			second := specOpts(t, cfg.WithSeed(5), 2)
			if r, err = New(second); err != nil {
				t.Fatal(err)
			}
			if r.Engine != used {
				t.Fatal("the second run did not reuse the released engine")
			}
			pooled := auditedRun(t, r)

			e, err := coherence.NewEngine(second.Config)
			if err != nil {
				t.Fatal(err)
			}
			fresh := auditedRun(t, &Runner{Engine: e, opts: specOpts(t, cfg.WithSeed(5), 2)})
			if !reflect.DeepEqual(pooled, fresh) {
				t.Fatalf("pooled run diverged from a fresh engine:\nfresh  %+v\npooled %+v", fresh, pooled)
			}
		})
	}
}

// TestCloseReleasesOnce: Close hands the engine to the pool once and sets
// r.Engine to nil, so a second Close is a no-op. A runner with metrics
// takes its engine from the pool and hands it back the same way, with the
// registry's occupancy gauges set.
func TestCloseReleasesOnce(t *testing.T) {
	coherence.DropIdleEngines()
	defer coherence.DropIdleEngines()
	r, err := New(Options{Config: smallCfg(), Work: uniformWork(4, 1), MeasureAccesses: 500})
	if err != nil {
		t.Fatal(err)
	}
	used := r.Engine
	r.Run()
	r.Close()
	if r.Engine != nil {
		t.Fatal("r.Engine is still set after Close")
	}
	r.Close()
	if n := coherence.IdleEngines(); n != 1 {
		t.Fatalf("pool holds %d engines after two Closes, want 1", n)
	}

	reg := metrics.New()
	r, err = New(Options{Config: smallCfg(), Work: uniformWork(4, 1), MeasureAccesses: 500, Metrics: reg})
	if err != nil {
		t.Fatal(err)
	}
	if r.Engine != used {
		t.Fatal("a runner with metrics did not take the idle engine")
	}
	r.Run()
	r.Close()
	if n := coherence.IdleEngines(); n != 1 {
		t.Fatalf("a runner with metrics left %d engines idle, want 1", n)
	}
	if _, ok := reg.Snapshot().Gauges["dir/td_fill"]; !ok {
		t.Fatal("Close did not fold the machine's occupancy into the registry")
	}
}

// totalAlloc returns the bytes allocated over the process's lifetime.
func totalAlloc() uint64 {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.TotalAlloc
}

// TestWarmSimAllocs pins the pool under sim: once a first run of
// perfbench's sim-specmix shape (SPEC mix 2 on the 8-core SecDir machine)
// has released its engine, New, RunContext and Close on the same
// configuration allocate under 256 KB; building the machine instead costs
// about 12 MB.
func TestWarmSimAllocs(t *testing.T) {
	coherence.DropIdleEngines()
	defer coherence.DropIdleEngines()
	cfg := config.SecDirConfig(8)
	cfg.Seed = 1
	var opts [2]Options
	for i := range opts {
		opts[i] = specOpts(t, cfg, 2)
		opts[i].WarmupAccesses, opts[i].MeasureAccesses = 5000, 5000
	}
	run := func(o Options) {
		r, err := New(o)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := r.RunContext(context.Background()); err != nil {
			t.Fatal(err)
		}
		r.Close()
	}
	run(opts[0])
	before := totalAlloc()
	run(opts[1])
	got := totalAlloc() - before
	t.Logf("warm New+RunContext+Close: %.1f KB", float64(got)/(1<<10))
	if got >= 256<<10 {
		t.Fatalf("warm New+RunContext+Close allocated %.2f MB, want < 256 KB", float64(got)/(1<<20))
	}
}
