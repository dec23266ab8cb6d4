package leakage

import (
	"context"
	"runtime"
	"sync"
	"testing"

	"secdir/internal/coherence"
	"secdir/internal/config"
)

// poolCells returns small measurements over four configurations with varied
// seeds and worker widths. skylake-unfixed and skylake-fixed differ only in
// AppendixAFix, so an engine shared between them would change a verdict.
func poolCells(t *testing.T) []Options {
	t.Helper()
	strat, err := ParseStrategy("primeprobe")
	if err != nil {
		t.Fatal(err)
	}
	cfgs := map[string]config.Config{"rand-mapped": config.RandMappedConfig(4, 400)}
	for _, name := range []string{"skylake-unfixed", "skylake-fixed", "secdir"} {
		if cfgs[name], err = ParseConfig(name, 4); err != nil {
			t.Fatal(err)
		}
	}
	var cells []Options
	for i, name := range []string{
		"skylake-unfixed", "skylake-fixed", "skylake-unfixed", "secdir",
		"rand-mapped", "skylake-fixed", "secdir", "skylake-unfixed",
		"rand-mapped", "skylake-fixed",
	} {
		cells = append(cells, Options{
			Config:     cfgs[name],
			ConfigName: name,
			Strategy:   strat,
			Trials:     12,
			Rounds:     4,
			Workers:    1 + i%3,
			Seed:       int64(11 + 7*i),
			Resamples:  50,
		})
	}
	return cells
}

// coldVerdicts runs every cell on an empty pool.
func coldVerdicts(t *testing.T, cells []Options) []Verdict {
	t.Helper()
	want := make([]Verdict, len(cells))
	for i, o := range cells {
		coherence.DropIdleEngines()
		v, err := Run(context.Background(), o)
		if err != nil {
			t.Fatal(err)
		}
		want[i] = v
	}
	return want
}

// TestEnginePoolReuseBitIdentical pins coherence's engine pool, as trial
// workers use it across Runs, to a cold pool: a sequence that reuses engines
// across configurations, seeds and worker widths, and overflows the pool so
// it evicts, must reproduce every verdict a cold pool gives. GOMAXPROCS is lowered to 2 so the pool's bound
// is small enough to evict on any host.
func TestEnginePoolReuseBitIdentical(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(2))
	cells := poolCells(t)
	want := coldVerdicts(t, cells)

	coherence.DropIdleEngines()
	for round := 0; round < 2; round++ {
		for i, o := range cells {
			v, err := Run(context.Background(), o)
			if err != nil {
				t.Fatal(err)
			}
			if v != want[i] {
				t.Fatalf("round %d cell %d (%s, seed %d): pooled verdict diverged:\ncold   %+v\npooled %+v",
					round, i, o.ConfigName, o.Seed, want[i], v)
			}
			if n := coherence.IdleEngines(); n > runtime.GOMAXPROCS(0) {
				t.Fatalf("pool holds %d engines, bound %d", n, runtime.GOMAXPROCS(0))
			}
		}
	}
}

// TestEnginePoolConcurrentRuns is the concurrent variant of the pool
// oracle: two goroutines, each running the cell sequence with two trial
// workers, share the pool and must still reproduce every cold verdict.
func TestEnginePoolConcurrentRuns(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(2))
	cells := poolCells(t)
	for i := range cells {
		cells[i].Workers = 2
	}
	want := coldVerdicts(t, cells)

	coherence.DropIdleEngines()
	var wg sync.WaitGroup
	errs := make(chan string, 2*len(cells))
	for g := 0; g < 2; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for k := range cells {
				i := (k + g*len(cells)/2) % len(cells) // the two sequences are out of phase
				v, err := Run(context.Background(), cells[i])
				if err != nil {
					errs <- err.Error()
					return
				}
				if v != want[i] {
					errs <- cells[i].ConfigName + ": pooled verdict diverged from the cold pool"
				}
			}
		}(g)
	}
	wg.Wait()
	close(errs)
	for msg := range errs {
		t.Error(msg)
	}
	if n := coherence.IdleEngines(); n > runtime.GOMAXPROCS(0) {
		t.Fatalf("pool holds %d engines, bound %d", n, runtime.GOMAXPROCS(0))
	}
}

// totalAlloc returns the bytes allocated over the process's lifetime.
func totalAlloc() uint64 {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.TotalAlloc
}

// TestFreshEngineTrialAllocs pins what lazy directory slices save: building
// the 8-core Skylake-X machine and running one prime+probe trial on it, which
// touches only the target's home slice, allocates at most 5 MB. Building all
// eight slices up front allocated about 11.5 MB.
func TestFreshEngineTrialAllocs(t *testing.T) {
	o := testOptions(t, "skylake-unfixed", "primeprobe").withDefaults()
	params := attackParams(o)
	before := totalAlloc()
	e, err := coherence.NewEngine(o.Config.WithSeed(3))
	if err != nil {
		t.Fatal(err)
	}
	te := trialEngine{eng: e}
	if _, err := runTrial(o, params, 3, &te); err != nil {
		t.Fatal(err)
	}
	got := totalAlloc() - before
	t.Logf("NewEngine + one primeprobe trial: %.2f MB", float64(got)/(1<<20))
	if got > 5<<20 {
		t.Fatalf("NewEngine + one primeprobe trial allocated %.1f MB, want <= 5 MB", float64(got)/(1<<20))
	}
}

// TestWarmRunAllocs pins the cross-Run pool: once a first Run of the
// benchmark's leak-job shape (skylake-unfixed and secdir prime+probe, 24
// trials of 16 rounds, one worker) has returned its engines, a second Run
// reuses them and allocates under 1 MB — no engine is built. GOMAXPROCS is
// pinned to 2, the benchmark host's width, so the pool holds both engines.
func TestWarmRunAllocs(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(2))
	var cells []Options
	for _, name := range []string{"skylake-unfixed", "secdir"} {
		o := testOptions(t, name, "primeprobe")
		o.Trials, o.Rounds, o.Workers = 24, 16, 1
		cells = append(cells, o)
	}
	run := func() {
		for _, o := range cells {
			if _, err := Run(context.Background(), o); err != nil {
				t.Fatal(err)
			}
		}
	}
	coherence.DropIdleEngines()
	run()
	before := totalAlloc()
	run()
	got := totalAlloc() - before
	t.Logf("warm second Run: %.3f MB", float64(got)/(1<<20))
	if got >= 1<<20 {
		t.Fatalf("warm second Run allocated %.2f MB, want < 1 MB", float64(got)/(1<<20))
	}
}
