package coherence

import (
	"reflect"
	"runtime"
	"sync"
	"testing"

	"secdir/internal/addr"
	"secdir/internal/config"
	"secdir/internal/metrics"
)

// TestEnginePoolKeysOnWholeConfig: an idle engine is reused only for a
// configuration equal in everything but the seed. The fixed and unfixed
// Skylake-X baselines differ in AppendixAFix alone and must not share one.
func TestEnginePoolKeysOnWholeConfig(t *testing.T) {
	DropIdleEngines()
	defer DropIdleEngines()
	unfixed := smallConfig(config.Baseline)
	unfixed.AppendixAFix = false
	fixed := unfixed
	fixed.AppendixAFix = true

	e, err := NewEngine(unfixed)
	if err != nil {
		t.Fatal(err)
	}
	Release(e)
	got, err := Acquire(fixed.WithSeed(5))
	if err != nil {
		t.Fatal(err)
	}
	if got == e || got.Config() != fixed.WithSeed(5) {
		t.Fatalf("skylake-fixed got the idle skylake-unfixed engine (config %+v)", got.Config())
	}
	again, err := Acquire(unfixed.WithSeed(6))
	if err != nil {
		t.Fatal(err)
	}
	if again != e || again.Config() != unfixed.WithSeed(6) {
		t.Fatal("skylake-unfixed did not reuse its idle engine reseeded")
	}
}

// TestEnginePoolBound: across mixed configurations the pool never holds
// more than GOMAXPROCS idle engines, evicts the least recently released
// first, and hands back the most recently released match.
func TestEnginePoolBound(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(2))
	DropIdleEngines()
	defer DropIdleEngines()
	var released []*Engine
	for round := 0; round < 2; round++ {
		for _, d := range allDesigns() {
			e, err := Acquire(d.cfg)
			if err != nil {
				t.Fatal(err)
			}
			Release(e)
			released = append(released, e)
			if n := IdleEngines(); n > runtime.GOMAXPROCS(0) {
				t.Fatalf("after releasing %s the pool holds %d engines, bound %d", d.name, n, runtime.GOMAXPROCS(0))
			}
		}
	}
	// The pool now holds the last two designs' engines. The first design's
	// was evicted, so acquiring it builds a new engine.
	designs := allDesigns()
	first, last := designs[0], designs[len(designs)-1]
	e, err := Acquire(first.cfg)
	if err != nil {
		t.Fatal(err)
	}
	for _, old := range released {
		if e == old {
			t.Fatalf("%s got an engine that should have been evicted", first.name)
		}
	}
	if e, err = Acquire(last.cfg); err != nil {
		t.Fatal(err)
	}
	if e != released[len(released)-1] {
		t.Fatalf("%s did not get its most recently released engine", last.name)
	}
}

// TestEnginePoolTakesInstrumented: an engine released after an
// instrumented run is pooled. Release sets the registry's dir/* gauges from
// the machine's final occupancy, and a later run without metrics on the
// same engine writes nothing into that registry.
func TestEnginePoolTakesInstrumented(t *testing.T) {
	DropIdleEngines()
	defer DropIdleEngines()
	cfg := smallConfig(config.SecDir)
	e, err := Acquire(cfg)
	if err != nil {
		t.Fatal(err)
	}
	reg := metrics.New()
	e.AttachMetrics(reg)
	bursts := seededBursts(cfg.Cores)
	replayBursts(e, bursts)
	occ := e.OccupancySnapshot()
	Release(e)
	if n := IdleEngines(); n != 1 {
		t.Fatalf("the pool holds %d engines after an instrumented run, want 1", n)
	}
	snap := reg.Snapshot()
	if snap.Counters["dir/td_to_vd"] == 0 {
		t.Fatal("the instrumented run relocated nothing into the VDs")
	}
	want := map[string]float64{
		"dir/ed_entries": float64(occ.EDEntries), "dir/ed_fill": occ.EDFill(),
		"dir/td_entries": float64(occ.TDEntries), "dir/td_fill": occ.TDFill(),
		"dir/vd_entries": float64(occ.VDEntries), "dir/vd_fill": occ.VDFill(),
	}
	if !reflect.DeepEqual(snap.Gauges, want) {
		t.Fatalf("gauges after Release = %v, want the final occupancy %v", snap.Gauges, want)
	}

	again, err := Acquire(cfg.WithSeed(3))
	if err != nil {
		t.Fatal(err)
	}
	if again != e {
		t.Fatal("the next run did not reuse the instrumented engine")
	}
	replayBursts(again, bursts)
	Release(again)
	if got := reg.Snapshot(); !reflect.DeepEqual(got, snap) {
		t.Fatalf("a run without metrics wrote into the earlier run's registry:\nbefore %+v\nafter  %+v", snap, got)
	}
}

// TestEnginePoolRefusesObserved: an engine with an event log is never
// pooled, though Release still folds its occupancy into its registry.
// Release(nil) is a no-op.
func TestEnginePoolRefusesObserved(t *testing.T) {
	DropIdleEngines()
	defer DropIdleEngines()
	e, err := NewEngine(smallConfig(config.SecDir))
	if err != nil {
		t.Fatal(err)
	}
	reg := metrics.New()
	e.AttachMetrics(reg)
	e.EnableEventLog(16)
	Release(e)
	if n := IdleEngines(); n != 0 {
		t.Fatalf("the pool took an engine with an event log (%d idle)", n)
	}
	if _, ok := reg.Snapshot().Gauges["dir/vd_fill"]; !ok {
		t.Fatal("Release refused the engine without folding its occupancy gauges")
	}
	Release(nil)
	if n := IdleEngines(); n != 0 {
		t.Fatalf("Release(nil) pooled something (%d idle)", n)
	}
}

// TestEnginePoolReleaseTwicePanics: releasing an idle engine again would
// hand it to two runs at once, so it panics.
func TestEnginePoolReleaseTwicePanics(t *testing.T) {
	DropIdleEngines()
	defer DropIdleEngines()
	e, err := Acquire(smallConfig(config.SecDir))
	if err != nil {
		t.Fatal(err)
	}
	Release(e)
	defer func() {
		if recover() == nil {
			t.Fatal("a second Release of the same engine did not panic")
		}
	}()
	Release(e)
}

// TestEnginePoolConcurrentAcquire drives the pool from several goroutines
// over mixed configurations: no engine is ever held by two of them at once,
// each one's configuration is the one asked for, and the bound holds.
func TestEnginePoolConcurrentAcquire(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(2))
	DropIdleEngines()
	defer DropIdleEngines()
	designs := allDesigns()[:3]
	var mu sync.Mutex
	held := map[*Engine]bool{}
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 30; i++ {
				cfg := designs[(g+i)%len(designs)].cfg.WithSeed(int64(100*g + i))
				e, err := Acquire(cfg)
				if err != nil {
					t.Error(err)
					return
				}
				mu.Lock()
				if held[e] {
					t.Errorf("goroutine %d got an engine another goroutine holds", g)
				}
				held[e] = true
				mu.Unlock()
				if e.Config() != cfg {
					t.Errorf("goroutine %d asked for %+v, got %+v", g, cfg, e.Config())
				}
				for k := 0; k < 64; k++ {
					e.Access(k%cfg.Cores, addr.Line(k*131), k%3 == 0)
				}
				mu.Lock()
				delete(held, e)
				mu.Unlock()
				Release(e)
			}
		}(g)
	}
	wg.Wait()
	if n := IdleEngines(); n > runtime.GOMAXPROCS(0) {
		t.Fatalf("pool holds %d engines, bound %d", n, runtime.GOMAXPROCS(0))
	}
}
