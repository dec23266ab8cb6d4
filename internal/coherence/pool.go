package coherence

import (
	"runtime"
	"slices"
	"sync"

	"secdir/internal/config"
)

// idle is the process-wide pool of engines between runs.
var idle enginePool

// enginePool keeps the engines that runs have released, so the next run on
// the same configuration resets one instead of building and discarding a
// whole machine (an idle 8-core SecDir machine with every slice built is
// about 12 MB). It holds at most GOMAXPROCS engines — the widest set of runs
// that can execute at once, so a warm pool has an engine for each — and
// evicts the least recently released. Engines build their directory slices
// on first use and keep them, so an idle engine costs what its runs touched.
//
// It is a mutex and a slice, not a sync.Pool: sync.Pool's per-P private
// slots strand engines where the next run cannot see them, and once
// allocation stops the GC that would clear them almost never runs, so idle
// engines would pile up beyond any bound.
type enginePool struct {
	mu   sync.Mutex
	list []*Engine // least recently released first
}

// Acquire returns a machine for cfg: the most recently released idle engine
// whose configuration equals cfg in everything but the seed, reset to
// cfg.Seed, or else NewEngine(cfg). Reset is pinned bit-identical to
// NewEngine, so which engine a run gets cannot change its results. Hand the
// engine back with Release once nothing reads it any more.
func Acquire(cfg config.Config) (*Engine, error) {
	key := cfg.WithSeed(0)
	idle.mu.Lock()
	for i := len(idle.list) - 1; i >= 0; i-- {
		if e := idle.list[i]; e.cfg.WithSeed(0) == key {
			idle.list = slices.Delete(idle.list, i, i+1)
			idle.mu.Unlock()
			return e, e.Reset(cfg.Seed)
		}
	}
	idle.mu.Unlock()
	return NewEngine(cfg)
}

// Release returns an engine to the idle pool, evicting the least recently
// released one when the pool is full. The caller must not touch the engine
// afterwards. Every run's machine ends here: an engine with a metrics
// registry attached first sets the registry's dir/* occupancy gauges from
// its final state and is detached, so a later run on it writes nothing into
// that registry. An engine with an event log is then left to the garbage
// collector, since its log would go on recording the next run's accesses.
// Release(nil) does nothing.
func Release(e *Engine) {
	if e == nil {
		return
	}
	if r := e.Metrics(); r != nil {
		e.foldOccupancy(r)
		e.AttachMetrics(nil)
	}
	if e.log != nil {
		return
	}
	idle.mu.Lock()
	defer idle.mu.Unlock()
	if slices.Contains(idle.list, e) {
		panic("coherence: engine released twice")
	}
	if n := len(idle.list) - runtime.GOMAXPROCS(0) + 1; n > 0 {
		idle.list = slices.Delete(idle.list, 0, n)
	}
	idle.list = append(idle.list, e)
}

// IdleEngines reports how many released engines the pool holds.
func IdleEngines() int {
	idle.mu.Lock()
	defer idle.mu.Unlock()
	return len(idle.list)
}

// DropIdleEngines empties the pool, so the next Acquire of every
// configuration builds a fresh engine. Tests use it to start from a cold
// pool.
func DropIdleEngines() {
	idle.mu.Lock()
	idle.list = nil
	idle.mu.Unlock()
}
