// Package metrics is the simulator's observability substrate: a registry of
// named counters, gauges, power-of-two histograms (reusing internal/stats)
// and bounded time series, with snapshot/delta export to JSON and text.
//
// The design goals, in order:
//
//  1. Zero cost when disabled. Every handle type is nil-receiver-safe, and a
//     nil *Registry hands out nil handles, so instrumented code records
//     unconditionally — `c.Inc()` on a nil counter is a single branch — and
//     the hot paths never allocate or lock.
//  2. Goroutine safety. Counters and gauges are lock-free atomics; histograms
//     and series take a per-instrument mutex; the name→handle maps are
//     sharded by name hash so concurrent get-or-create calls from many
//     workers rarely contend. Any number of engines, experiment workers, and
//     server jobs may mutate one registry while another goroutine snapshots
//     it.
//  3. Zero allocation on the hot path when enabled. Counter/Gauge/Histogram
//     updates touch pre-registered fixed-size state; Series bounds its memory
//     by decimating in place.
//  4. Get-or-create naming. Registering the same name twice returns the same
//     handle, so per-slice or per-bank instruments naturally aggregate into
//     one machine-wide series.
//
// Concurrency contract: every method on Registry, Counter, Gauge, Histogram
// and Series is safe for concurrent use. Snapshot() may be called at any
// time; it reads each instrument atomically (per instrument — the snapshot
// as a whole is not a single atomic cut across instruments, which is fine
// for monotone counters). GaugeFunc callbacks run inside Snapshot, on the
// snapshotting goroutine, so each must be safe for concurrent use itself;
// simulator state that is not (engine occupancy) is published with plain
// gauges set once the simulator is done with it.
package metrics

import (
	"hash/maphash"
	"math"
	"sort"
	"sync"
	"sync/atomic"

	"secdir/internal/stats"
)

// Counter is a monotonically increasing uint64. All methods are safe for
// concurrent use.
type Counter struct {
	v atomic.Uint64
}

// Inc adds one. Safe on a nil counter (no-op).
func (c *Counter) Inc() {
	if c != nil {
		c.v.Add(1)
	}
}

// Add adds n. Safe on a nil counter (no-op).
func (c *Counter) Add(n uint64) {
	if c != nil {
		c.v.Add(n)
	}
}

// Value returns the current count (0 on nil).
func (c *Counter) Value() uint64 {
	if c == nil {
		return 0
	}
	return c.v.Load()
}

// Gauge is a last-write-wins float64 value. All methods are safe for
// concurrent use (the value is stored as atomic float bits).
type Gauge struct {
	bits atomic.Uint64
}

// Set records the current value. Safe on a nil gauge (no-op).
func (g *Gauge) Set(v float64) {
	if g != nil {
		g.bits.Store(math.Float64bits(v))
	}
}

// Value returns the last set value (0 on nil).
func (g *Gauge) Value() float64 {
	if g == nil {
		return 0
	}
	return math.Float64frombits(g.bits.Load())
}

// Histogram records uint64 observations in power-of-two buckets. A mutex
// serializes observations and snapshots; the critical section is a few array
// increments, so contention stays low even with many concurrent writers.
type Histogram struct {
	mu sync.Mutex
	h  stats.Histogram
}

// Observe records one observation. Safe on a nil histogram (no-op).
func (h *Histogram) Observe(v uint64) {
	if h != nil {
		h.mu.Lock()
		h.h.Add(v)
		h.mu.Unlock()
	}
}

// N returns the observation count (0 on nil).
func (h *Histogram) N() uint64 {
	if h == nil {
		return 0
	}
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.h.N()
}

// snapshot exports the histogram state under its lock.
func (h *Histogram) snapshot() HistogramSnapshot {
	h.mu.Lock()
	defer h.mu.Unlock()
	return histSnapshot(&h.h)
}

// Point is one sample of a Series.
type Point struct {
	// X is the sample position (typically a cycle count).
	X float64 `json:"x"`
	// Y is the sampled value.
	Y float64 `json:"y"`
}

// Series is a bounded append-only time series. When the capacity is reached
// the series decimates itself in place — every other retained point is
// dropped and the effective sampling stride doubles — so it covers the whole
// run with bounded memory instead of retaining only a recent window.
//
// A mutex makes Append/Points safe for concurrent use; note that samples
// appended by concurrent runs interleave, so a shared series' X values are
// only monotone within one producer.
type Series struct {
	mu     sync.Mutex
	pts    []Point
	max    int
	stride int // keep every stride-th appended point
	skip   int // appends remaining until the next kept point
}

// defaultSeriesCap bounds a Series that was registered with no explicit
// capacity.
const defaultSeriesCap = 1024

// Append records one sample. Safe on a nil series (no-op).
func (s *Series) Append(x, y float64) {
	if s == nil {
		return
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.skip > 0 {
		s.skip--
		return
	}
	s.skip = s.stride - 1
	if len(s.pts) == s.max {
		// Decimate: keep points 0, 2, 4, ... and double the stride.
		for i := 0; 2*i < len(s.pts); i++ {
			s.pts[i] = s.pts[2*i]
		}
		s.pts = s.pts[:(len(s.pts)+1)/2]
		s.stride *= 2
		s.skip = s.stride - 1
	}
	s.pts = append(s.pts, Point{X: x, Y: y})
}

// Points returns the retained samples, oldest first (nil on a nil series).
func (s *Series) Points() []Point {
	if s == nil {
		return nil
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make([]Point, len(s.pts))
	copy(out, s.pts)
	return out
}

// Len returns the number of retained samples (0 on nil).
func (s *Series) Len() int {
	if s == nil {
		return 0
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.pts)
}

// numShards splits the registry's name→handle maps. Handles are pointers, so
// once a caller holds one the shard is out of the picture; sharding only has
// to keep get-or-create (and gauge-func registration) from serializing a
// worker pool. 16 shards cover any realistic core count.
const numShards = 16

// shard is one partition of the registry's name→handle maps, guarded by its
// own RWMutex.
type shard struct {
	mu       sync.RWMutex
	counters map[string]*Counter
	gauges   map[string]*Gauge
	gaugeFns map[string]func() float64
	hists    map[string]*Histogram
	series   map[string]*Series
}

// Registry holds named metrics. The zero value is not usable; call New. A nil
// *Registry is a valid "metrics disabled" registry: every accessor returns a
// nil handle and Snapshot returns an empty snapshot. A non-nil Registry is
// safe for concurrent use by any number of goroutines.
type Registry struct {
	shards [numShards]shard
}

// shardSeed keys the name hash; process-global so every registry distributes
// names identically.
var shardSeed = maphash.MakeSeed()

// New returns an empty registry.
func New() *Registry {
	r := &Registry{}
	for i := range r.shards {
		s := &r.shards[i]
		s.counters = map[string]*Counter{}
		s.gauges = map[string]*Gauge{}
		s.gaugeFns = map[string]func() float64{}
		s.hists = map[string]*Histogram{}
		s.series = map[string]*Series{}
	}
	return r
}

// shardFor picks the shard owning name.
func (r *Registry) shardFor(name string) *shard {
	return &r.shards[maphash.String(shardSeed, name)%numShards]
}

// Counter returns the named counter, creating it on first use. Returns nil on
// a nil registry.
func (r *Registry) Counter(name string) *Counter {
	if r == nil {
		return nil
	}
	sh := r.shardFor(name)
	sh.mu.RLock()
	c, ok := sh.counters[name]
	sh.mu.RUnlock()
	if ok {
		return c
	}
	sh.mu.Lock()
	defer sh.mu.Unlock()
	if c, ok = sh.counters[name]; !ok {
		c = &Counter{}
		sh.counters[name] = c
	}
	return c
}

// Gauge returns the named gauge, creating it on first use. Returns nil on a
// nil registry.
func (r *Registry) Gauge(name string) *Gauge {
	if r == nil {
		return nil
	}
	sh := r.shardFor(name)
	sh.mu.RLock()
	g, ok := sh.gauges[name]
	sh.mu.RUnlock()
	if ok {
		return g
	}
	sh.mu.Lock()
	defer sh.mu.Unlock()
	if g, ok = sh.gauges[name]; !ok {
		g = &Gauge{}
		sh.gauges[name] = g
	}
	return g
}

// GaugeFunc registers a callback evaluated at snapshot time — the right shape
// for a value derivable from thread-safe state, such as a queue depth, that
// costs nothing until it is read. Re-registering a name replaces the
// callback. No-op on a nil registry.
//
// The callback runs outside the registry's locks, whenever any goroutine
// snapshots the registry, so it must be safe for concurrent use.
func (r *Registry) GaugeFunc(name string, fn func() float64) {
	if r == nil {
		return
	}
	sh := r.shardFor(name)
	sh.mu.Lock()
	sh.gaugeFns[name] = fn
	sh.mu.Unlock()
}

// Histogram returns the named histogram, creating it on first use. Returns
// nil on a nil registry.
func (r *Registry) Histogram(name string) *Histogram {
	if r == nil {
		return nil
	}
	sh := r.shardFor(name)
	sh.mu.RLock()
	h, ok := sh.hists[name]
	sh.mu.RUnlock()
	if ok {
		return h
	}
	sh.mu.Lock()
	defer sh.mu.Unlock()
	if h, ok = sh.hists[name]; !ok {
		h = &Histogram{}
		sh.hists[name] = h
	}
	return h
}

// Series returns the named series, creating it with the given retained-point
// capacity on first use (values < 2 fall back to a default). Returns nil on a
// nil registry.
func (r *Registry) Series(name string, capacity int) *Series {
	if r == nil {
		return nil
	}
	sh := r.shardFor(name)
	sh.mu.RLock()
	s, ok := sh.series[name]
	sh.mu.RUnlock()
	if ok {
		return s
	}
	sh.mu.Lock()
	defer sh.mu.Unlock()
	if s, ok = sh.series[name]; !ok {
		if capacity < 2 {
			capacity = defaultSeriesCap
		}
		s = &Series{max: capacity, stride: 1}
		sh.series[name] = s
	}
	return s
}

// sortedKeys returns the map's keys in lexical order.
func sortedKeys[V any](m map[string]V) []string {
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}
