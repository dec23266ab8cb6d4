package coherence

import (
	"fmt"

	"secdir/internal/directory"
	"secdir/internal/metrics"
)

// engineMetrics holds the engine's pre-registered metric handles. A nil
// *engineMetrics (no registry attached) keeps the hot path at a single
// branch per access; every handle is itself nil-safe.
type engineMetrics struct {
	reg *metrics.Registry

	// Per-service-level access counts and latency histograms, indexed by
	// Level (directory hit/miss latencies included).
	access  [int(LevelMemory) + 1]*metrics.Counter
	latency [int(LevelMemory) + 1]*metrics.Histogram

	// Per-message-class counts: GetS/GetX on a private miss, upgrades, and
	// L2 victim write-backs into the directory.
	msgGetS    *metrics.Counter
	msgGetX    *metrics.Counter
	msgUpgrade *metrics.Counter
	msgEvict   *metrics.Counter

	// Invalidations by directory.Reason, memory write-backs, suppressed
	// fills.
	invalidate [int(directory.ReasonVDConflict) + 1]*metrics.Counter
	writebacks *metrics.Counter
	noFills    *metrics.Counter
}

// AttachMetrics registers the engine's instruments in the registry and
// attaches the directory slices' own instruments (SecDir slices add the VD
// relocation-depth histogram and Empty-Bit counters). Attaching a nil
// registry detaches the engine and every built slice, so nothing is written
// to the old registry any more. Occupancy costs the hot path nothing:
// Release folds it into the registry's dir/* gauges (see foldOccupancy).
func (e *Engine) AttachMetrics(r *metrics.Registry) {
	for _, s := range e.secSlices {
		if s != nil {
			s.AttachMetrics(r)
		}
	}
	if r == nil {
		e.mx = nil
		return
	}
	mx := &engineMetrics{reg: r}
	for lv := LevelL1; lv <= LevelMemory; lv++ {
		mx.access[lv] = r.Counter(fmt.Sprintf("engine/access/%v", lv))
		mx.latency[lv] = r.Histogram(fmt.Sprintf("engine/latency/%v", lv))
	}
	mx.msgGetS = r.Counter("engine/msg/gets")
	mx.msgGetX = r.Counter("engine/msg/getx")
	mx.msgUpgrade = r.Counter("engine/msg/upgrade")
	mx.msgEvict = r.Counter("engine/msg/evict")
	for reason := directory.ReasonCoherence; reason <= directory.ReasonVDConflict; reason++ {
		mx.invalidate[reason] = r.Counter(fmt.Sprintf("engine/invalidate/%v", reason))
	}
	mx.writebacks = r.Counter("engine/mem_writebacks")
	mx.noFills = r.Counter("engine/no_fills")
	e.mx = mx
}

// foldOccupancy sets the registry's directory occupancy gauges — TD/ED/VD
// entry counts and fill fractions — to the machine's current state.
func (e *Engine) foldOccupancy(r *metrics.Registry) {
	o := e.OccupancySnapshot()
	r.Gauge("dir/ed_entries").Set(float64(o.EDEntries))
	r.Gauge("dir/ed_fill").Set(o.EDFill())
	r.Gauge("dir/td_entries").Set(float64(o.TDEntries))
	r.Gauge("dir/td_fill").Set(o.TDFill())
	r.Gauge("dir/vd_entries").Set(float64(o.VDEntries))
	r.Gauge("dir/vd_fill").Set(o.VDFill())
}

// Metrics returns the attached registry, or nil when metrics are disabled.
// Layers above and beside the engine (the attack toolkit, the simulator)
// register their own instruments through it.
func (e *Engine) Metrics() *metrics.Registry {
	if e.mx == nil {
		return nil
	}
	return e.mx.reg
}

// recordAccess notes one completed access at its service level.
func (e *Engine) recordAccess(level Level, lat int) {
	if mx := e.mx; mx != nil {
		mx.access[level].Inc()
		mx.latency[level].Observe(uint64(lat))
	}
}
