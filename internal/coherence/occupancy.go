package coherence

import (
	"secdir/internal/config"
	"secdir/internal/core"
	"secdir/internal/directory"
)

// Occupancy reports how full the directory structures are, machine-wide —
// the observability hook behind §7's sizing arguments (the ED holds about as
// many entries as L2 lines; the VDs absorb conflict refugees).
type Occupancy struct {
	// EDEntries / EDCapacity aggregate the Extended Directories.
	EDEntries, EDCapacity int
	// TDEntries / TDCapacity aggregate the Traditional Directories.
	TDEntries, TDCapacity int
	// VDEntries / VDCapacity aggregate all Victim Directory banks
	// (zero on non-SecDir designs).
	VDEntries, VDCapacity int
	// VDPerCore is the number of VD entries each core currently owns
	// machine-wide (SecDir only).
	VDPerCore []int
}

// fill returns used/capacity as a fraction, tolerating zero capacity.
func fill(used, capacity int) float64 {
	if capacity == 0 {
		return 0
	}
	return float64(used) / float64(capacity)
}

// EDFill returns the ED occupancy fraction.
func (o Occupancy) EDFill() float64 { return fill(o.EDEntries, o.EDCapacity) }

// TDFill returns the TD occupancy fraction.
func (o Occupancy) TDFill() float64 { return fill(o.TDEntries, o.TDCapacity) }

// VDFill returns the VD occupancy fraction.
func (o Occupancy) VDFill() float64 { return fill(o.VDEntries, o.VDCapacity) }

// OccupancySnapshot walks the directory slices and returns current fill
// levels. Designs without a TD/ED pair (way-partitioned, skewed, DLS,
// tag-partitioned) report only what they expose. An unbuilt slice holds no
// entries but still counts its capacity, so fill fractions do not depend on
// which slices a workload happened to touch.
func (e *Engine) OccupancySnapshot() Occupancy {
	o := Occupancy{VDPerCore: make([]int, e.cfg.Cores)}
	for _, sl := range e.slices {
		switch s := sl.(type) {
		case nil:
			o.addUnbuilt(e.cfg)
		case *core.Slice:
			o.addTDED(s.TDED())
			for c := 0; c < e.cfg.Cores; c++ {
				b := s.VDBank(c)
				o.VDEntries += b.Len()
				o.VDCapacity += b.Capacity()
				o.VDPerCore[c] += b.Len()
			}
		case interface{ TDED() *directory.TDED }:
			o.addTDED(s.TDED())
		}
	}
	return o
}

// addTDED accumulates one slice's shared structures.
func (o *Occupancy) addTDED(d *directory.TDED) {
	o.EDEntries += d.ED.Len()
	o.EDCapacity += d.ED.Sets() * d.ED.Ways()
	o.TDEntries += d.TD.Len()
	o.TDCapacity += d.TD.Sets() * d.TD.Ways()
}

// addUnbuilt accumulates the capacity of a slice that is not built yet, from
// the same geometry its constructor would use.
func (o *Occupancy) addUnbuilt(cfg config.Config) {
	switch cfg.Kind {
	case config.Baseline, config.Ceaser, config.SecDir:
		o.EDCapacity += cfg.EDSets * cfg.EDWays
		o.TDCapacity += cfg.TDSets * cfg.TDWays
	}
	if cfg.Kind == config.SecDir {
		o.VDCapacity += cfg.Cores * cfg.VDSets * cfg.VDWays
	}
}
