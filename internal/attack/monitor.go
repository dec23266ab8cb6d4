package attack

import (
	"fmt"

	"secdir/internal/addr"
	"secdir/internal/coherence"
)

// Monitor watches a set of victim lines (e.g. all 16 lines of the AES T0
// table) with interleaved evict+reload, reconstructing which lines the victim
// touches in each observation window — the full access-pattern recovery that
// [46] demonstrated against the Skylake-X directory and that motivates the
// paper ("As the victim re-accesses its data, the attacker can indirectly
// observe the directory state changing").
type Monitor struct {
	eng       *coherence.Engine
	cores     []int
	lines     []addr.Line
	attackers []*Attacker // attackers[i] evicts lines[i]
	touched   []bool      // Observe's result, reused across windows
}

// NewMonitor builds one eviction set of evictionLines lines per monitored
// line.
func NewMonitor(e *coherence.Engine, cores []int, lines []addr.Line, evictionLines int) (*Monitor, error) {
	m := &Monitor{
		eng:       e,
		cores:     cores,
		lines:     lines,
		attackers: make([]*Attacker, len(lines)),
		touched:   make([]bool, len(lines)),
	}
	for i, l := range lines {
		a, err := NewAttacker(e, cores, l, evictionLines)
		if err != nil {
			return nil, fmt.Errorf("attack: eviction set for %#x: %w", uint64(l), err)
		}
		m.attackers[i] = a
	}
	return m, nil
}

// Evict runs the Conflict step for every monitored line.
func (m *Monitor) Evict() {
	for _, a := range m.attackers {
		a.Prime()
	}
}

// Observe runs the Analyze step: it reloads every monitored line and reports
// which ones re-entered the hierarchy since Evict — the victim's observed
// access set, indexed like the monitored lines. The attacker's own reload
// copies are flushed afterwards. The slice is the monitor's own and is
// overwritten by the next Observe.
func (m *Monitor) Observe() []bool {
	for i, l := range m.lines {
		m.touched[i] = m.attackers[i].Reload(l)
	}
	m.eng.FlushCore(m.cores[0])
	return m.touched
}

// MonitorResult summarises a pattern-recovery experiment.
type MonitorResult struct {
	Windows int
	// TruePositives / FalsePositives / FalseNegatives count per-line
	// classifications across all windows against the ground truth.
	TruePositives, FalsePositives, FalseNegatives int
	// TrueNegatives completes the confusion matrix.
	TrueNegatives int
}

// Precision is TP/(TP+FP), 0 when no positives were reported.
func (r MonitorResult) Precision() float64 {
	if r.TruePositives+r.FalsePositives == 0 {
		return 0
	}
	return float64(r.TruePositives) / float64(r.TruePositives+r.FalsePositives)
}

// Recall is TP/(TP+FN), 0 when the victim touched nothing.
func (r MonitorResult) Recall() float64 {
	if r.TruePositives+r.FalseNegatives == 0 {
		return 0
	}
	return float64(r.TruePositives) / float64(r.TruePositives+r.FalseNegatives)
}

// MonitorStrategy mounts the multi-line monitor as a leakage strategy over a
// single watched line (the target): each round is one observation window, the
// victim touches the target on active rounds, and the observable is the
// number of monitored lines the attacker reports as touched. Implements
// leakage.Strategy.
type MonitorStrategy struct{}

// Name returns the strategy identifier.
func (MonitorStrategy) Name() string { return "monitor" }

// DefaultLines returns the default conflict-set size per monitored line.
func (MonitorStrategy) DefaultLines() int { return defaultEvictionLines }

// NewDriver prepares a single-line monitor against e.
func (MonitorStrategy) NewDriver(e *coherence.Engine, p Params) (Driver, error) {
	lines := []addr.Line{p.Target}
	return newMonitorDriver(e, p.Victim, p.Attackers, lines, p.lines(defaultEvictionLines),
		func(_ int, active bool, touch []bool) { touch[0] = active })
}

// monitorDriver drives one Monitor window per round: evict every monitored
// line, replay the victim's ground-truth touches, observe, and accumulate the
// confusion matrix.
type monitorDriver struct {
	e      *coherence.Engine
	m      *Monitor
	victim int
	lines  []addr.Line
	// truth fills touch with the victim's per-line access set for window w;
	// the active flag carries the trial schedule for strategies that derive
	// the truth from it. touch is the driver's own buffer, reused per window.
	truth func(w int, active bool, touch []bool)
	touch []bool
	res   MonitorResult
}

// newMonitorDriver builds the monitor and its driver.
func newMonitorDriver(e *coherence.Engine, victim int, cores []int, lines []addr.Line, evictionLines int, truth func(w int, active bool, touch []bool)) (*monitorDriver, error) {
	m, err := NewMonitor(e, cores, lines, evictionLines)
	if err != nil {
		return nil, err
	}
	d := &monitorDriver{e: e, m: m, victim: victim, lines: lines, truth: truth, touch: make([]bool, len(lines))}
	d.Rearm()
	return d, nil
}

// Round runs one observation window and returns how many monitored lines the
// attacker classified as touched.
func (d *monitorDriver) Round(w int, active bool) float64 {
	d.m.Evict()
	truth := d.touch
	d.truth(w, active, truth)
	for i, touch := range truth {
		if touch {
			d.e.Access(d.victim, d.lines[i], false)
		}
	}
	got := d.m.Observe()
	positives := 0
	for i := range d.lines {
		switch {
		case got[i] && truth[i]:
			d.res.TruePositives++
		case got[i] && !truth[i]:
			d.res.FalsePositives++
		case !got[i] && truth[i]:
			d.res.FalseNegatives++
		default:
			d.res.TrueNegatives++
		}
		if got[i] {
			positives++
		}
	}
	return float64(positives)
}

// VictimEvictions always reports 0: the monitor's reloads observe directory
// state, not the victim's private copies.
func (d *monitorDriver) VictimEvictions() int { return 0 }

// Rearm zeroes the confusion matrix.
func (d *monitorDriver) Rearm() { d.res = MonitorResult{} }

// RecoverPattern runs windows observation rounds against a victim that, in
// each window, accesses the subset of lines selected by victimTouch (which is
// also the ground truth). It returns the confusion matrix of the attacker's
// reconstruction.
func RecoverPattern(e *coherence.Engine, victim int, cores []int, lines []addr.Line, windows int, victimTouch func(window int) []bool) (MonitorResult, error) {
	d, err := newMonitorDriver(e, victim, cores, lines, defaultEvictionLines, func(w int, _ bool, touch []bool) {
		clear(touch)
		copy(touch, victimTouch(w))
	})
	if err != nil {
		return MonitorResult{}, err
	}
	ForEachRound(d, windows, nil, nil)
	res := d.res
	res.Windows = windows
	return res, nil
}
