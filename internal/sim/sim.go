// Package sim runs workloads on a simulated machine: it advances per-core
// clocks through a trace.Workload on a coherence.Engine, accounts latency per
// access (Table 4 constants), and reports IPC and L2-miss breakdowns — the
// measurements behind Figures 6-8 and Table 6 of the paper.
package sim

import (
	"context"
	"fmt"

	"secdir/internal/addr"
	"secdir/internal/coherence"
	"secdir/internal/config"
	"secdir/internal/directory"
	"secdir/internal/metrics"
	"secdir/internal/trace"
)

// Observer is called after every measured access. cycle is the issuing
// core's local clock after the access completed.
type Observer func(core int, cycle uint64, line addr.Line, write bool, res coherence.AccessResult)

// Options configures a simulation run.
type Options struct {
	Config config.Config
	Work   trace.Workload
	// WarmupAccesses and MeasureAccesses are per-core access counts. Stats
	// are reset at the warmup/measure boundary.
	WarmupAccesses  uint64
	MeasureAccesses uint64
	// Observer, if non-nil, sees every measured access.
	Observer Observer
	// Metrics, if non-nil, is attached to the engine before the run and
	// additionally receives a per-core IPC time series ("sim/ipc/core<N>",
	// x = local cycle, y = cumulative measured IPC) sampled every
	// IPCSampleEvery accesses during the measured phase.
	Metrics *metrics.Registry
	// IPCSampleEvery overrides the IPC sampling interval in accesses
	// (default 1024). Ignored when Metrics is nil.
	IPCSampleEvery uint64
}

// CoreResult summarises one core's measured phase.
type CoreResult struct {
	Instructions uint64
	Cycles       uint64
	Stats        coherence.CoreStats
}

// IPC returns the core's measured instructions per cycle.
func (c CoreResult) IPC() float64 {
	if c.Cycles == 0 {
		return 0
	}
	return float64(c.Instructions) / float64(c.Cycles)
}

// Result is the outcome of a simulation run.
type Result struct {
	Name    string
	PerCore []CoreResult
	// Dir is the aggregate directory activity during the measured phase.
	Dir directory.Stats
	// MemWritebacks during the measured phase.
	MemWritebacks uint64
	// MaxCycles is the largest per-core measured cycle count — the
	// execution time of a multithreaded run.
	MaxCycles uint64
	// VDSelfConflicts is the total number of cuckoo/plain VD conflicts
	// during the measured phase (SecDir only).
	VDSelfConflicts uint64
}

// TotalIPC returns the sum of per-core IPCs (the throughput metric used to
// compare multiprogrammed mixes).
func (r Result) TotalIPC() float64 {
	var s float64
	for _, c := range r.PerCore {
		s += c.IPC()
	}
	return s
}

// L2MissBreakdown returns the measured machine-wide L2 misses split into
// ED+TD hits, VD hits, and memory accesses — the categories of Figure 7(b).
func (r Result) L2MissBreakdown() (edtd, vd, mem uint64) {
	for _, c := range r.PerCore {
		edtd += c.Stats.MissEDTD
		vd += c.Stats.MissVD
		mem += c.Stats.MissMem
	}
	return
}

// L2Misses returns the total measured L2 misses.
func (r Result) L2Misses() uint64 {
	e, v, m := r.L2MissBreakdown()
	return e + v + m
}

// Runner drives a workload over an engine with per-core clocks.
type Runner struct {
	Engine *coherence.Engine
	opts   Options
}

// New builds the machine and binds the workload.
func New(opts Options) (*Runner, error) {
	if opts.Work.Cores() != opts.Config.Cores {
		return nil, fmt.Errorf("sim: workload drives %d cores, machine has %d", opts.Work.Cores(), opts.Config.Cores)
	}
	e, err := coherence.NewEngine(opts.Config)
	if err != nil {
		return nil, err
	}
	if opts.Metrics != nil {
		e.AttachMetrics(opts.Metrics)
	}
	return &Runner{Engine: e, opts: opts}, nil
}

// Close releases the runner's resources. The serial engine holds none, so
// it is a no-op kept for callers that pair every New with a Close; the
// engine stays readable afterwards.
func (r *Runner) Close() {}

// vdSelfConflicts sums cuckoo conflicts across all SecDir slices.
func vdSelfConflicts(e *coherence.Engine) uint64 {
	var n uint64
	for s := 0; s < e.Config().Cores; s++ {
		if sd, ok := e.Slice(s).(interface{ VDSelfConflicts() uint64 }); ok {
			n += sd.VDSelfConflicts()
		}
	}
	return n
}

// cancelCheckEvery is how many simulated accesses pass between context
// checks in RunContext. At simulator speeds (millions of accesses per second)
// this bounds cancellation latency to well under a millisecond while keeping
// the per-access cost to one counter increment and mask.
const cancelCheckEvery = 4096

// Run executes the warmup and measured phases and returns the result. It is
// RunContext with a background context (which cannot be cancelled, so no
// error can occur).
func (r *Runner) Run() Result {
	res, _ := r.RunContext(context.Background())
	return res
}

// RunContext executes the warmup and measured phases, checking ctx every
// cancelCheckEvery simulated accesses. On cancellation or deadline it stops
// mid-phase and returns ctx's error with a partial (unspecified) Result —
// callers must discard the result when err != nil. This is the hook that lets
// a job server's cancel endpoint and per-job timeouts actually stop
// simulation work.
func (r *Runner) RunContext(ctx context.Context) (Result, error) {
	cores := r.opts.Config.Cores
	clocks := make([]uint64, cores)
	instrs := make([]uint64, cores)
	done := make([]uint64, cores)

	// Per-core IPC time series, sampled during the measured phase against the
	// warmup/measure boundary captured in clockBase/instrBase below.
	var ipcSeries []*metrics.Series
	clockBase := make([]uint64, cores)
	instrBase := make([]uint64, cores)
	sampleEvery := r.opts.IPCSampleEvery
	if sampleEvery == 0 {
		sampleEvery = 1024
	}
	if r.opts.Metrics != nil {
		ipcSeries = make([]*metrics.Series, cores)
		for c := 0; c < cores; c++ {
			ipcSeries[c] = r.opts.Metrics.Series(fmt.Sprintf("sim/ipc/core%d", c), 0)
		}
	}

	// phase advances every core by target accesses, interleaved by local
	// clock so cross-core interactions happen in causal order. It returns
	// early with ctx's error if the run is cancelled.
	//
	// The scheduling invariant is "always run the unfinished core with the
	// smallest local clock, lowest index on ties". Because only the chosen
	// core's clock moves, that choice stays valid until its clock passes the
	// runner-up's — so instead of re-scanning all cores per access, the loop
	// picks once and then runs the chosen core in a burst up to the
	// runner-up's clock. Observer/IPC instrumentation is resolved once per
	// burst, keeping the common (uninstrumented) inner loop to generator,
	// engine access, and clock arithmetic. The access ordering is identical
	// to the per-access re-scan.
	var sinceCheck uint64
	gens := r.opts.Work.Gens
	phase := func(target uint64, observe bool) error {
		if target == 0 {
			return nil
		}
		for c := range done {
			done[c] = 0
		}
		remaining := cores
		instrumented := observe && (r.opts.Observer != nil || ipcSeries != nil)
		// scan mirrors clocks with finished cores forced to the maximum, so
		// the pick loop below is a plain two-minimum scan with no per-core
		// done[] test.
		scan := make([]uint64, cores)
		copy(scan, clocks)
		for remaining > 0 {
			// One pass tracks both the unfinished core with the smallest
			// local clock (lowest index on ties, matching a
			// first-strictly-smaller scan) and the runner-up that bounds how
			// far it may burst.
			best, moIdx := 0, -1
			bc, mc := scan[0], ^uint64(0)
			for c := 1; c < cores; c++ {
				v := scan[c]
				if v < bc {
					mc, moIdx = bc, best
					best, bc = c, v
				} else if v < mc {
					mc, moIdx = v, c
				}
			}
			limit := ^uint64(0)
			strict := false
			if moIdx >= 0 {
				limit = mc
				// A tie re-picks the lower index, so a higher-indexed core
				// must stay strictly below the runner-up's clock.
				strict = best > moIdx
			}
			g := gens[best]
			ck := clocks[best]
			ins := instrs[best]
			dn := done[best]
			for {
				// Same counter discipline as the historical per-access loop:
				// the check runs ahead of access N for N ≡ 0 (mod window),
				// which cancellation tests pin.
				if sinceCheck++; sinceCheck >= cancelCheckEvery {
					sinceCheck = 0
					if err := ctx.Err(); err != nil {
						clocks[best] = ck
						instrs[best] = ins
						done[best] = dn
						return err
					}
				}
				// Draw each access as it executes, never ahead: a workload's
				// generators may share state (PARSEC threads share the
				// window tick), so draws must interleave in simulated-time
				// order across cores.
				a := g.Next()
				ck += uint64(a.Gap)
				ins += uint64(a.Gap) + 1
				res := r.Engine.Access(best, a.Line, a.Write)
				ck += uint64(res.Latency)
				dn++
				if instrumented {
					if r.opts.Observer != nil {
						r.opts.Observer(best, ck, a.Line, a.Write, res)
					}
					if ipcSeries != nil && dn%sampleEvery == 0 {
						if dc := ck - clockBase[best]; dc > 0 {
							ipcSeries[best].Append(float64(ck),
								float64(ins-instrBase[best])/float64(dc))
						}
					}
				}
				if dn >= target {
					break
				}
				if ck > limit || (strict && ck == limit) {
					break
				}
			}
			clocks[best] = ck
			instrs[best] = ins
			done[best] = dn
			if dn >= target {
				remaining--
				scan[best] = ^uint64(0)
			} else {
				scan[best] = ck
			}
		}
		return nil
	}

	if r.opts.WarmupAccesses > 0 {
		if err := phase(r.opts.WarmupAccesses, false); err != nil {
			return Result{Name: r.opts.Work.Name}, err
		}
	}

	// Snapshot at the warmup/measure boundary.
	coreBase := make([]coherence.CoreStats, cores)
	copy(coreBase, r.Engine.Stats().Core)
	dirBase := r.Engine.DirStats()
	wbBase := r.Engine.Stats().MemWritebacks
	vdBase := vdSelfConflicts(r.Engine)
	copy(clockBase, clocks)
	copy(instrBase, instrs)

	if err := phase(r.opts.MeasureAccesses, true); err != nil {
		return Result{Name: r.opts.Work.Name}, err
	}

	res := Result{
		Name:          r.opts.Work.Name,
		PerCore:       make([]CoreResult, cores),
		MemWritebacks: r.Engine.Stats().MemWritebacks - wbBase,
	}
	dirNow := r.Engine.DirStats()
	res.Dir = dirNow
	subStats(&res.Dir, dirBase)
	res.VDSelfConflicts = vdSelfConflicts(r.Engine) - vdBase
	for c := 0; c < cores; c++ {
		cr := CoreResult{
			Instructions: instrs[c] - instrBase[c],
			Cycles:       clocks[c] - clockBase[c],
			Stats:        subCore(r.Engine.Stats().Core[c], coreBase[c]),
		}
		res.PerCore[c] = cr
		if cr.Cycles > res.MaxCycles {
			res.MaxCycles = cr.Cycles
		}
	}
	return res, nil
}

// subStats subtracts base from s field-wise.
func subStats(s *directory.Stats, base directory.Stats) {
	s.EDHits -= base.EDHits
	s.TDHits -= base.TDHits
	s.VDHits -= base.VDHits
	s.MemFetches -= base.MemFetches
	s.EDToTD -= base.EDToTD
	s.TDToED -= base.TDToED
	s.TDDrop -= base.TDDrop
	s.TDToVD -= base.TDToVD
	s.VDToTD -= base.VDToTD
	s.VDDrop -= base.VDDrop
	s.InclusionVictims -= base.InclusionVictims
	s.VDLookups -= base.VDLookups
	s.VDLookupsNoEB -= base.VDLookupsNoEB
}

// subCore subtracts base from s field-wise.
func subCore(s, base coherence.CoreStats) coherence.CoreStats {
	return coherence.CoreStats{
		Accesses:                  s.Accesses - base.Accesses,
		L1Hits:                    s.L1Hits - base.L1Hits,
		L2Hits:                    s.L2Hits - base.L2Hits,
		MissEDTD:                  s.MissEDTD - base.MissEDTD,
		MissVD:                    s.MissVD - base.MissVD,
		MissMem:                   s.MissMem - base.MissMem,
		Upgrades:                  s.Upgrades - base.Upgrades,
		NoFills:                   s.NoFills - base.NoFills,
		ConflictInvalidations:     s.ConflictInvalidations - base.ConflictInvalidations,
		SelfConflictInvalidations: s.SelfConflictInvalidations - base.SelfConflictInvalidations,
	}
}
