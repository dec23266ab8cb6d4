package main

import (
	"context"
	"fmt"
	"reflect"
	"time"

	"secdir/internal/addr"
	"secdir/internal/coherence"
	"secdir/internal/config"
	"secdir/internal/sim"
	"secdir/internal/trace"
)

// sim-specmix sizes: per-core access counts of one simulated run of Table
// 5's mix 2 (bzip2 + omnetpp) on the 8-core SecDir machine.
const (
	simMix     = 2
	simWarmup  = 40_000
	simMeasure = 120_000
)

// simSpec is the sim-specmix workload: every operation builds the machine
// with sim.New and runs it with the serial engine through Runner.RunContext.
type simSpec struct {
	cfg  config.Config
	seed int64
	// want is the first run's result; every later run must equal it.
	want sim.Result

	// Traced-run probe results, ns per simulated access.
	engineNs, genNs float64
}

// setupSimSpec builds the workload and runs one operation, which sets the
// reference result and brings heap and caches to steady state.
func setupSimSpec(ctx context.Context, e env) (instance, error) {
	s := &simSpec{cfg: config.SecDirConfig(8), seed: e.seed}
	res, err := s.simulate(ctx, 0, nil)
	if err != nil {
		return nil, err
	}
	s.want = res
	return s, nil
}

// accessesPerOp is the number of simulated accesses one run performs.
func (s *simSpec) accessesPerOp() uint64 {
	return uint64(s.cfg.Cores) * (simWarmup + simMeasure)
}

// simulate runs the mix once on a freshly built machine and checks the
// coherence invariants at the end.
func (s *simSpec) simulate(ctx context.Context, job int, tr *tracer) (sim.Result, error) {
	root := tr.begin(job, 0, "op")
	defer tr.end(root)
	sp := tr.begin(job, root, "trace.new_spec_mix")
	work, err := trace.NewSpecMix(simMix, s.cfg.Cores, s.seed)
	tr.end(sp)
	if err != nil {
		return sim.Result{}, err
	}
	defer work.Close()
	sp = tr.begin(job, root, "coherence.build")
	r, err := sim.New(sim.Options{Config: s.cfg, Work: work, WarmupAccesses: simWarmup, MeasureAccesses: simMeasure})
	tr.end(sp)
	if err != nil {
		return sim.Result{}, err
	}
	defer r.Close()
	sp = tr.begin(job, root, "sim.run")
	res, err := r.RunContext(ctx)
	tr.end(sp)
	if err != nil {
		return sim.Result{}, err
	}
	sp = tr.begin(job, root, "coherence.check_invariants")
	err = r.Engine.CheckInvariants()
	tr.end(sp)
	if err != nil {
		return sim.Result{}, fmt.Errorf("coherence invariants: %w", err)
	}
	return res, nil
}

func (s *simSpec) op(ctx context.Context, _ int, tr *tracer) (opOut, error) {
	res, err := s.simulate(ctx, tr.job(), tr)
	if err != nil {
		return opOut{}, err
	}
	if !reflect.DeepEqual(res, s.want) {
		return opOut{}, fmt.Errorf("simulated statistics differ from the first run: IPC %v vs %v", res.TotalIPC(), s.want.TotalIPC())
	}
	return opOut{accesses: s.accessesPerOp(), trials: 1}, nil
}

// genSink keeps the generator-only loop from being optimized away.
var genSink addr.Line

// captured is one access the sim issued, as the Observer saw it.
type captured struct {
	line  addr.Line
	core  uint8
	write bool
}

// probe times the two layers under the sim on their own: the engine, by
// replaying the exact access sequence a run issued (captured through
// sim.Options.Observer, with no warm-up so every access is seen) into
// Engine.Access on a fresh engine, and the trace generators, by calling
// Next alone for the same number of accesses.
func (s *simSpec) probe(ctx context.Context, tr *tracer) error {
	work, err := trace.NewSpecMix(simMix, s.cfg.Cores, s.seed)
	if err != nil {
		return err
	}
	seq := make([]captured, 0, s.accessesPerOp())
	r, err := sim.New(sim.Options{
		Config: s.cfg, Work: work, MeasureAccesses: simWarmup + simMeasure,
		Observer: func(core int, _ uint64, line addr.Line, write bool, _ coherence.AccessResult) {
			seq = append(seq, captured{line: line, core: uint8(core), write: write})
		},
	})
	if err != nil {
		return err
	}
	if _, err := r.RunContext(ctx); err != nil {
		return err
	}
	r.Close()
	work.Close()

	const reps = 3
	var engine, gen []float64
	for i := 0; i < reps; i++ {
		e, err := coherence.NewEngine(s.cfg)
		if err != nil {
			return err
		}
		sp := tr.begin(0, 0, "coherence.replay")
		t0 := time.Now()
		for _, a := range seq {
			e.Access(int(a.core), a.line, a.write)
		}
		engine = append(engine, float64(time.Since(t0).Nanoseconds())/float64(len(seq)))
		tr.end(sp)

		w, err := trace.NewSpecMix(simMix, s.cfg.Cores, s.seed)
		if err != nil {
			return err
		}
		sp = tr.begin(0, 0, "trace.generate")
		t0 = time.Now()
		var sink addr.Line
		for _, g := range w.Gens {
			for j := 0; j < simWarmup+simMeasure; j++ {
				sink ^= g.Next().Line
			}
		}
		gen = append(gen, float64(time.Since(t0).Nanoseconds())/float64(s.accessesPerOp()))
		tr.end(sp)
		w.Close()
		genSink = sink
	}
	s.engineNs, s.genNs = quantile(engine, 0.5), quantile(gen, 0.5)
	return nil
}

func (s *simSpec) close(context.Context) error { return nil }

func (s *simSpec) layers(tr *tracer) map[string]float64 {
	runNs := quantile(tr.durations("sim.run"), 0.5) / float64(s.accessesPerOp())
	m := map[string]float64{
		"trace.gen_ns_per_access":  s.genNs,
		"coherence.ns_per_access":  s.engineNs,
		"sim.self_ns_per_access":   runNs - s.engineNs - s.genNs,
		"coherence.build_ms":       quantile(tr.durations("coherence.build"), 0.5) / 1e6,
		"cuckoo.vd_self_conflicts": float64(s.want.VDSelfConflicts),
		"sim.total_ipc":            s.want.TotalIPC(),
		"sim.max_cycles":           float64(s.want.MaxCycles),
	}
	var acc, l1, l2 uint64
	for _, c := range s.want.PerCore {
		acc += c.Stats.Accesses
		l1 += c.Stats.L1Hits
		l2 += c.Stats.L2Hits
	}
	if acc > 0 {
		m["cachesim.l1_hit_rate"] = float64(l1) / float64(acc)
	}
	if acc > l1 {
		m["cachesim.l2_hit_rate"] = float64(l2) / float64(acc-l1)
	}
	d := s.want.Dir
	m["directory.edtd_hits"] = float64(d.EDHits + d.TDHits)
	m["core.vd_hits"] = float64(d.VDHits)
	m["directory.mem_fetches"] = float64(d.MemFetches)
	m["core.td_to_vd"] = float64(d.TDToVD)
	m["core.vd_to_td"] = float64(d.VDToTD)
	m["core.vd_drop"] = float64(d.VDDrop)
	if d.VDLookupsNoEB > 0 {
		m["core.eb_probe_ratio"] = float64(d.VDLookups) / float64(d.VDLookupsNoEB)
	}
	return m
}
