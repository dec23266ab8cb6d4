package main

import (
	"context"
	"fmt"
	"runtime"
	"time"

	"secdir/internal/attack"
	"secdir/internal/coherence"
	"secdir/internal/leakage"
	"secdir/internal/rng"
	"secdir/internal/trace"
)

// leak-trials sizes: trials per cell and attack rounds per trial.
const (
	leakTrials = 400
	leakRounds = 16
)

// leakCell is one (configuration, strategy) measurement of the leak-trials
// workload and the verdict the paper's claim requires of it.
type leakCell struct {
	leak bool
	opts leakage.Options
	want leakage.Verdict // the first run's verdict; later runs must equal it
}

// leakLab is the leak-trials workload: each operation runs leakage.Run of
// prime+probe on the unfixed Skylake-X baseline (which must leak) and on
// SecDir (which must not), with one trial worker.
type leakLab struct {
	cells []*leakCell

	// Traced-run probe results.
	shardMs, mergeMs                    []float64
	resetUs, driverUs                   []float64
	roundNs, accessesPerTrial, allocsPT float64
}

// setupLeakTrials builds both cells and runs one operation, which sets the
// reference verdicts.
func setupLeakTrials(ctx context.Context, e env) (instance, error) {
	s, err := leakage.ParseStrategy("primeprobe")
	if err != nil {
		return nil, err
	}
	w := &leakLab{}
	for _, c := range []struct {
		name string
		leak bool
	}{{"skylake-unfixed", true}, {"secdir", false}} {
		cfg, err := leakage.ParseConfig(c.name, 8)
		if err != nil {
			return nil, err
		}
		w.cells = append(w.cells, &leakCell{leak: c.leak, opts: leakage.Options{
			Config: cfg, ConfigName: c.name, Strategy: s,
			Trials: leakTrials, Rounds: leakRounds, Workers: 1, Seed: e.seed,
		}})
	}
	for _, c := range w.cells {
		v, err := leakage.Run(ctx, c.opts)
		if err != nil {
			return nil, err
		}
		if v.Leak != c.leak {
			return nil, fmt.Errorf("%s: reference verdict %s, want leak=%v", c.opts.ConfigName, v, c.leak)
		}
		c.want = v
	}
	return w, nil
}

// sameVerdict reports whether two verdicts are bit-identical.
func sameVerdict(a, b leakage.Verdict) bool {
	return fmt.Sprintf("%#v", a) == fmt.Sprintf("%#v", b)
}

func (w *leakLab) op(ctx context.Context, _ int, tr *tracer) (opOut, error) {
	job := tr.job()
	root := tr.begin(job, 0, "op")
	defer tr.end(root)
	var out opOut
	for _, c := range w.cells {
		sp := tr.begin(job, root, "leakage.run")
		v, err := leakage.Run(ctx, c.opts)
		tr.end(sp)
		if err != nil {
			return opOut{}, err
		}
		if v.Leak != c.leak || !sameVerdict(v, c.want) {
			return opOut{}, fmt.Errorf("%s: verdict %s differs from the reference %s", c.opts.ConfigName, v, c.want)
		}
		out.accesses += v.Accesses
		out.trials += v.Trials
	}
	return out, nil
}

// probe drives the layers under the trial runner directly: RunShard and
// MergeVerdict separately (checking the merge equals the reference), the
// allocations of a whole run, and one trial's steps — Engine.Reset,
// Strategy.NewDriver and attack.ForEachRound — on a pooled engine.
func (w *leakLab) probe(ctx context.Context, tr *tracer) error {
	const reps = 3
	var trials, mallocs uint64
	for i := 0; i < reps; i++ {
		for _, c := range w.cells {
			sp := tr.begin(0, 0, "leakage.run_shard")
			t0 := time.Now()
			res, err := leakage.RunShard(ctx, c.opts, 0, c.opts.Trials, nil)
			w.shardMs = append(w.shardMs, float64(time.Since(t0).Nanoseconds())/1e6)
			tr.end(sp)
			if err != nil {
				return err
			}
			sp = tr.begin(0, 0, "stats.merge_verdict")
			t0 = time.Now()
			v, err := leakage.MergeVerdict(c.opts, res)
			w.mergeMs = append(w.mergeMs, float64(time.Since(t0).Nanoseconds())/1e6)
			tr.end(sp)
			if err != nil {
				return err
			}
			if !sameVerdict(v, c.want) {
				return fmt.Errorf("%s: merged verdict %s differs from the reference %s", c.opts.ConfigName, v, c.want)
			}

			var m0, m1 runtime.MemStats
			runtime.ReadMemStats(&m0)
			if _, err := leakage.Run(ctx, c.opts); err != nil {
				return err
			}
			runtime.ReadMemStats(&m1)
			mallocs += m1.Mallocs - m0.Mallocs
			trials += uint64(c.opts.Trials)
		}
	}
	w.allocsPT = float64(mallocs) / float64(trials)

	var roundNs, roundAcc, trialAcc float64
	var n int
	for _, c := range w.cells {
		e, err := coherence.NewEngine(c.opts.Config)
		if err != nil {
			return err
		}
		p := attack.Params{Victim: 0, Target: trace.T0Lines()[0]}
		for core := 1; core < c.opts.Config.Cores; core++ {
			p.Attackers = append(p.Attackers, core)
		}
		seeds := rng.New(c.opts.Seed)
		for t := 0; t < c.opts.Trials; t++ {
			sp := tr.begin(0, 0, "coherence.reset")
			t0 := time.Now()
			err := e.Reset(int64(seeds.Uint64()))
			w.resetUs = append(w.resetUs, float64(time.Since(t0).Nanoseconds())/1e3)
			tr.end(sp)
			if err != nil {
				return err
			}
			sp = tr.begin(0, 0, "attack.new_driver")
			t0 = time.Now()
			d, err := c.opts.Strategy.NewDriver(e, p)
			w.driverUs = append(w.driverUs, float64(time.Since(t0).Nanoseconds())/1e3)
			tr.end(sp)
			if err != nil {
				return err
			}
			before := engineAccesses(e)
			sp = tr.begin(0, 0, "attack.for_each_round")
			t0 = time.Now()
			attack.ForEachRound(d, c.opts.Rounds, nil, func(int, bool, float64) {})
			roundNs += float64(time.Since(t0).Nanoseconds())
			tr.end(sp)
			after := engineAccesses(e)
			roundAcc += float64(after - before)
			trialAcc += float64(after)
			n++
		}
	}
	w.roundNs = roundNs / roundAcc
	w.accessesPerTrial = trialAcc / float64(n)
	return nil
}

// engineAccesses sums the accesses every core of e has issued since its
// last reset.
func engineAccesses(e *coherence.Engine) uint64 {
	var n uint64
	for _, cs := range e.Stats().Core {
		n += cs.Accesses
	}
	return n
}

func (w *leakLab) close(context.Context) error { return nil }

func (w *leakLab) layers(*tracer) map[string]float64 {
	return map[string]float64{
		"coherence.reset_us":         quantile(w.resetUs, 0.5),
		"attack.driver_us":           quantile(w.driverUs, 0.5),
		"leakage.shard_ms":           quantile(w.shardMs, 0.5),
		"stats.merge_ms":             quantile(w.mergeMs, 0.5),
		"attack.round_ns_per_access": w.roundNs,
		"attack.accesses_per_trial":  w.accessesPerTrial,
		"leakage.allocs_per_trial":   w.allocsPT,
	}
}
