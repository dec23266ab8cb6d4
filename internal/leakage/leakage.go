package leakage

import (
	"context"
	"fmt"
	"math"
	"runtime"
	"sync"
	"sync/atomic"

	"secdir/internal/attack"
	"secdir/internal/coherence"
	"secdir/internal/config"
	"secdir/internal/metrics"
	"secdir/internal/rng"
	"secdir/internal/stats"
)

// TVLAThreshold is the |t| above which a configuration is declared leaking,
// the standard Test Vector Leakage Assessment criterion (Goodwill et al.):
// |t| > 4.5 corresponds to α < 10⁻⁵ even at modest degrees of freedom.
const TVLAThreshold = 4.5

// tCap bounds |t| in a Verdict. A noise-free simulator can produce two
// exactly-constant distributions with distinct means, for which Welch's t
// diverges; encoding/json cannot represent ±Inf, so the verdict reports a
// finite sentinel far beyond any threshold instead.
const tCap = 1e6

// MaxResamples caps Options.Resamples at admission (secdir-serve job specs,
// secdir-leak -resamples): 250 times the default. The bootstrap holds one
// float64 per replicate and draws len(active)+len(idle) observations for
// each, so an unbounded count lets one request exhaust a worker's memory.
const MaxResamples = 100_000

// The per-cell Options defaults: every sweep, job and CLI that leaves a
// field unset samples with these.
const (
	DefaultTrials     = 200
	DefaultRounds     = 16
	DefaultConfidence = 0.99
	DefaultResamples  = 400
)

// capacityBins is the histogram width of the plug-in mutual-information
// estimate. 16 cells keep the estimator's O((bins-1)/N) bias below ~0.1 bit
// at the default trial counts while still resolving multi-modal observables.
const capacityBins = 16

// Options configures one Monte-Carlo leakage measurement: Trials independent
// machines, each running Rounds attack rounds under a balanced random
// victim-active/victim-idle schedule.
type Options struct {
	// Config is the machine under test (its Seed is overridden per trial).
	Config config.Config
	// ConfigName labels the configuration in the Verdict (e.g. "secdir").
	ConfigName string
	// Strategy is the attack to quantify.
	Strategy Strategy
	// Trials is the number of independently seeded machines (default
	// DefaultTrials).
	Trials int
	// Rounds is the attack rounds per trial, split evenly between
	// victim-active and victim-idle (default DefaultRounds; forced even).
	Rounds int
	// EvictionLines overrides the strategy's default conflict-set size.
	EvictionLines int
	// Workers is the trial-runner fan-out (default GOMAXPROCS).
	Workers int
	// Seed pins the whole measurement: trial seeds, round schedules and
	// bootstrap resamples all derive from it (default 1).
	Seed int64
	// Confidence is the bootstrap interval level (default 0.99).
	Confidence float64
	// Resamples is the bootstrap replicate count (default 400; callers
	// taking it from users cap it at MaxResamples).
	Resamples int
	// Metrics receives leakage counters/histograms; nil is a no-op registry.
	Metrics *metrics.Registry
	// Progress, when non-nil, is called with completed-trial counts at a
	// coarse throttle (≈10 updates per run, always including the final one).
	// It may be called from the trial workers' goroutines.
	Progress func(done, total int)
}

// withDefaults fills unset Options fields.
func (o Options) withDefaults() Options {
	if o.Trials <= 0 {
		o.Trials = DefaultTrials
	}
	if o.Rounds <= 0 {
		o.Rounds = DefaultRounds
	}
	if o.Rounds%2 != 0 {
		o.Rounds++
	}
	if o.Workers <= 0 {
		o.Workers = runtime.GOMAXPROCS(0)
	}
	if o.Seed == 0 {
		o.Seed = 1
	}
	if o.Confidence <= 0 || o.Confidence >= 1 {
		o.Confidence = DefaultConfidence
	}
	if o.Resamples <= 0 {
		o.Resamples = DefaultResamples
	}
	return o
}

// Stage labels the cell in progress events, errors and fleet provenance:
// "config/strategy".
func (o Options) Stage() string { return o.ConfigName + "/" + o.Strategy.Name() }

// Verdict is the statistical outcome of one (configuration, strategy)
// measurement. The distributions under test are the per-trial mean
// observables of the victim-active and victim-idle round halves.
type Verdict struct {
	// Config names the configuration measured (e.g. "skylake-unfixed").
	Config string `json:"config"`
	// Strategy names the attack measured (e.g. "primeprobe").
	Strategy string `json:"strategy"`
	// Trials is the number of independent machines measured.
	Trials int `json:"trials"`
	// Rounds is the attack rounds per trial.
	Rounds int `json:"rounds"`
	// ActiveMean is the grand mean observable over victim-active rounds.
	ActiveMean float64 `json:"active_mean"`
	// IdleMean is the grand mean observable over victim-idle rounds.
	IdleMean float64 `json:"idle_mean"`
	// TStat is Welch's t between the two per-trial mean distributions,
	// capped at ±1e6 (a noise-free channel diverges).
	TStat float64 `json:"t_stat"`
	// DF is the Welch–Satterthwaite degrees of freedom.
	DF float64 `json:"df"`
	// CapacityBits is the plug-in mutual-information estimate between the
	// victim-activity bit and the per-trial observable, in bits per trial.
	CapacityBits float64 `json:"capacity_bits"`
	// AUC is the distinguisher's ROC area (0.5 = chance).
	AUC float64 `json:"auc"`
	// AUCLo and AUCHi bound AUC at the Confidence level (seeded bootstrap).
	AUCLo float64 `json:"auc_lo"`
	AUCHi float64 `json:"auc_hi"`
	// Confidence is the bootstrap interval level.
	Confidence float64 `json:"confidence"`
	// Leak reports the TVLA verdict: |TStat| > 4.5.
	Leak bool `json:"leak"`
	// Accesses totals the simulated memory accesses across all trials.
	Accesses uint64 `json:"accesses"`
}

// String renders the verdict as one human-readable line.
func (v Verdict) String() string {
	verdict := "NO-LEAK"
	if v.Leak {
		verdict = "LEAK"
	}
	return fmt.Sprintf("%s/%s: %s |t|=%.2f capacity=%.3f bits AUC=%.3f [%.3f,%.3f]@%v%%",
		v.Config, v.Strategy, verdict, math.Abs(v.TStat), v.CapacityBits,
		v.AUC, v.AUCLo, v.AUCHi, v.Confidence*100)
}

// trialOut is one trial's contribution to the two sample distributions.
type trialOut struct {
	active, idle float64
	accesses     uint64
}

// Run executes the Monte-Carlo measurement described by o and returns its
// Verdict. Each trial runs on a machine bit-identical to a fresh engine
// built from o.Config reseeded with a trial-specific seed (a pooled engine,
// reset), mounts the strategy's driver, and runs a balanced random schedule
// of victim-active and victim-idle rounds; the trial's two half-means are
// one observation each in the distributions the verdict statistics are
// computed over. Deterministic for fixed Options (including
// Workers — the fan-out only changes scheduling, not results). Run is the
// single-shard case of RunShard + MergeVerdict; the distributed fleet drives
// the same pair over partial trial ranges.
func Run(ctx context.Context, o Options) (Verdict, error) {
	o = o.withDefaults()

	// Coarse progress throttle: ~10 updates per run, always including the
	// final one.
	var done int64
	lastReported := int64(0)
	var progressMu sync.Mutex
	step := o.Trials / 10
	if step < 1 {
		step = 1
	}
	emit := func(TrialResult) {
		d := atomic.AddInt64(&done, 1)
		if o.Progress == nil {
			return
		}
		progressMu.Lock()
		if d-lastReported >= int64(step) || d == int64(o.Trials) {
			lastReported = d
			progressMu.Unlock()
			o.Progress(int(d), o.Trials)
			return
		}
		progressMu.Unlock()
	}

	out, err := RunShard(ctx, o, 0, o.Trials, emit)
	if err != nil {
		return Verdict{}, err
	}
	return MergeVerdict(o, out)
}

// runTrial executes one independent trial on the worker's pooled engine:
// reset (or first-trial fresh) machine, re-armed (or first-trial mounted)
// driver, one balanced shuffled schedule, and returns the two half-means.
func runTrial(o Options, params attack.Params, seed int64, te *trialEngine) (trialOut, error) {
	e, d, err := te.mount(o, params, seed)
	if err != nil {
		return trialOut{}, err
	}

	// Balanced random schedule: exactly Rounds/2 active rounds in a seeded
	// Fisher-Yates order, so ordering effects (warm-up, replacement drift)
	// cannot masquerade as victim activity.
	sched := te.schedule(o.Rounds)
	sr := rng.New(seed ^ 0x5eed)
	for i := len(sched) - 1; i > 0; i-- {
		j := sr.Intn(i + 1)
		sched[i], sched[j] = sched[j], sched[i]
	}

	var sumA, sumI float64
	var nA, nI int
	attack.ForEachRound(d, o.Rounds, func(i int) bool { return sched[i] },
		func(_ int, active bool, obs float64) {
			if active {
				sumA += obs
				nA++
			} else {
				sumI += obs
				nI++
			}
		})

	var res trialOut
	if nA > 0 {
		res.active = sumA / float64(nA)
	}
	if nI > 0 {
		res.idle = sumI / float64(nI)
	}
	for _, cs := range e.Stats().Core {
		res.accesses += cs.Accesses
	}
	return res, nil
}

// trialEngine is one worker's reusable machine and the attack mounted on
// it. The worker's first trial takes an engine from coherence's idle pool
// (or builds one) and mounts the strategy's driver on it; every later trial
// resets the engine in place with the new trial seed and re-arms the same
// driver, and the worker returns the engine to the pool when it finishes.
// Engine.Reset is pinned bit-identical to fresh construction by the
// coherence oracle tests, and Driver.Rearm on a reset engine to NewDriver on
// a fresh one by attack's TestRearmMatchesFresh, so reuse cannot perturb
// verdicts or break the worker-count invariance the fleet's lossless merges
// rely on — it only removes the per-trial and per-Run rebuilding of caches,
// directories, eviction sets and drivers. The round schedule buffer is
// pooled alongside. A worker serves one measurement, so the strategy and
// attack parameters are the same on every trial.
type trialEngine struct {
	eng   *coherence.Engine
	drv   attack.Driver
	sched []bool
}

// schedule returns the pooled schedule buffer sized to rounds, reset to its
// unshuffled state: the first rounds/2 entries victim-active, the rest idle.
func (te *trialEngine) schedule(rounds int) []bool {
	if len(te.sched) != rounds {
		te.sched = make([]bool, rounds)
	}
	for i := range te.sched {
		te.sched[i] = i < rounds/2
	}
	return te.sched
}

// mount returns the worker's machine reset for the trial seed and the
// driver armed on it, taking the engine from coherence's idle pool and
// mounting the driver on first use.
func (te *trialEngine) mount(o Options, params attack.Params, seed int64) (*coherence.Engine, attack.Driver, error) {
	if te.eng == nil {
		e, err := coherence.Acquire(o.Config.WithSeed(seed))
		if err != nil {
			return nil, nil, err
		}
		te.eng = e
	} else if err := te.eng.Reset(seed); err != nil {
		return nil, nil, err
	}
	if te.drv != nil {
		te.drv.Rearm()
		return te.eng, te.drv, nil
	}
	d, err := o.Strategy.NewDriver(te.eng, params)
	if err != nil {
		return nil, nil, err
	}
	te.drv = d
	return te.eng, d, nil
}

// close returns the engine to the idle pool and drops the driver and the
// schedule buffer.
func (te *trialEngine) close() {
	coherence.Release(te.eng)
	te.eng, te.drv, te.sched = nil, nil, nil
}

// mean returns the arithmetic mean of x (0 for an empty slice).
func mean(x []float64) float64 {
	if len(x) == 0 {
		return 0
	}
	s := 0.0
	for _, v := range x {
		s += v
	}
	return s / float64(len(x))
}

// verdict computes the statistics over the two per-trial mean distributions.
func verdict(o Options, active, idle []float64, accesses uint64) Verdict {
	t, df := stats.WelchT(active, idle)
	if math.IsInf(t, 1) || t > tCap {
		t = tCap
	}
	if math.IsInf(t, -1) || t < -tCap {
		t = -tCap
	}
	auc, lo, hi := stats.BootstrapAUC(active, idle, o.Resamples, o.Confidence, o.Seed+1)
	return Verdict{
		Config:       o.ConfigName,
		Strategy:     o.Strategy.Name(),
		Trials:       o.Trials,
		Rounds:       o.Rounds,
		ActiveMean:   mean(active),
		IdleMean:     mean(idle),
		TStat:        t,
		DF:           df,
		CapacityBits: stats.MutualInformation(active, idle, capacityBins),
		AUC:          auc,
		AUCLo:        lo,
		AUCHi:        hi,
		Confidence:   o.Confidence,
		Leak:         math.Abs(t) > TVLAThreshold,
		Accesses:     accesses,
	}
}
