// Command perfbench is the repository's end-to-end and per-layer benchmark.
//
// One invocation runs one workload in its own process:
//
//	bash perfbench/run.sh --workload sim-specmix --seed 1 --seconds 30 --trace 0
//
// It sets the workload up several times (reporting the median set-up time),
// runs timed operations in a closed loop for --seconds, checks every
// operation's output, and prints as its last line one JSON object
// {"correct", "attempted", "failed", "metrics"}. With --trace 0 the metrics
// are the end-to-end ones; with --trace 1 half of the time runs untraced and
// half traced (spans around every call into a layer, plus a CPU profile), and
// the metrics are the per-layer ones. --workload all runs every workload in
// a child process of its own and prints a table.
//
// The workloads, their metrics and the reasons for both are described in
// README.md beside this file.
package main

import (
	"bytes"
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"runtime/pprof"
	"sort"
	"sync"
	"syscall"
	"time"
)

// workload is one benchmark input: how to build it and how many closed-loop
// clients drive it.
type workload struct {
	name    string
	clients int
	// setup builds a fresh instance and brings it to steady state (its
	// warm-up operations included); the time it takes is setup_s.
	setup func(ctx context.Context, env env) (instance, error)
}

// env is what every workload's set-up receives.
type env struct {
	// seed generates every input of the run.
	seed int64
	// tmp is a scratch directory inside the checkout.
	tmp string
}

// opOut is the work one operation did.
type opOut struct {
	// accesses is the number of simulated memory accesses.
	accesses uint64
	// trials is the number of independently seeded machines simulated.
	trials int
}

// instance is one set-up workload.
type instance interface {
	// op runs one timed operation for client and checks its output; an
	// error marks the operation failed. tr is nil in untraced phases.
	op(ctx context.Context, client int, tr *tracer) (opOut, error)
	// probe runs the traced run's direct measurements of single layers.
	probe(ctx context.Context, tr *tracer) error
	// close runs the end-of-run output checks and releases everything.
	close(ctx context.Context) error
	// layers returns the per-layer metrics of the traced run from the
	// probes and the traced operations' spans in tr.
	layers(tr *tracer) map[string]float64
}

// workloads lists the benchmark's workloads in report order.
var workloads = []workload{
	{name: "sim-specmix", clients: 1, setup: setupSimSpec},
	{name: "leak-trials", clients: 1, setup: setupLeakTrials},
	{name: "serve-leak", clients: 2, setup: setupServeLeak},
}

// setupReps is how many times each run sets its workload up; setup_s is
// the median, so one slow set-up does not move it.
const setupReps = 3

// metric is one reported value with its unit.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the JSON object printed as the last line of a run.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func main() {
	name := flag.String("workload", "", "workload to run: sim-specmix, leak-trials, serve-leak, or all")
	seed := flag.Int64("seed", 1, "seed every input is generated from")
	seconds := flag.Int("seconds", 10, "how long the timed operations run")
	traced := flag.Int("trace", 0, "1 runs the traced measurement and reports per-layer metrics")
	out := flag.String("out", filepath.Join(".bench_build", "perfbench-out"), "directory for span and profile files")
	flag.Parse()
	if *seconds < 1 || (*traced != 0 && *traced != 1) {
		fmt.Fprintln(os.Stderr, "perfbench: --seconds must be >= 1 and --trace 0 or 1")
		os.Exit(2)
	}
	if *name == "all" {
		os.Exit(runAll(*seed, *seconds, *traced, *out))
	}
	var w *workload
	for i := range workloads {
		if workloads[i].name == *name {
			w = &workloads[i]
		}
	}
	if w == nil {
		fmt.Fprintf(os.Stderr, "perfbench: unknown workload %q\n", *name)
		os.Exit(2)
	}
	res, err := run(*w, *seed, time.Duration(*seconds)*time.Second, *traced == 1, *out)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", w.name, err)
		os.Exit(1)
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
}

// phase is one closed-loop measurement: every operation's latency and work.
type phase struct {
	attempted, failed int
	elapsed           time.Duration
	lat               []time.Duration // completed operations only, less steal
	accesses          uint64          // per completed operation
	trials            int             // per completed operation
	allocBytes        uint64          // heap bytes allocated during the phase
	firstErr          error
}

// measure drives inst with clients closed-loop clients until d has passed:
// each client starts its next operation as soon as the previous one ends,
// and starts none after the deadline.
func measure(ctx context.Context, inst instance, clients int, d time.Duration, tr *tracer) *phase {
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	alloc0 := ms.TotalAlloc
	p := &phase{}
	var mu sync.Mutex
	var wg sync.WaitGroup
	start := time.Now()
	deadline := start.Add(d)
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for time.Now().Before(deadline) {
				sw := startWatch()
				o, err := inst.op(ctx, c, tr)
				dt := sw.elapsed()
				mu.Lock()
				p.attempted++
				if err != nil {
					p.failed++
					if p.firstErr == nil {
						p.firstErr = err
					}
				} else {
					p.lat = append(p.lat, dt)
					p.accesses, p.trials = o.accesses, o.trials
				}
				mu.Unlock()
			}
		}(c)
	}
	wg.Wait()
	p.elapsed = time.Since(start)
	runtime.ReadMemStats(&ms)
	p.allocBytes = ms.TotalAlloc - alloc0
	return p
}

// quantile returns the q-quantile of xs by linear interpolation between
// order statistics (xs need not be sorted; it is not modified).
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	i := int(pos)
	if i+1 >= len(s) {
		return s[len(s)-1]
	}
	return s[i] + (pos-float64(i))*(s[i+1]-s[i])
}

// seconds converts durations to float seconds.
func seconds(ds []time.Duration) []float64 {
	out := make([]float64, len(ds))
	for i, d := range ds {
		out[i] = d.Seconds()
	}
	return out
}

// endToEnd computes the end-to-end metrics of a measured phase. Rates come
// from the median operation latency (clients × work per operation / median
// latency, Little's law with the median in place of the mean), so a stall
// that hits a few operations does not move them.
func endToEnd(p *phase, clients int, setup float64) map[string]metric {
	lat := seconds(p.lat)
	p50 := quantile(lat, 0.5)
	ops := float64(len(p.lat))
	c := float64(clients)
	return map[string]metric{
		"setup_s":       {setup, "s"},
		"ns_per_access": {p50 * 1e9 / (c * float64(p.accesses)), "ns"},
		"trials_per_s":  {c * float64(p.trials) / p50, "1/s"},
		"job_p50_s":     {p50, "s"},
		"job_p90_s":     {quantile(lat, 0.9), "s"},
		"jobs_per_s":    {c / p50, "1/s"},
		"alloc_mb":      {float64(p.allocBytes) / ops / 1e6, "MB"},
		"rss_peak_mb":   {peakRSSMB(), "MB"},
	}
}

// peakRSSMB returns the process's peak resident set size in MB.
func peakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) * 1024 / 1e6 // Linux reports kilobytes
}

// run executes one workload run and returns its result line.
func run(w workload, seed int64, d time.Duration, traced bool, outDir string) (*result, error) {
	ctx := context.Background()
	if err := os.MkdirAll(outDir, 0o755); err != nil {
		return nil, err
	}
	tmp, err := os.MkdirTemp(outDir, w.name+"-tmp-*")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(tmp)
	e := env{seed: seed, tmp: tmp}

	var inst instance
	setups := make([]float64, 0, setupReps)
	for i := 0; i < setupReps; i++ {
		if inst != nil {
			if err := inst.close(ctx); err != nil {
				return nil, fmt.Errorf("set-up %d: %w", i, err)
			}
			inst = nil
		}
		runtime.GC()
		sw := startWatch()
		inst, err = w.setup(ctx, e)
		if err != nil {
			return nil, fmt.Errorf("set-up: %w", err)
		}
		setups = append(setups, sw.elapsed().Seconds())
	}
	setup := quantile(setups, 0.5)

	res := &result{Metrics: map[string]metric{}}
	if !traced {
		p := measure(ctx, inst, w.clients, d, nil)
		cerr := inst.close(ctx)
		res.Attempted, res.Failed = p.attempted, p.failed
		report(w.name, p)
		if cerr != nil {
			fmt.Fprintf(os.Stderr, "perfbench: %s: end-of-run check: %v\n", w.name, cerr)
		}
		res.Correct = p.failed == 0 && cerr == nil && len(p.lat) > 0
		if len(p.lat) > 0 {
			res.Metrics = endToEnd(p, w.clients, setup)
		}
		return res, nil
	}

	// Traced run: an untraced half gives the reference the tracing overhead
	// is measured against; the traced half records spans, then the probes
	// drive single layers directly. The CPU profile covers both, so a layer
	// only a probe reaches (the fleet) shows in the attribution too.
	plain := measure(ctx, inst, w.clients, d/2, nil)
	tr := newTracer()
	var prof bytes.Buffer
	if err := pprof.StartCPUProfile(&prof); err != nil {
		return nil, err
	}
	cpu0 := readCPUClasses()
	withSpans := measure(ctx, inst, w.clients, d-d/2, tr)
	tr.endOps()
	perr := inst.probe(ctx, tr)
	cpu1 := readCPUClasses()
	pprof.StopCPUProfile()
	gz := prof.Bytes()
	cerr := inst.close(ctx)
	res.Attempted = plain.attempted + withSpans.attempted
	res.Failed = plain.failed + withSpans.failed
	report(w.name, plain)
	report(w.name, withSpans)
	for _, err := range []error{perr, cerr} {
		if err != nil {
			fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", w.name, err)
		}
	}
	res.Correct = res.Failed == 0 && perr == nil && cerr == nil && len(plain.lat) > 0 && len(withSpans.lat) > 0
	if !res.Correct {
		return res, nil
	}

	shares, err := cpuShares(gz)
	if err != nil {
		return nil, fmt.Errorf("cpu profile: %w", err)
	}
	lm := inst.layers(tr)
	for _, l := range cpuLayers {
		lm[l+".cpu_share"] = shares[l]
	}
	lm["runtime.gc_cpu_share"] = cpu1.gcShare(cpu0)
	for l, v := range tr.selfShares() {
		lm[l+".self_share"] = v
	}
	lm["tracing.overhead_ms"] = (quantile(seconds(withSpans.lat), 0.5) - quantile(seconds(plain.lat), 0.5)) * 1e3
	for _, m := range perLayer {
		// A metric of a layer this workload bypasses is absent: it reads 0.
		res.Metrics[m.name] = metric{lm[m.name], m.unit}
	}
	base := filepath.Join(outDir, fmt.Sprintf("%s-seed%d", w.name, seed))
	if err := tr.write(base + "-spans.ndjson"); err != nil {
		return nil, err
	}
	if err := os.WriteFile(base+"-cpu.pprof", gz, 0o644); err != nil {
		return nil, err
	}
	return res, nil
}

// report prints a phase's operation counts to standard error.
func report(name string, p *phase) {
	fmt.Fprintf(os.Stderr, "perfbench: %s: %d ops in %.2fs, %d failed\n",
		name, p.attempted, p.elapsed.Seconds(), p.failed)
	if p.firstErr != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %s: first failure: %v\n", name, p.firstErr)
	}
}
