package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"sync"
	"sync/atomic"
	"time"

	"secdir/internal/config"
	"secdir/internal/leakage"
	"secdir/internal/server"
	"secdir/internal/store"
)

// The one job shape serve-leak (and its fleet probe) submits: prime+probe on the
// unfixed baseline and on SecDir, small enough that the server's, store's
// and fleet's own costs show beside the trials. A latency percentile is
// only ever taken over jobs of this one shape.
const (
	jobTrials = 24
	jobRounds = 16
)

// warmJobs is how many jobs each set-up runs per client before timing.
const warmJobs = 3

// leakSpec returns the benchmark's job shape for seed.
func leakSpec(seed int64) server.JobSpec {
	return server.JobSpec{
		Kind:       server.KindLeak,
		Configs:    []string{"skylake-unfixed", "secdir"},
		Strategies: []string{"primeprobe"},
		Trials:     jobTrials,
		Rounds:     jobRounds,
		Workers:    1,
		Seed:       seed,
	}
}

// reportOptions is the direct-call equivalent of a leak job spec.
func reportOptions(spec server.JobSpec) (leakage.ReportOptions, error) {
	ss := make([]leakage.Strategy, 0, len(spec.Strategies))
	for _, name := range spec.Strategies {
		s, err := leakage.ParseStrategy(name)
		if err != nil {
			return leakage.ReportOptions{}, err
		}
		ss = append(ss, s)
	}
	return leakage.ReportOptions{
		Configs: spec.Configs, Strategies: ss, Trials: spec.Trials,
		Rounds: spec.Rounds, Workers: spec.Workers, Seed: spec.Seed,
	}, nil
}

// timeline is one traced job's path through the server.
type timeline struct {
	id                 string
	submitMs, resultMs float64
	queueWaitMs, runMs float64
	notifyMs           float64
}

// jobClient submits the job shape to one server, follows each job to its
// result and checks the result against a direct leakage.RunReport.
type jobClient struct {
	base string
	hc   *http.Client
	spec server.JobSpec
	body []byte // the spec as JSON
	want []byte // the direct report as compact JSON

	accesses uint64
	trials   int

	submitted atomic.Int64
	mu        sync.Mutex
	traced    []timeline
}

// newJobClient computes the expected result of spec directly and returns a
// client for the server at base.
func newJobClient(ctx context.Context, base string, hc *http.Client, spec server.JobSpec) (*jobClient, error) {
	o, err := reportOptions(spec)
	if err != nil {
		return nil, err
	}
	rep, err := leakage.RunReport(ctx, o)
	if err != nil {
		return nil, err
	}
	want, err := json.Marshal(rep)
	if err != nil {
		return nil, err
	}
	body, err := json.Marshal(spec)
	if err != nil {
		return nil, err
	}
	c := &jobClient{base: base, hc: hc, spec: spec, body: body, want: want}
	for _, v := range rep.Verdicts {
		c.accesses += v.Accesses
		c.trials += v.Trials
	}
	return c, nil
}

// warm runs warmJobs jobs on each of clients concurrent clients.
func (c *jobClient) warm(ctx context.Context, clients int) error {
	errs := make(chan error, clients)
	for i := 0; i < clients; i++ {
		go func() {
			for j := 0; j < warmJobs; j++ {
				if _, err := c.run(ctx, nil); err != nil {
					errs <- err
					return
				}
			}
			errs <- nil
		}()
	}
	var first error
	for i := 0; i < clients; i++ {
		if err := <-errs; err != nil && first == nil {
			first = err
		}
	}
	return first
}

// run submits one job, follows its stream to the terminal event, fetches
// its result and checks it. Traced, it also reads the job's lifecycle
// timestamps and records the job's timeline.
func (c *jobClient) run(ctx context.Context, tr *tracer) (opOut, error) {
	job := tr.job()
	root := tr.begin(job, 0, "op")
	defer tr.end(root)
	var tl timeline

	sp := tr.begin(job, root, "server.submit")
	t0 := time.Now()
	var st server.JobStatus
	err := c.call(ctx, http.MethodPost, "/jobs", c.body, http.StatusAccepted, &st)
	tl.submitMs = msSince(t0)
	tr.end(sp)
	c.submitted.Add(1)
	if err != nil {
		return opOut{}, err
	}
	tl.id = st.ID

	sp = tr.begin(job, root, "server.stream")
	state, terminal, err := c.follow(ctx, st.ID)
	tr.end(sp)
	if err != nil {
		return opOut{}, err
	}
	if state != server.StateDone {
		return opOut{}, fmt.Errorf("job %s ended %s", st.ID, state)
	}

	if tr != nil {
		sp = tr.begin(job, root, "server.status")
		err := c.call(ctx, http.MethodGet, "/jobs/"+st.ID, nil, http.StatusOK, &st)
		tr.end(sp)
		if err != nil {
			return opOut{}, err
		}
		tl.queueWaitMs = float64(st.Started.Sub(st.Submitted).Nanoseconds()) / 1e6
		tl.runMs = float64(st.Finished.Sub(st.Started).Nanoseconds()) / 1e6
		tl.notifyMs = float64(terminal.Sub(st.Finished).Nanoseconds()) / 1e6
	}

	sp = tr.begin(job, root, "server.result")
	t0 = time.Now()
	var res struct {
		Result json.RawMessage `json:"result"`
	}
	err = c.call(ctx, http.MethodGet, "/jobs/"+st.ID+"/result", nil, http.StatusOK, &res)
	tl.resultMs = msSince(t0)
	tr.end(sp)
	if err != nil {
		return opOut{}, err
	}
	var got bytes.Buffer
	if err := json.Compact(&got, res.Result); err != nil {
		return opOut{}, err
	}
	if !bytes.Equal(got.Bytes(), c.want) {
		return opOut{}, fmt.Errorf("job %s: result differs from the direct leakage.RunReport", st.ID)
	}
	if tr != nil {
		c.mu.Lock()
		c.traced = append(c.traced, tl)
		c.mu.Unlock()
	}
	return opOut{accesses: c.accesses, trials: c.trials}, nil
}

// call makes one JSON request and decodes the answer into out.
func (c *jobClient) call(ctx context.Context, method, path string, body []byte, want int, out any) error {
	var rd io.Reader
	if body != nil {
		rd = bytes.NewReader(body)
	}
	req, err := http.NewRequestWithContext(ctx, method, c.base+path, rd)
	if err != nil {
		return err
	}
	resp, err := c.hc.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		return err
	}
	if resp.StatusCode != want {
		return fmt.Errorf("%s %s: status %d: %s", method, path, resp.StatusCode, bytes.TrimSpace(data))
	}
	return json.Unmarshal(data, out)
}

// follow reads a job's NDJSON event stream to its end and returns the
// terminal state and when the client saw it.
func (c *jobClient) follow(ctx context.Context, id string) (server.JobState, time.Time, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, c.base+"/jobs/"+id+"/stream", nil)
	if err != nil {
		return "", time.Time{}, err
	}
	resp, err := c.hc.Do(req)
	if err != nil {
		return "", time.Time{}, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return "", time.Time{}, fmt.Errorf("stream %s: status %d", id, resp.StatusCode)
	}
	var state server.JobState
	var at time.Time
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		var e server.Event
		if err := json.Unmarshal(sc.Bytes(), &e); err != nil {
			return "", time.Time{}, fmt.Errorf("stream %s: %w", id, err)
		}
		if e.State.Terminal() && at.IsZero() {
			state, at = e.State, time.Now()
		}
	}
	if err := sc.Err(); err != nil {
		return "", time.Time{}, err
	}
	if at.IsZero() {
		return "", time.Time{}, fmt.Errorf("stream %s ended without a terminal event", id)
	}
	return state, at, nil
}

// msSince returns the milliseconds since t0.
func msSince(t0 time.Time) float64 { return float64(time.Since(t0).Nanoseconds()) / 1e6 }

// timelineMedians returns the median of each traced timeline field.
func (c *jobClient) timelineMedians() map[string]float64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	col := func(f func(timeline) float64) float64 {
		xs := make([]float64, len(c.traced))
		for i, t := range c.traced {
			xs[i] = f(t)
		}
		return quantile(xs, 0.5)
	}
	return map[string]float64{
		"server.submit_ms":     col(func(t timeline) float64 { return t.submitMs }),
		"server.queue_wait_ms": col(func(t timeline) float64 { return t.queueWaitMs }),
		"server.notify_ms":     col(func(t timeline) float64 { return t.notifyMs }),
		"server.result_ms":     col(func(t timeline) float64 { return t.resultMs }),
		"server.run_ms":        col(func(t timeline) float64 { return t.runMs }),
	}
}

// directMs times the job's computation called directly, without the
// server: the median of reps leakage.RunReport calls.
func directMs(ctx context.Context, spec server.JobSpec, reps int, tr *tracer) (float64, error) {
	o, err := reportOptions(spec)
	if err != nil {
		return 0, err
	}
	var ms []float64
	for i := 0; i < reps; i++ {
		sp := tr.begin(0, 0, "leakage.run_report")
		t0 := time.Now()
		_, err := leakage.RunReport(ctx, o)
		ms = append(ms, msSince(t0))
		tr.end(sp)
		if err != nil {
			return 0, err
		}
	}
	return quantile(ms, 0.5), nil
}

// serveLeak is the serve-leak workload: an in-process secdir-serve with one
// job worker and a disk store, driven over HTTP by two closed-loop clients.
// Its traced run also measures the fleet layer (fleetRig).
type serveLeak struct {
	dir    string
	st     *store.Store
	srv    *server.Server
	hs     *httptest.Server
	client *jobClient

	openMs, closeMs, verifyMs float64
	flushes, records          float64
	directMs                  float64
	fleet                     map[string]float64
}

// setupServeLeak opens the store, starts the server and runs the warm-up
// jobs.
func setupServeLeak(ctx context.Context, e env) (instance, error) {
	dir, err := os.MkdirTemp(e.tmp, "store-*")
	if err != nil {
		return nil, err
	}
	s := &serveLeak{dir: dir}
	t0 := time.Now()
	b, err := store.OpenDisk(dir)
	if err != nil {
		return nil, errors.Join(err, os.RemoveAll(dir))
	}
	s.st, err = store.Open(b, store.Options{})
	if err != nil {
		return nil, errors.Join(err, b.Close(), os.RemoveAll(dir))
	}
	s.openMs = msSince(t0)
	s.srv, err = server.New(config.ServerConfig{QueueDepth: 16, Workers: 1}, nil)
	if err != nil {
		return nil, errors.Join(err, s.close(ctx))
	}
	if _, err := s.srv.AttachStore(s.st); err != nil {
		return nil, errors.Join(err, s.close(ctx))
	}
	s.hs = httptest.NewServer(s.srv)
	s.client, err = newJobClient(ctx, s.hs.URL, s.hs.Client(), leakSpec(e.seed))
	if err != nil {
		return nil, errors.Join(err, s.close(ctx))
	}
	if err := s.client.warm(ctx, 2); err != nil {
		return nil, errors.Join(err, s.close(ctx))
	}
	return s, nil
}

func (s *serveLeak) op(ctx context.Context, _ int, tr *tracer) (opOut, error) {
	return s.client.run(ctx, tr)
}

// storez is the part of GET /storez the benchmark reads.
type storez struct {
	Stats store.Stats `json:"stats"`
}

// probe reads the store's flush counts, times the job's computation
// called directly, and measures the fleet layer on a fleet rig of its own
// with jobs of the same shape.
func (s *serveLeak) probe(ctx context.Context, tr *tracer) error {
	var sz storez
	if err := s.client.call(ctx, http.MethodGet, "/storez", nil, http.StatusOK, &sz); err != nil {
		return err
	}
	s.flushes, s.records = float64(sz.Stats.Flushes), float64(sz.Stats.Records)
	var err error
	if s.directMs, err = directMs(ctx, s.client.spec, 5, tr); err != nil {
		return err
	}
	f, err := startFleet(ctx)
	if err != nil {
		return err
	}
	s.fleet, err = f.measure(ctx, s.client.spec, tr)
	return errors.Join(err, f.close(ctx))
}

// close drains the server, closes the store, and audits the ledger the
// run wrote: the hash chain must verify and hold a queued and a done
// record for every job submitted.
func (s *serveLeak) close(ctx context.Context) error {
	defer os.RemoveAll(s.dir)
	var errs []error
	if s.srv != nil {
		if _, err := s.srv.Drain(ctx); err != nil {
			errs = append(errs, err)
		}
	}
	if s.hs != nil {
		s.hs.Close()
	}
	if s.st == nil {
		return errors.Join(errs...)
	}
	t0 := time.Now()
	if err := s.st.Close(); err != nil {
		errs = append(errs, err)
	}
	s.closeMs = msSince(t0)
	b, err := store.OpenDisk(s.dir)
	if err != nil {
		return errors.Join(append(errs, err)...)
	}
	defer b.Close()
	t0 = time.Now()
	rep, err := store.VerifyChain(b)
	s.verifyMs = msSince(t0)
	if err != nil {
		errs = append(errs, err)
	} else if s.client != nil {
		if want := 2 * int(s.client.submitted.Load()); rep.Records != want {
			errs = append(errs, fmt.Errorf("ledger holds %d records, want %d", rep.Records, want))
		}
	}
	return errors.Join(errs...)
}

func (s *serveLeak) layers(*tracer) map[string]float64 {
	m := s.client.timelineMedians()
	m["server.service_tax_ms"] = m["server.run_ms"] - s.directMs
	m["store.open_ms"] = s.openMs
	m["store.flushes"] = s.flushes
	if s.flushes > 0 {
		m["store.records_per_flush"] = s.records / s.flushes
	}
	m["store.close_ms"] = s.closeMs
	m["store.verify_ms"] = s.verifyMs
	for k, v := range s.fleet {
		m[k] = v
	}
	return m
}
