package server

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"secdir/internal/config"
	"secdir/internal/experiments"
	"secdir/internal/golden"
	"secdir/internal/leakage"
	"secdir/internal/metrics"
)

// testServer pairs a Server with an httptest front end.
type testServer struct {
	srv *Server
	ts  *httptest.Server
	reg *metrics.Registry
}

func newTestServer(t *testing.T, cfg config.ServerConfig) *testServer {
	t.Helper()
	reg := metrics.New()
	srv, err := New(cfg, reg)
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv)
	t.Cleanup(func() {
		ts.Close()
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		defer cancel()
		_, _ = srv.Drain(ctx)
	})
	return &testServer{srv: srv, ts: ts, reg: reg}
}

func quickConfig() config.ServerConfig {
	cfg := config.DefaultServerConfig()
	cfg.Workers = 2
	cfg.QueueDepth = 8
	cfg.JobTimeout = 0
	return cfg
}

// quickReplay is a replay spec that finishes in milliseconds.
func quickReplay() JobSpec {
	return JobSpec{
		Kind:     KindReplay,
		Workload: "uniform:256",
		Cores:    2,
		Warmup:   500,
		Measure:  500,
	}
}

// hugeReplay is a replay spec that would run effectively forever without
// cancellation.
func hugeReplay() JobSpec {
	return JobSpec{
		Kind:     KindReplay,
		Workload: "uniform:4096",
		Cores:    2,
		Warmup:   0,
		Measure:  1 << 40,
	}
}

// submit POSTs a spec and decodes the response; wantCode 0 means 202.
func (s *testServer) submit(t *testing.T, spec JobSpec, wantCode int) JobStatus {
	t.Helper()
	if wantCode == 0 {
		wantCode = http.StatusAccepted
	}
	body, err := json.Marshal(spec)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(s.ts.URL+"/jobs", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != wantCode {
		var e APIError
		_ = json.NewDecoder(resp.Body).Decode(&e)
		t.Fatalf("submit: status %d, want %d (%s)", resp.StatusCode, wantCode, e.Error)
	}
	var st JobStatus
	if wantCode == http.StatusAccepted {
		if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
			t.Fatal(err)
		}
		if st.ID == "" || st.State != StateQueued {
			t.Fatalf("submit: unexpected status %+v", st)
		}
	}
	return st
}

// getStatus fetches one job's status.
func (s *testServer) getStatus(t *testing.T, id string) JobStatus {
	t.Helper()
	resp, err := http.Get(s.ts.URL + "/jobs/" + id)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %s: HTTP %d", id, resp.StatusCode)
	}
	var st JobStatus
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		t.Fatal(err)
	}
	return st
}

// waitState polls until the job reaches want (or any terminal state if want
// is empty), failing on timeout.
func (s *testServer) waitState(t *testing.T, id string, want JobState, timeout time.Duration) JobStatus {
	t.Helper()
	deadline := time.Now().Add(timeout)
	for {
		st := s.getStatus(t, id)
		if (want != "" && st.State == want) || (want == "" && st.State.Terminal()) {
			return st
		}
		if want != "" && st.State.Terminal() {
			t.Fatalf("job %s reached terminal state %s (err %q), want %s", id, st.State, st.Err, want)
		}
		if time.Now().After(deadline) {
			t.Fatalf("job %s stuck in %s after %v, want %s", id, st.State, timeout, want)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// TestSubmitPollResult is the basic lifecycle: a replay job and an analytic
// experiment job are queued, complete, and serve typed results.
func TestSubmitPollResult(t *testing.T) {
	s := newTestServer(t, quickConfig())

	// Result before done answers 409.
	st := s.submit(t, hugeReplay(), 0)
	if resp, err := http.Get(s.ts.URL + "/jobs/" + st.ID + "/result"); err != nil {
		t.Fatal(err)
	} else {
		resp.Body.Close()
		if resp.StatusCode != http.StatusConflict {
			t.Fatalf("result of pending job: HTTP %d, want 409", resp.StatusCode)
		}
	}
	// Unknown job answers 404.
	if resp, err := http.Get(s.ts.URL + "/jobs/nope"); err != nil {
		t.Fatal(err)
	} else {
		resp.Body.Close()
		if resp.StatusCode != http.StatusNotFound {
			t.Fatalf("unknown job: HTTP %d, want 404", resp.StatusCode)
		}
	}
	s.cancelJob(t, st.ID)

	rep := s.submit(t, quickReplay(), 0)
	exp := s.submit(t, JobSpec{Kind: KindExperiment, Experiments: []string{"A1", "T7"}}, 0)

	s.waitState(t, rep.ID, StateDone, 30*time.Second)
	s.waitState(t, exp.ID, StateDone, 30*time.Second)

	var rb struct {
		State  JobState     `json:"state"`
		Result ReplayResult `json:"result"`
	}
	s.getResult(t, rep.ID, &rb)
	if rb.State != StateDone || rb.Result.TotalIPC <= 0 || rb.Result.Workload != "uniform:256" {
		t.Fatalf("replay result: %+v", rb)
	}

	var eb struct {
		Result []ExperimentResult `json:"result"`
	}
	s.getResult(t, exp.ID, &eb)
	if len(eb.Result) != 2 || eb.Result[0].ID != "A1" || eb.Result[1].ID != "T7" {
		t.Fatalf("experiment result: %+v", eb.Result)
	}

	// The list endpoint sees every job in submission order.
	resp, err := http.Get(s.ts.URL + "/jobs")
	if err != nil {
		t.Fatal(err)
	}
	var list []JobStatus
	if err := json.NewDecoder(resp.Body).Decode(&list); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if len(list) != 3 {
		t.Fatalf("job list has %d entries, want 3", len(list))
	}
}

// getResult fetches and decodes a done job's result body.
func (s *testServer) getResult(t *testing.T, id string, into any) {
	t.Helper()
	resp, err := http.Get(s.ts.URL + "/jobs/" + id + "/result")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("result %s: HTTP %d", id, resp.StatusCode)
	}
	if err := json.NewDecoder(resp.Body).Decode(into); err != nil {
		t.Fatal(err)
	}
}

// cancelJob POSTs the cancel endpoint.
func (s *testServer) cancelJob(t *testing.T, id string) {
	t.Helper()
	resp, err := http.Post(s.ts.URL+"/jobs/"+id+"/cancel", "application/json", nil)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("cancel %s: HTTP %d", id, resp.StatusCode)
	}
}

// TestCancelMidRun submits a job that would run for days and cancels it once
// running; the job must stop promptly with state canceled.
func TestCancelMidRun(t *testing.T) {
	s := newTestServer(t, quickConfig())
	st := s.submit(t, hugeReplay(), 0)
	s.waitState(t, st.ID, StateRunning, 10*time.Second)
	start := time.Now()
	s.cancelJob(t, st.ID)
	final := s.waitState(t, st.ID, StateCanceled, 10*time.Second)
	if d := time.Since(start); d > 10*time.Second {
		t.Fatalf("cancellation took %v", d)
	}
	if final.Err == "" {
		t.Fatal("canceled job carries no error message")
	}
	// Result of a canceled job answers 410.
	resp, err := http.Get(s.ts.URL + "/jobs/" + st.ID + "/result")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusGone {
		t.Fatalf("result of canceled job: HTTP %d, want 410", resp.StatusCode)
	}
}

// TestQueueOverflow fills a 1-worker/1-slot server and checks the 429
// backpressure path, then releases the jobs.
func TestQueueOverflow(t *testing.T) {
	cfg := quickConfig()
	cfg.Workers = 1
	cfg.QueueDepth = 1
	s := newTestServer(t, cfg)

	running := s.submit(t, hugeReplay(), 0)
	s.waitState(t, running.ID, StateRunning, 10*time.Second)
	queued := s.submit(t, hugeReplay(), 0) // fills the single queue slot
	s.submit(t, quickReplay(), http.StatusTooManyRequests)

	if v := s.reg.Counter("server/jobs_rejected").Value(); v != 1 {
		t.Fatalf("jobs_rejected = %d, want 1", v)
	}
	s.cancelJob(t, queued.ID)
	s.cancelJob(t, running.ID)
	s.waitState(t, running.ID, StateCanceled, 10*time.Second)
	// With the worker free again, submissions are accepted once more.
	ok := s.submit(t, quickReplay(), 0)
	s.waitState(t, ok.ID, StateDone, 30*time.Second)
}

// TestCancelWhileQueued cancels a job before any worker picks it up; the
// worker must discard it without running.
func TestCancelWhileQueued(t *testing.T) {
	cfg := quickConfig()
	cfg.Workers = 1
	cfg.QueueDepth = 2
	s := newTestServer(t, cfg)

	running := s.submit(t, hugeReplay(), 0)
	s.waitState(t, running.ID, StateRunning, 10*time.Second)
	queued := s.submit(t, hugeReplay(), 0)
	s.cancelJob(t, queued.ID)
	if st := s.getStatus(t, queued.ID); st.State != StateCanceled {
		t.Fatalf("queued job state = %s after cancel, want canceled", st.State)
	}
	s.cancelJob(t, running.ID)
	s.waitState(t, running.ID, StateCanceled, 10*time.Second)
	// The canceled-while-queued job must never transition to running.
	if st := s.getStatus(t, queued.ID); st.State != StateCanceled || !st.Started.IsZero() {
		t.Fatalf("queued job ran anyway: %+v", st)
	}
}

// TestExperimentJobMatchesData: an experiment job's result is the same table
// secdir-experiments -csv writes, so each result encodes byte-identical to
// its committed data/ file.
func TestExperimentJobMatchesData(t *testing.T) {
	s := newTestServer(t, quickConfig())
	st := s.submit(t, JobSpec{Kind: KindExperiment, Experiments: []string{"A1", "F5", "T7"}}, 0)
	s.waitState(t, st.ID, StateDone, 30*time.Second)
	var body struct {
		Result []ExperimentResult `json:"result"`
	}
	s.getResult(t, st.ID, &body)
	if len(body.Result) != 3 {
		t.Fatalf("got %d results, want 3", len(body.Result))
	}
	for _, r := range body.Result {
		a, err := experiments.Lookup(r.ID)
		if err != nil {
			t.Fatal(err)
		}
		golden.Check(t, a.File, r.Header, r.Rows, false)
	}
}

// TestStreamNDJSON reads a job's progress stream: one JSON object per line,
// ending with a terminal event.
func TestStreamNDJSON(t *testing.T) {
	s := newTestServer(t, quickConfig())
	st := s.submit(t, JobSpec{Kind: KindExperiment, Experiments: []string{"A1", "F5", "T7"}}, 0)

	resp, err := http.Get(s.ts.URL + "/jobs/" + st.ID + "/stream")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); ct != "application/x-ndjson" {
		t.Fatalf("stream content type %q", ct)
	}
	var events []Event
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		var e Event
		if err := json.Unmarshal(sc.Bytes(), &e); err != nil {
			t.Fatalf("bad NDJSON line %q: %v", sc.Text(), err)
		}
		events = append(events, e)
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	if len(events) < 2 {
		t.Fatalf("stream delivered %d events, want at least start+finish", len(events))
	}
	last := events[len(events)-1]
	if last.State != StateDone || last.Stage != "finish" {
		t.Fatalf("stream's final event: %+v", last)
	}
	for i, e := range events {
		if e.JobID != st.ID {
			t.Fatalf("event %d has job id %q", i, e.JobID)
		}
		if i > 0 && e.Seq <= events[i-1].Seq {
			t.Fatalf("event sequence not increasing: %d then %d", events[i-1].Seq, e.Seq)
		}
	}
}

// stallWriter is a ResponseWriter whose first Write blocks until release is
// closed: a stream reader that has stopped reading.
type stallWriter struct {
	header  http.Header
	buf     bytes.Buffer
	once    sync.Once
	entered chan struct{}
	release chan struct{}
}

func (w *stallWriter) Header() http.Header { return w.header }
func (w *stallWriter) WriteHeader(int)     {}
func (w *stallWriter) Write(p []byte) (int, error) {
	w.once.Do(func() {
		close(w.entered)
		<-w.release
	})
	return w.buf.Write(p)
}

// decodeEvents parses an NDJSON event stream and checks that every event
// belongs to the job and that Seq increases.
func decodeEvents(t *testing.T, id string, body []byte) []Event {
	t.Helper()
	var events []Event
	sc := bufio.NewScanner(bytes.NewReader(body))
	for sc.Scan() {
		var e Event
		if err := json.Unmarshal(sc.Bytes(), &e); err != nil {
			t.Fatalf("bad NDJSON line %q: %v", sc.Text(), err)
		}
		if e.JobID != id {
			t.Fatalf("event %+v has the wrong job id, want %q", e, id)
		}
		if n := len(events); n > 0 && e.Seq <= events[n-1].Seq {
			t.Fatalf("event sequence not increasing: %d then %d", events[n-1].Seq, e.Seq)
		}
		events = append(events, e)
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	return events
}

// TestStreamStalledReaderGetsTerminalEvent: a stream reader that stalls
// while its job emits more progress events than its channel buffers, and
// then finishes, still sees the stream end with the terminal event — the
// events the non-blocking fan-out dropped are replayed from the job.
func TestStreamStalledReaderGetsTerminalEvent(t *testing.T) {
	s := newTestServer(t, quickConfig())
	ctx, cancel := context.WithCancel(context.Background())
	job := newJob("stall", JobSpec{Kind: KindLeak}, ctx, cancel, time.Now())
	s.srv.mu.Lock()
	s.srv.jobs[job.ID] = job
	s.srv.mu.Unlock()
	job.start(time.Now())

	w := &stallWriter{header: http.Header{}, entered: make(chan struct{}), release: make(chan struct{})}
	served := make(chan struct{})
	go func() {
		defer close(served)
		s.srv.ServeHTTP(w, httptest.NewRequest(http.MethodGet, "/jobs/stall/stream", nil))
	}()
	<-w.entered // subscribed, and blocked writing the start event
	const trials = 40
	for i := 1; i <= trials; i++ {
		job.progress("secdir/primeprobe", i, trials)
	}
	job.finish(StateDone, nil, nil, time.Now())
	close(w.release)
	<-served

	events := decodeEvents(t, job.ID, w.buf.Bytes())
	last := events[len(events)-1]
	if last.Stage != "finish" || last.State != StateDone || last.Done != trials {
		t.Fatalf("stalled stream ended with %+v after %d events, want the finish event", last, len(events))
	}
}

// TestStreamLateSubscriberCompactedHistory: a finished job keeps only the
// last event of each stage, so a subscriber arriving after the end of a leak
// job reads start, one event per grid cell and finish, still in increasing
// Seq.
func TestStreamLateSubscriberCompactedHistory(t *testing.T) {
	s := newTestServer(t, quickConfig())
	st := s.submit(t, JobSpec{
		Kind:       KindLeak,
		Configs:    []string{"skylake-unfixed", "secdir"},
		Strategies: []string{"evictreload"},
		Trials:     12,
		Rounds:     8,
	}, 0)
	s.waitState(t, st.ID, StateDone, 60*time.Second)

	resp, err := http.Get(s.ts.URL + "/jobs/" + st.ID + "/stream")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var body bytes.Buffer
	if _, err := body.ReadFrom(resp.Body); err != nil {
		t.Fatal(err)
	}
	events := decodeEvents(t, st.ID, body.Bytes())
	var stages []string
	for _, e := range events {
		stages = append(stages, e.Stage)
	}
	want := []string{"start", "skylake-unfixed/evictreload", "secdir/evictreload", "finish"}
	if strings.Join(stages, ",") != strings.Join(want, ",") {
		t.Fatalf("late subscriber's stages %v, want %v", stages, want)
	}
	if e := events[2]; e.Done != 24 || e.Total != 24 {
		t.Fatalf("last cell event %+v, want done=total=24", e)
	}
	if e := events[3]; e.State != StateDone || e.Done != 24 {
		t.Fatalf("finish event %+v", e)
	}
}

// TestGracefulDrain: draining lets a started job finish, then refuses new
// submissions with 503.
func TestGracefulDrain(t *testing.T) {
	s := newTestServer(t, quickConfig())
	st := s.submit(t, quickReplay(), 0)

	// Wait for a worker to pick the job up; a still-queued job would be
	// requeued by the drain rather than run.
	deadline := time.Now().Add(10 * time.Second)
	for s.getStatus(t, st.ID).State == StateQueued {
		if time.Now().After(deadline) {
			t.Fatalf("job %s never left the queue", st.ID)
		}
		time.Sleep(time.Millisecond)
	}

	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	requeued, err := s.srv.Drain(ctx)
	if err != nil {
		t.Fatalf("drain: %v", err)
	}
	if len(requeued) != 0 {
		t.Fatalf("drain requeued %v, want none (the job had started)", requeued)
	}
	if got := s.getStatus(t, st.ID); got.State != StateDone {
		t.Fatalf("job state after drain = %s, want done", got.State)
	}
	s.submit(t, quickReplay(), http.StatusServiceUnavailable)

	// healthz reports draining with 503.
	resp, err := http.Get(s.ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	var hb struct {
		Status string `json:"status"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&hb); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable || hb.Status != "draining" {
		t.Fatalf("healthz while draining: HTTP %d, status %q", resp.StatusCode, hb.Status)
	}
}

// TestDrainDeadlineCancelsJobs: a drain whose context expires cancels the
// in-flight jobs instead of waiting forever.
func TestDrainDeadlineCancelsJobs(t *testing.T) {
	s := newTestServer(t, quickConfig())
	st := s.submit(t, hugeReplay(), 0)
	s.waitState(t, st.ID, StateRunning, 10*time.Second)

	ctx, cancel := context.WithTimeout(context.Background(), 100*time.Millisecond)
	defer cancel()
	if _, err := s.srv.Drain(ctx); err != context.DeadlineExceeded {
		t.Fatalf("drain error = %v, want deadline exceeded", err)
	}
	if got := s.getStatus(t, st.ID); got.State != StateCanceled {
		t.Fatalf("job state after forced drain = %s, want canceled", got.State)
	}
}

// TestDrainRequeuesQueuedJobs: a graceful drain pulls queued-but-unstarted
// jobs back out of the queue, marks them requeued, and returns their IDs in
// submission order instead of dropping them.
func TestDrainRequeuesQueuedJobs(t *testing.T) {
	cfg := quickConfig()
	cfg.Workers = 1
	cfg.QueueDepth = 4
	s := newTestServer(t, cfg)

	running := s.submit(t, hugeReplay(), 0)
	s.waitState(t, running.ID, StateRunning, 10*time.Second)
	q1 := s.submit(t, quickReplay(), 0)
	q2 := s.submit(t, quickReplay(), 0)

	// Free the lone worker shortly after the drain starts so Drain can
	// return; the queued jobs must already have been pulled, not run.
	go func() {
		time.Sleep(200 * time.Millisecond)
		s.cancelJob(t, running.ID)
	}()
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	requeued, err := s.srv.Drain(ctx)
	if err != nil {
		t.Fatalf("drain: %v", err)
	}
	if len(requeued) != 2 || requeued[0] != q1.ID || requeued[1] != q2.ID {
		t.Fatalf("drain requeued %v, want [%s %s]", requeued, q1.ID, q2.ID)
	}
	for _, id := range requeued {
		st := s.getStatus(t, id)
		if st.State != StateRequeued || !st.Started.IsZero() {
			t.Fatalf("job %s after drain: %+v, want state requeued and never started", id, st)
		}
		if !strings.Contains(st.Err, "resubmit") {
			t.Fatalf("requeued job %s error %q does not tell the operator to resubmit", id, st.Err)
		}
		// A requeued job has no result.
		resp, err := http.Get(s.ts.URL + "/jobs/" + id + "/result")
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusGone {
			t.Fatalf("result of requeued job: HTTP %d, want 410", resp.StatusCode)
		}
	}
	if v := s.reg.Counter("server/jobs_requeued").Value(); v != 2 {
		t.Fatalf("server/jobs_requeued = %d, want 2", v)
	}
}

// TestJobTimeout: a job exceeding the per-job budget fails with a timeout
// error.
func TestJobTimeout(t *testing.T) {
	cfg := quickConfig()
	cfg.JobTimeout = 100 * time.Millisecond
	s := newTestServer(t, cfg)
	st := s.submit(t, hugeReplay(), 0)
	final := s.waitState(t, st.ID, StateFailed, 30*time.Second)
	if !strings.Contains(final.Err, "timeout") {
		t.Fatalf("timeout failure message: %q", final.Err)
	}
}

// TestBadSpecRejected: malformed and invalid submissions answer 400.
func TestBadSpecRejected(t *testing.T) {
	s := newTestServer(t, quickConfig())
	for _, body := range []string{
		`{`,
		`{"kind":"nope"}`,
		`{"kind":"replay","workload":"wat"}`, // parse failure happens at run time
		`{"kind":"experiment","experiments":["ZZ"]}`,
		`{"kind":"replay","cores":3}`,
		`{"unknown_field":1,"kind":"replay"}`,
	} {
		resp, err := http.Post(s.ts.URL+"/jobs", "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		want := http.StatusBadRequest
		if body == `{"kind":"replay","workload":"wat"}` {
			want = http.StatusAccepted // spec-valid; fails when run
		}
		if resp.StatusCode != want {
			t.Fatalf("submit %s: HTTP %d, want %d", body, resp.StatusCode, want)
		}
	}
}

// TestMetricz: after jobs complete, the merged snapshot carries both the
// server's operational counters and the folded per-job simulation counters.
func TestMetricz(t *testing.T) {
	s := newTestServer(t, quickConfig())
	st := s.submit(t, quickReplay(), 0)
	s.waitState(t, st.ID, StateDone, 30*time.Second)

	resp, err := http.Get(s.ts.URL + "/metricz")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var mb struct {
		Snapshot metrics.Snapshot `json:"snapshot"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&mb); err != nil {
		t.Fatal(err)
	}
	if got := mb.Snapshot.Counters["server/jobs_done"]; got != 1 {
		t.Fatalf("server/jobs_done = %d, want 1", got)
	}
	// The replay engine's counters were folded in from the job's child
	// registry.
	var simCounters int
	for name := range mb.Snapshot.Counters {
		if strings.HasPrefix(name, "engine/") || strings.HasPrefix(name, "dir/") {
			simCounters++
		}
	}
	if simCounters == 0 {
		t.Fatalf("no simulation counters in /metricz snapshot: %v", mb.Snapshot.Counters)
	}
}

// TestConcurrentJobsSharedRegistry is the -race stress test: many concurrent
// jobs hammer the one shared server registry (and their own child
// registries) while /metricz, /healthz and the job list are polled
// continuously.
func TestConcurrentJobsSharedRegistry(t *testing.T) {
	cfg := quickConfig()
	cfg.Workers = 4
	cfg.QueueDepth = 64
	s := newTestServer(t, cfg)

	const jobs = 24
	ids := make([]string, 0, jobs)
	var mu sync.Mutex
	var wg sync.WaitGroup
	for i := 0; i < jobs; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			spec := quickReplay()
			if i%3 == 0 {
				spec = JobSpec{Kind: KindExperiment, Experiments: []string{"A1", "F5", "T7"}}
			}
			st := s.submit(t, spec, 0)
			mu.Lock()
			ids = append(ids, st.ID)
			mu.Unlock()
		}(i)
	}

	stop := make(chan struct{})
	var pollers sync.WaitGroup
	for _, path := range []string{"/metricz", "/healthz", "/jobs"} {
		pollers.Add(1)
		go func(path string) {
			defer pollers.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				resp, err := http.Get(s.ts.URL + path)
				if err == nil {
					resp.Body.Close()
				}
				time.Sleep(time.Millisecond)
			}
		}(path)
	}

	wg.Wait()
	for _, id := range ids {
		s.waitState(t, id, StateDone, 60*time.Second)
	}
	close(stop)
	pollers.Wait()

	if v := s.reg.Counter("server/jobs_done").Value(); v != jobs {
		t.Fatalf("server/jobs_done = %d, want %d", v, jobs)
	}
}

// TestLeakJob runs the Monte-Carlo leakage lab through the job server: the
// leak kind normalizes, runs, streams trial-level progress over NDJSON, and
// serves a leakage.Report whose verdicts match the paper's claim.
func TestLeakJob(t *testing.T) {
	s := newTestServer(t, quickConfig())

	// A bad strategy name is rejected at submission time.
	s.submit(t, JobSpec{Kind: KindLeak, Strategies: []string{"nosuch"}}, http.StatusBadRequest)

	st := s.submit(t, JobSpec{
		Kind:       KindLeak,
		Configs:    []string{"skylake-unfixed", "secdir"},
		Strategies: []string{"evictreload"},
		Trials:     30,
		Rounds:     8,
	}, 0)

	// Stream the NDJSON progress while the job runs: trial-level events carry
	// the cell's stage label and climb toward the grid-wide trial total.
	resp, err := http.Get(s.ts.URL + "/jobs/" + st.ID + "/stream")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var sawTrials bool
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		var e Event
		if err := json.Unmarshal(sc.Bytes(), &e); err != nil {
			t.Fatalf("bad NDJSON line %q: %v", sc.Text(), err)
		}
		if strings.Contains(e.Stage, "/evictreload") {
			sawTrials = true
			if e.Total != 60 || e.Done < 1 || e.Done > 60 {
				t.Fatalf("trial progress event out of range: %+v", e)
			}
		}
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	if !sawTrials {
		t.Fatal("stream carried no trial-level leakage progress events")
	}

	s.waitState(t, st.ID, StateDone, 60*time.Second)
	var rb struct {
		State  JobState       `json:"state"`
		Result leakage.Report `json:"result"`
	}
	s.getResult(t, st.ID, &rb)
	if len(rb.Result.Verdicts) != 2 {
		t.Fatalf("leak result has %d verdicts, want 2: %+v", len(rb.Result.Verdicts), rb.Result)
	}
	base, ok := rb.Result.Find("skylake-unfixed", "evictreload")
	if !ok || !base.Leak {
		t.Fatalf("skylake-unfixed/evictreload: ok=%v verdict=%+v, want a leak", ok, base)
	}
	sec, ok := rb.Result.Find("secdir", "evictreload")
	if !ok || sec.Leak {
		t.Fatalf("secdir/evictreload: ok=%v verdict=%+v, want no leak", ok, sec)
	}
	// The job's leakage counters fold into the cumulative /metricz snapshot
	// once the job finishes.
	mresp, err := http.Get(s.ts.URL + "/metricz")
	if err != nil {
		t.Fatal(err)
	}
	defer mresp.Body.Close()
	var mb struct {
		Snapshot metrics.Snapshot `json:"snapshot"`
	}
	if err := json.NewDecoder(mresp.Body).Decode(&mb); err != nil {
		t.Fatal(err)
	}
	if v := mb.Snapshot.Counters["leakage/trials_total"]; v != 60 {
		t.Fatalf("/metricz leakage/trials_total = %d, want 60", v)
	}
}

// TestSubmitRefusesRetiredEngineOptions: the engine_shards and engine_window
// fields are no longer part of the job spec; the strict decoder refuses them
// with a 400 that names the field instead of silently running serially.
func TestSubmitRefusesRetiredEngineOptions(t *testing.T) {
	s := newTestServer(t, quickConfig())
	for _, field := range []string{"engine_shards", "engine_window"} {
		body := `{"kind":"replay","workload":"uniform:256","cores":2,"` + field + `":2}`
		resp, err := http.Post(s.ts.URL+"/jobs", "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		var e APIError
		_ = json.NewDecoder(resp.Body).Decode(&e)
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest || !strings.Contains(e.Error, field) {
			t.Errorf("%s: HTTP %d %q, want 400 naming the field", field, resp.StatusCode, e.Error)
		}
	}
}

// TestSubmitRefusesCoresBeyondBitset: a directory's sharer vector is one
// uint64, so every job kind refuses more than config.MaxCores cores at
// admission with a 400 naming the field, instead of simulating a machine
// whose cores 64 and up are never recorded as sharers. The cap itself is
// accepted.
func TestSubmitRefusesCoresBeyondBitset(t *testing.T) {
	s := newTestServer(t, quickConfig())
	for _, kind := range []string{"leak", "leaderboard", "replay", "attack"} {
		body := fmt.Sprintf(`{"kind":%q,"cores":128}`, kind)
		resp, err := http.Post(s.ts.URL+"/jobs", "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		var e APIError
		_ = json.NewDecoder(resp.Body).Decode(&e)
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest || !strings.Contains(e.Error, "cores") {
			t.Errorf("%s at 128 cores: HTTP %d %q, want 400 naming cores", kind, resp.StatusCode, e.Error)
		}
	}
	spec := JobSpec{Kind: KindLeak, Cores: config.MaxCores}
	if err := spec.Normalize(); err != nil {
		t.Errorf("cores at the cap refused: %v", err)
	}
}

// TestSubmitRefusesOversizedResamples: the bootstrap allocates one float64
// per replicate up front, so a resamples count above leakage.MaxResamples is
// refused at admission with a 400 naming the field; the cap itself is
// accepted.
func TestSubmitRefusesOversizedResamples(t *testing.T) {
	s := newTestServer(t, quickConfig())
	body := `{"kind":"leak","resamples":2000000000}`
	resp, err := http.Post(s.ts.URL+"/jobs", "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	var e APIError
	_ = json.NewDecoder(resp.Body).Decode(&e)
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest || !strings.Contains(e.Error, "resamples") {
		t.Errorf("resamples 2e9: HTTP %d %q, want 400 naming the field", resp.StatusCode, e.Error)
	}
	spec := JobSpec{Kind: KindLeak, Resamples: leakage.MaxResamples}
	if err := spec.Normalize(); err != nil {
		t.Errorf("resamples at the cap refused: %v", err)
	}
}
