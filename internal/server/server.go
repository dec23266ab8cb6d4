package server

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"sync"
	"time"

	"secdir/internal/config"
	"secdir/internal/fleet"
	"secdir/internal/metrics"
	"secdir/internal/store"
)

// Server is the secdir-serve job server: a bounded queue feeding a worker
// pool, a job table, and an http.Handler exposing the job API. Create one
// with New; it starts accepting work immediately and stops via Drain.
//
// Metrics strategy: the server's own instruments (queue depth, job counts,
// durations) live in the shared registry passed to New, which is
// goroutine-safe. Each job's engines register in a per-job child registry
// instead, so a job's IPC series and occupancy gauges are not interleaved
// with those of concurrent jobs; when the job finishes the child's snapshot
// is folded into a cumulative snapshot under the server's lock, and /metricz
// serves the merge of the two.
type Server struct {
	cfg config.ServerConfig
	reg *metrics.Registry
	mux *http.ServeMux

	queue chan *Job
	wg    sync.WaitGroup

	// shardSem bounds concurrently executing /fleet/shard calls to the
	// worker-pool width (each shard fans out internally).
	shardSem chan struct{}

	mu       sync.Mutex
	jobs     map[string]*Job
	order    []string // submission order, for listing
	nextID   int
	draining bool
	// fleetC, when non-nil, makes this server a fleet coordinator
	// (AttachFleet).
	fleetC *fleet.Coordinator
	// st, when non-nil, is the experiment store every job lifecycle is
	// recorded in (AttachStore); lastStoreErr is the most recent write
	// failure, surfaced by /storez.
	st           *store.Store
	lastStoreErr string
	// retiring queues done jobs, from retiredHead on, whose results stay in
	// memory until their terminal records are durable (retire).
	retiring    []retired
	retiredHead int
	// cum accumulates the per-job child registries of finished jobs.
	cum metrics.Snapshot

	submitted    *metrics.Counter
	rejected     *metrics.Counter
	done         *metrics.Counter
	failed       *metrics.Counter
	canceled     *metrics.Counter
	requeuedJobs *metrics.Counter
	shardsServed *metrics.Counter
	storeErrs    *metrics.Counter
	jobMillis    *metrics.Histogram
}

// New builds a server from cfg, registering its operational instruments in
// reg (pass metrics.New() or an existing registry; nil creates a private
// one), and starts its worker pool.
func New(cfg config.ServerConfig, reg *metrics.Registry) (*Server, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if reg == nil {
		reg = metrics.New()
	}
	s := &Server{
		cfg:          cfg,
		reg:          reg,
		queue:        make(chan *Job, cfg.QueueDepth),
		shardSem:     make(chan struct{}, cfg.ResolvedWorkers()),
		jobs:         map[string]*Job{},
		submitted:    reg.Counter("server/jobs_submitted"),
		rejected:     reg.Counter("server/jobs_rejected"),
		done:         reg.Counter("server/jobs_done"),
		failed:       reg.Counter("server/jobs_failed"),
		canceled:     reg.Counter("server/jobs_canceled"),
		requeuedJobs: reg.Counter("server/jobs_requeued"),
		shardsServed: reg.Counter("server/shards_served"),
		storeErrs:    reg.Counter("server/store_errors"),
		jobMillis:    reg.Histogram("server/job_millis"),
	}
	reg.GaugeFunc("server/queue_depth", func() float64 { return float64(len(s.queue)) })

	s.mux = http.NewServeMux()
	s.mux.HandleFunc("POST /jobs", s.handleSubmit)
	s.mux.HandleFunc("GET /jobs", s.handleList)
	s.mux.HandleFunc("GET /jobs/{id}", s.handleStatus)
	s.mux.HandleFunc("GET /jobs/{id}/result", s.handleResult)
	s.mux.HandleFunc("POST /jobs/{id}/cancel", s.handleCancel)
	s.mux.HandleFunc("GET /jobs/{id}/stream", s.handleStream)
	s.mux.HandleFunc("GET /healthz", s.handleHealth)
	s.mux.HandleFunc("GET /metricz", s.handleMetrics)
	s.mux.HandleFunc("GET /storez", s.handleStorez)
	s.mux.HandleFunc("GET /versionz", s.handleVersionz)
	s.mux.HandleFunc("POST /fleet/shard", s.handleShard)

	for i := 0; i < cfg.ResolvedWorkers(); i++ {
		s.wg.Add(1)
		go s.worker()
	}
	return s, nil
}

// ServeHTTP implements http.Handler.
func (s *Server) ServeHTTP(w http.ResponseWriter, r *http.Request) { s.mux.ServeHTTP(w, r) }

// Drain stops accepting submissions, pulls queued-but-unstarted jobs back
// out of the queue — marking them "requeued" and returning their IDs so the
// operator can resubmit them elsewhere instead of losing them; with a store
// attached each requeued job is also persisted to the ledger, so the next
// -store-dir start re-submits them automatically — then lets running jobs
// finish and returns when the pool is idle. If ctx expires first, every
// remaining job is cancelled and Drain waits for the (now fast) pool
// shutdown before returning ctx's error. An attached fleet coordinator is
// drained too. Safe to call more than once.
func (s *Server) Drain(ctx context.Context) ([]string, error) {
	s.mu.Lock()
	already := s.draining
	s.draining = true
	var requeued []string
	var requeuedJobs []*Job
	if !already {
		// The pool keeps receiving concurrently; whatever it grabs before the
		// close simply runs to completion, which drain waits for anyway. Only
		// jobs still sitting in the channel are handed back.
		now := time.Now()
	pull:
		for {
			select {
			case j := <-s.queue:
				if j.requeue(now) {
					s.requeuedJobs.Inc()
					requeued = append(requeued, j.ID)
					requeuedJobs = append(requeuedJobs, j)
				}
			default:
				break pull
			}
		}
		close(s.queue)
	}
	fc := s.fleetC
	s.mu.Unlock()
	for _, j := range requeuedJobs {
		s.recordJob(j.Status(), nil)
	}

	idle := make(chan struct{})
	go func() {
		s.wg.Wait()
		close(idle)
	}()
	var err error
	select {
	case <-idle:
	case <-ctx.Done():
		s.mu.Lock()
		jobs := make([]*Job, 0, len(s.jobs))
		for _, j := range s.jobs {
			jobs = append(jobs, j)
		}
		s.mu.Unlock()
		for _, j := range jobs {
			s.cancel(j)
		}
		<-idle
		err = ctx.Err()
	}
	if fc != nil {
		if derr := fc.Drain(ctx); err == nil {
			err = derr
		}
	}
	return requeued, err
}

// worker executes jobs from the queue until the queue closes (Drain).
func (s *Server) worker() {
	defer s.wg.Done()
	for job := range s.queue {
		s.runJob(job)
	}
}

// runJob executes one job: per-job timeout, per-job child metrics registry,
// terminal-state accounting, cumulative snapshot fold.
func (s *Server) runJob(j *Job) {
	ctx, ok := j.start(time.Now())
	if !ok {
		return // canceled while queued; Cancel recorded its end
	}
	if s.cfg.JobTimeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, s.cfg.JobTimeout)
		defer cancel()
	}

	// The job records into a child registry of its own, so its IPC series
	// and dir/* gauges are its cut alone, not interleaved with those of
	// jobs running beside it.
	jobReg := metrics.New()
	start := time.Now()
	var result any
	var err error
	if j.Spec.Fleet {
		if c := s.coordinator(); c != nil {
			result, err = s.runFleetJob(ctx, c, j)
		} else {
			err = fmt.Errorf("fleet job on a server with no coordinator attached")
		}
	} else {
		result, err = Run(ctx, j.Spec, jobReg, j.progress)
	}
	s.jobMillis.Observe(uint64(time.Since(start).Milliseconds()))

	var state JobState
	switch {
	case err == nil:
		state = StateDone
		s.done.Inc()
	case errors.Is(err, context.Canceled):
		state = StateCanceled
		s.canceled.Inc()
	case errors.Is(err, context.DeadlineExceeded):
		state = StateFailed
		err = fmt.Errorf("job exceeded %v timeout: %w", s.cfg.JobTimeout, err)
		s.failed.Inc()
	default:
		state = StateFailed
		s.failed.Inc()
	}
	// The job's engines are released and their gauges folded; merge the job
	// into the cumulative snapshot before the state is published, so a
	// client that sees the job finished also finds its counters on /metricz.
	snap := jobReg.Snapshot()
	s.mu.Lock()
	s.cum = s.cum.Merge(snap)
	s.mu.Unlock()

	// Only this worker can end a running job, so the terminal record can be
	// written before the state is published: a client that sees the job
	// finished also finds it finished in the ledger.
	now := time.Now()
	st := j.Status()
	st.State, st.Finished, st.Err = state, now, ""
	if err != nil {
		st.Err = err.Error()
	}
	rec := s.recordJob(st, result)
	j.finish(state, result, err, now)
	if rec.ResultDigest != "" { // done, with the result recorded as an artifact
		s.retire(j, rec)
	}
}

// APIError is the JSON error body every non-2xx response carries.
type APIError struct {
	// Error is the human-readable message.
	Error string `json:"error"`
}

// writeJSON encodes v with status code.
func writeJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	_ = enc.Encode(v)
}

// writeError sends an APIError.
func writeError(w http.ResponseWriter, code int, format string, args ...any) {
	writeJSON(w, code, APIError{Error: fmt.Sprintf(format, args...)})
}

// decodeJobSpec reads one submitted JobSpec strictly (an unknown field is
// an error) and normalizes it.
func decodeJobSpec(r io.Reader) (JobSpec, error) {
	var spec JobSpec
	dec := json.NewDecoder(r)
	dec.DisallowUnknownFields()
	if err := dec.Decode(&spec); err != nil {
		return JobSpec{}, err
	}
	return spec, spec.Normalize()
}

// handleSubmit accepts a JobSpec, queues it, and answers 202 with the job
// status; 400 on a bad spec, 429 when the queue is full, 503 while draining.
func (s *Server) handleSubmit(w http.ResponseWriter, r *http.Request) {
	spec, err := decodeJobSpec(http.MaxBytesReader(w, r.Body, 1<<20))
	if err != nil {
		writeError(w, http.StatusBadRequest, "bad job spec: %v", err)
		return
	}
	if spec.Fleet && s.coordinator() == nil {
		writeError(w, http.StatusBadRequest,
			"bad job spec: fleet jobs need a coordinator (start the server with -fleet-workers)")
		return
	}

	s.mu.Lock()
	if s.draining {
		s.mu.Unlock()
		writeError(w, http.StatusServiceUnavailable, "server is draining; not accepting jobs")
		return
	}
	if len(s.queue) == cap(s.queue) {
		s.mu.Unlock()
		s.rejected.Inc()
		w.Header().Set("Retry-After", "1")
		writeError(w, http.StatusTooManyRequests,
			"job queue full (%d queued); retry later", s.cfg.QueueDepth)
		return
	}
	s.nextID++
	id := fmt.Sprintf("job-%d", s.nextID)
	ctx, cancel := context.WithCancel(context.Background())
	job := newJob(id, spec, ctx, cancel, time.Now())
	s.jobs[id] = job
	s.order = append(s.order, id)
	// The status is taken before a worker can see the job, so the 202 always
	// says queued. The queued record is what lets a -store-dir restart
	// re-submit jobs a SIGKILL caught before they finished.
	status := s.enqueueLocked(job)
	s.mu.Unlock()
	s.submitted.Inc()
	writeJSON(w, http.StatusAccepted, status)
}

// lookup resolves {id} or writes a 404.
func (s *Server) lookup(w http.ResponseWriter, r *http.Request) *Job {
	id := r.PathValue("id")
	s.mu.Lock()
	job := s.jobs[id]
	s.mu.Unlock()
	if job == nil {
		writeError(w, http.StatusNotFound, "no such job %q", id)
	}
	return job
}

// handleList answers with every job's status in submission order.
func (s *Server) handleList(w http.ResponseWriter, r *http.Request) {
	s.mu.Lock()
	jobs := make([]*Job, 0, len(s.order))
	for _, id := range s.order {
		jobs = append(jobs, s.jobs[id])
	}
	s.mu.Unlock()
	out := make([]JobStatus, len(jobs))
	for i, j := range jobs {
		out[i] = j.Status()
	}
	writeJSON(w, http.StatusOK, out)
}

// handleStatus answers one job's status.
func (s *Server) handleStatus(w http.ResponseWriter, r *http.Request) {
	if job := s.lookup(w, r); job != nil {
		writeJSON(w, http.StatusOK, job.Status())
	}
}

// ResultBody is the JSON shape of GET /jobs/{id}/result.
type ResultBody struct {
	// ID and State identify the job and its terminal state.
	ID string `json:"id"`
	// State is the job's state at read time.
	State JobState `json:"state"`
	// Result is the kind-specific payload. A client decodes it into the
	// expected type by setting Result to a pointer to that type first.
	Result any `json:"result"`
}

// handleResult answers the result of a done job; 409 while the job is still
// pending, 410 for failed/cancelled jobs.
func (s *Server) handleResult(w http.ResponseWriter, r *http.Request) {
	job := s.lookup(w, r)
	if job == nil {
		return
	}
	res, digest, err := job.Result()
	if err != nil {
		if job.State().Terminal() {
			writeError(w, http.StatusGone, "%v", err)
		} else {
			writeError(w, http.StatusConflict, "%v", err)
		}
		return
	}
	if digest != "" {
		// Shed: the artifact is durable, so it is read back without a
		// flush. Its bytes are the canonical JSON of the result, which
		// encodes exactly as the value did.
		data, err := s.storeHandle().Backend().GetArtifact(digest)
		if err != nil {
			writeError(w, http.StatusInternalServerError, "%v", err)
			return
		}
		res = json.RawMessage(data)
	}
	writeJSON(w, http.StatusOK, ResultBody{ID: job.ID, State: StateDone, Result: res})
}

// handleCancel cancels a job (queued or running) and answers its status.
func (s *Server) handleCancel(w http.ResponseWriter, r *http.Request) {
	job := s.lookup(w, r)
	if job == nil {
		return
	}
	s.cancel(job)
	writeJSON(w, http.StatusOK, job.Status())
}

// cancel cancels j; a job still queued gets its "canceled" record in the
// ledger before any client can see it canceled, so a restart restores it as
// canceled instead of resubmitting it.
func (s *Server) cancel(j *Job) {
	st := s.storeHandle()
	err := j.Cancel(time.Now(), func(js JobStatus) error {
		_, err := appendJob(st, js, nil)
		return err
	})
	if err != nil {
		s.noteStoreErr(err)
	}
}

// handleStream streams the job's progress events as NDJSON (one JSON object
// per line), flushing per event, until the job finishes or the client goes
// away.
func (s *Server) handleStream(w http.ResponseWriter, r *http.Request) {
	job := s.lookup(w, r)
	if job == nil {
		return
	}
	history, ch, unsub := job.Subscribe()
	defer unsub()

	w.Header().Set("Content-Type", "application/x-ndjson")
	w.WriteHeader(http.StatusOK)
	flusher, _ := w.(http.Flusher)
	enc := json.NewEncoder(w)
	lastSeq := 0
	emit := func(events ...Event) bool {
		for _, e := range events {
			if err := enc.Encode(e); err != nil {
				return false
			}
			lastSeq = e.Seq
		}
		if flusher != nil {
			flusher.Flush()
		}
		return true
	}
	if !emit(history...) {
		return
	}
	for {
		select {
		case e, ok := <-ch:
			if !ok {
				// Terminal. Replay whatever the non-blocking fan-out
				// dropped while this reader lagged, so the stream always
				// ends with the terminal event.
				emit(job.EventsAfter(lastSeq)...)
				return
			}
			if !emit(e) {
				return
			}
		case <-r.Context().Done():
			return
		}
	}
}

// healthBody is the JSON shape of GET /healthz.
type healthBody struct {
	// Status is "ok" or "draining".
	Status string `json:"status"`
	// Queued and Running count jobs by live state; Workers is the pool
	// width.
	Queued int `json:"queued"`
	// Running counts jobs currently executing.
	Running int `json:"running"`
	// Workers is the worker-pool width.
	Workers int `json:"workers"`
}

// handleHealth reports liveness and load.
func (s *Server) handleHealth(w http.ResponseWriter, r *http.Request) {
	s.mu.Lock()
	body := healthBody{Status: "ok", Workers: s.cfg.ResolvedWorkers()}
	if s.draining {
		body.Status = "draining"
	}
	jobs := make([]*Job, 0, len(s.jobs))
	for _, j := range s.jobs {
		jobs = append(jobs, j)
	}
	s.mu.Unlock()
	for _, j := range jobs {
		switch j.State() {
		case StateQueued:
			body.Queued++
		case StateRunning:
			body.Running++
		}
	}
	code := http.StatusOK
	if body.Status != "ok" {
		code = http.StatusServiceUnavailable
	}
	writeJSON(w, code, body)
}

// metricsBody is the JSON shape of GET /metricz: the server's operational
// instruments merged with the cumulative simulation counters of every
// finished job, plus — on a coordinator — the fleet's per-worker status.
type metricsBody struct {
	// Snapshot is the merged registry snapshot.
	Snapshot metrics.Snapshot `json:"snapshot"`
	// Fleet is the coordinator's per-worker view (absent on plain servers).
	Fleet []fleet.WorkerStatus `json:"fleet,omitempty"`
}

// handleMetrics serves the merged metrics snapshot.
func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	live := s.reg.Snapshot()
	s.mu.Lock()
	cum := s.cum
	s.mu.Unlock()
	body := metricsBody{Snapshot: cum.Merge(live)}
	if c := s.coordinator(); c != nil {
		body.Fleet = c.Workerz()
	}
	writeJSON(w, http.StatusOK, body)
}
