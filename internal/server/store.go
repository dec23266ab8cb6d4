package server

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"strconv"
	"strings"
	"time"

	"secdir/internal/fleet"
	"secdir/internal/store"
)

// This file is the server's provenance face: with a store attached
// (AttachStore, secdir-serve -store-dir) every job lifecycle lands in the
// hash-chained run ledger, completed results become content-addressed
// artifacts, a done job's result leaves memory once its record is durable
// and is served from the store from then on, a restart replays the ledger —
// finished jobs answer /jobs/{id}/result byte-identically again, jobs that
// were still queued are re-submitted — and /storez exposes the chain head.
// /versionz serves the binary's build info whether or not a store is
// attached: it is the same store.BuildInfo struct every ledger record
// carries.

// StoreRecovery summarises what AttachStore replayed from the ledger.
type StoreRecovery struct {
	// Restored counts terminal jobs (done/failed/canceled) whose state and
	// results are being served again.
	Restored int
	// Resubmitted lists the IDs of jobs that were queued or requeued when
	// the previous process stopped and are now queued to run again.
	Resubmitted []string
	// Dropped lists jobs the replay could not recover (unparseable or
	// invalid spec, missing artifact, a full or draining queue on
	// resubmission), with reasons.
	Dropped []string
}

// AttachStore attaches st and replays its ledger into the job table. Call
// before serving traffic, at most once. Jobs whose last record is terminal
// come back terminal (done jobs serve their recorded result artifact
// byte-for-byte, read from the store on each request); jobs whose last
// record is "queued" or "requeued" are re-submitted onto the queue under
// their original IDs. The ledger is streamed, and no result is held in
// memory.
func (s *Server) AttachStore(st *store.Store) (*StoreRecovery, error) {
	if err := st.Flush(); err != nil {
		return nil, fmt.Errorf("server: store replay: %w", err)
	}
	// Last job record wins: a job requeued by one process and completed by
	// the next has both records, and only the terminal one matters.
	last := map[string]store.RunRecord{}
	var order []string
	maxID := 0
	err := store.ScanRecords(st.Backend(), func(rec store.RunRecord) error {
		if rec.Kind != store.KindJob || rec.JobID == "" {
			return nil
		}
		if _, seen := last[rec.JobID]; !seen {
			order = append(order, rec.JobID)
		}
		last[rec.JobID] = rec
		if n, err := strconv.Atoi(strings.TrimPrefix(rec.JobID, "job-")); err == nil && n > maxID {
			maxID = n
		}
		return nil
	})
	if err != nil {
		return nil, fmt.Errorf("server: store replay: %w", err)
	}

	rc := &StoreRecovery{}
	now := time.Now()
	s.mu.Lock()
	defer s.mu.Unlock()
	s.st = st
	for _, id := range order {
		rec := last[id]
		if _, exists := s.jobs[id]; exists {
			continue
		}
		var spec JobSpec
		if err := json.Unmarshal(rec.Spec, &spec); err != nil {
			rc.Dropped = append(rc.Dropped, id+": unparseable spec: "+err.Error())
			continue
		}
		switch rec.State {
		case string(StateDone):
			// Read once so a missing artifact drops the job now rather than
			// failing its every result request; the bytes are not kept.
			if _, err := st.Backend().GetArtifact(rec.ResultDigest); err != nil {
				rc.Dropped = append(rc.Dropped, id+": "+err.Error())
				continue
			}
			s.restoreLocked(recoveredJob(id, spec, StateDone, rec.ResultDigest, nil, rec))
			rc.Restored++
		case string(StateFailed), string(StateCanceled):
			s.restoreLocked(recoveredJob(id, spec, JobState(rec.State), "", errors.New(rec.Err), rec))
			rc.Restored++
		case string(StateQueued), string(StateRequeued):
			if err := spec.Normalize(); err != nil {
				rc.Dropped = append(rc.Dropped, id+": invalid spec: "+err.Error())
				continue
			}
			if s.draining {
				rc.Dropped = append(rc.Dropped, id+": server draining; not resubmitted")
				continue
			}
			if len(s.queue) == cap(s.queue) {
				rc.Dropped = append(rc.Dropped, id+": queue full on resubmission")
				continue
			}
			ctx, cancel := context.WithCancel(context.Background())
			j := newJob(id, spec, ctx, cancel, now)
			s.restoreLocked(j)
			rc.Resubmitted = append(rc.Resubmitted, id)
			// The resubmission itself is an auditable event: the job gets a
			// fresh "queued" record, so the ledger reads
			// queued → requeued → queued → done across the restart.
			s.enqueueLocked(j)
		default:
			rc.Dropped = append(rc.Dropped, id+": unknown recorded state "+rec.State)
		}
	}
	if maxID > s.nextID {
		s.nextID = maxID
	}
	return rc, nil
}

// restoreLocked adds a replayed job to the job table; s.mu is held.
func (s *Server) restoreLocked(j *Job) {
	s.jobs[j.ID] = j
	s.order = append(s.order, j.ID)
}

// recoveredJob rebuilds a terminal job from its ledger record; a done job
// carries the digest of its durable result artifact.
func recoveredJob(id string, spec JobSpec, state JobState, digest string, err error, rec store.RunRecord) *Job {
	return &Job{
		ID:        id,
		Spec:      spec,
		state:     state,
		submitted: rec.Submitted,
		started:   rec.Started,
		finished:  rec.Finished,
		digest:    digest,
		err:       err,
	}
}

// retired is a done job waiting for its terminal record to become durable,
// at which point its in-memory result is shed.
type retired struct {
	job    *Job
	index  int64  // the terminal record's ledger index
	digest string // the result artifact's digest
}

// retire queues done job j, whose terminal record rec references its
// result artifact, for shedding, and sheds every queued job whose record
// the store now reports durable.
func (s *Server) retire(j *Job, rec store.RunRecord) {
	s.mu.Lock()
	s.retiring = append(s.retiring, retired{job: j, index: rec.Index, digest: rec.ResultDigest})
	s.shedDurableLocked()
	s.mu.Unlock()
}

// shedDurableLocked sheds the retiring jobs, oldest first, whose terminal
// records are at or below the store's durable watermark; s.mu is held. The
// watermark rather than a Flush decides, so no job's finish waits for I/O.
// Each job is shed once and the queue's storage is reused, so shedding
// costs O(1) amortised per job and allocates nothing in steady state.
func (s *Server) shedDurableLocked() {
	durable := s.st.Durable()
	q, i := s.retiring, s.retiredHead
	for ; i < len(q) && q[i].index <= durable; i++ {
		q[i].job.shed(q[i].digest)
		q[i] = retired{}
	}
	switch {
	case i == len(q):
		q, i = q[:0], 0
	case i > len(q)/2:
		n := copy(q, q[i:])
		clear(q[n:])
		q, i = q[:n], 0
	}
	s.retiring, s.retiredHead = q, i
}

// storeHandle returns the attached store, or nil.
func (s *Server) storeHandle() *store.Store {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.st
}

// recordJob appends the job lifecycle record st to the ledger (a no-op
// without a store) and returns the appended record. result, when non-nil,
// is stored as a content-addressed artifact first. Failures never fail the
// job: they are counted and surfaced in /storez, and the zero record is
// returned.
func (s *Server) recordJob(st JobStatus, result any) store.RunRecord {
	rec, err := appendJob(s.storeHandle(), st, result)
	if err != nil {
		s.noteStoreErr(err)
	}
	return rec
}

// enqueueLocked appends j's "queued" record and hands j to the worker pool,
// returning the status it recorded. The caller holds s.mu and has checked
// that the queue has room; every sender holds s.mu, so the send cannot
// block. The record goes first so no worker can start the job — let alone
// append its terminal record — before the ledger says it was queued:
// AttachStore's last-record-wins replay would otherwise re-run a finished
// job.
func (s *Server) enqueueLocked(j *Job) JobStatus {
	st := j.Status()
	if _, err := appendJob(s.st, st, nil); err != nil {
		s.storeErrs.Inc()
		s.lastStoreErr = err.Error()
	}
	s.queue <- j
	return st
}

// appendJob appends the record of job status st to the store (a no-op when
// the store is nil), storing result as an artifact first when non-nil, and
// returns the appended record.
func appendJob(to *store.Store, st JobStatus, result any) (store.RunRecord, error) {
	if to == nil {
		return store.RunRecord{}, nil
	}
	rec, err := jobRecord(st)
	if err == nil && result != nil {
		rec.ResultDigest, err = to.PutArtifact(result)
	}
	if err != nil {
		return store.RunRecord{}, err
	}
	return to.Append(rec)
}

// jobRecord builds the ledger record describing job status st.
func jobRecord(st JobStatus) (store.RunRecord, error) {
	spec, err := store.CanonicalJSON(st.Spec)
	if err != nil {
		return store.RunRecord{}, err
	}
	rec := store.RunRecord{
		Kind:      store.KindJob,
		JobID:     st.ID,
		State:     string(st.State),
		Spec:      spec,
		Seed:      st.Spec.Seed,
		Strategy:  strings.Join(st.Spec.Strategies, ","),
		Submitted: st.Submitted,
		Started:   st.Started,
		Finished:  st.Finished,
		Err:       st.Err,
	}
	return rec, nil
}

// recordFleetMerge appends a KindFleetMerge ledger record for a completed
// fleet sweep: its artifact is the per-shard provenance list — which worker's
// result each trial range of each cell was merged from. A no-op without a
// store; failures are counted, never fatal to the job.
func (s *Server) recordFleetMerge(j *Job, prov []fleet.ShardProvenance) {
	st := s.storeHandle()
	if st == nil || len(prov) == 0 {
		return
	}
	dig, err := st.PutArtifact(prov)
	if err == nil {
		_, err = st.Append(store.RunRecord{
			Kind:         store.KindFleetMerge,
			JobID:        j.ID,
			Name:         string(j.Spec.Kind),
			Seed:         j.Spec.Seed,
			Strategy:     strings.Join(j.Spec.Strategies, ","),
			ResultDigest: dig,
		})
	}
	if err != nil {
		s.noteStoreErr(err)
	}
}

// noteStoreErr counts a store write failure and keeps the latest message for
// /storez.
func (s *Server) noteStoreErr(err error) {
	s.storeErrs.Inc()
	s.mu.Lock()
	s.lastStoreErr = err.Error()
	s.mu.Unlock()
}

// storezBody is the JSON shape of GET /storez: the chain head and artifact
// accounting of the attached store.
type storezBody struct {
	// Stats is the store's live accounting (chain head, record/artifact
	// counts, batcher state).
	Stats store.Stats `json:"stats"`
	// ArtifactsOnBackend counts artifacts present on the backend, including
	// ones written by earlier processes.
	ArtifactsOnBackend int `json:"artifacts_on_backend"`
	// LastError is the most recent store write failure ("" when healthy).
	LastError string `json:"last_error,omitempty"`
}

// handleStorez serves the store's chain head and counters; 404 when the
// server runs without a store.
func (s *Server) handleStorez(w http.ResponseWriter, r *http.Request) {
	st := s.storeHandle()
	if st == nil {
		writeError(w, http.StatusNotFound, "this server has no experiment store attached (start with -store-dir)")
		return
	}
	arts, err := st.Backend().ListArtifacts()
	if err != nil {
		writeError(w, http.StatusInternalServerError, "%v", err)
		return
	}
	s.mu.Lock()
	lastErr := s.lastStoreErr
	s.mu.Unlock()
	writeJSON(w, http.StatusOK, storezBody{
		Stats:              st.Stats(),
		ArtifactsOnBackend: len(arts),
		LastError:          lastErr,
	})
}

// handleVersionz serves the binary's build info — module path and version,
// VCS revision, go version — the exact struct each ledger record's "build"
// field carries, so operators can check a running server against its ledger.
func (s *Server) handleVersionz(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, store.Build())
}
