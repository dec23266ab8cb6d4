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
// artifacts, a restart replays the ledger — finished jobs answer
// /jobs/{id}/result byte-identically again, jobs that were still queued are
// re-submitted — and /storez exposes the chain head. /versionz serves the
// binary's build info whether or not a store is attached: it is the same
// store.BuildInfo struct every ledger record carries.

// StoreRecovery summarises what AttachStore replayed from the ledger.
type StoreRecovery struct {
	// Restored counts terminal jobs (done/failed/canceled) whose state and
	// results are being served again.
	Restored int
	// Resubmitted lists the IDs of jobs that were queued or requeued when
	// the previous process stopped and are now queued to run again.
	Resubmitted []string
	// Dropped lists jobs the replay could not recover (unparseable spec,
	// missing artifact, queue full on resubmission), with reasons.
	Dropped []string
}

// AttachStore attaches st and replays its ledger into the job table. Call
// before serving traffic, at most once. Jobs whose last record is terminal
// come back terminal (done jobs serve their recorded result artifact
// byte-for-byte); jobs whose last record is "queued" or "requeued" are
// re-submitted onto the queue under their original IDs.
func (s *Server) AttachStore(st *store.Store) (*StoreRecovery, error) {
	recs, err := st.Records()
	if err != nil {
		return nil, fmt.Errorf("server: store replay: %w", err)
	}

	// Last job record wins: a job requeued by one process and completed by
	// the next has both records, and only the terminal one matters.
	last := map[string]store.RunRecord{}
	var order []string
	maxID := 0
	for _, rec := range recs {
		if rec.Kind != store.KindJob || rec.JobID == "" {
			continue
		}
		if _, seen := last[rec.JobID]; !seen {
			order = append(order, rec.JobID)
		}
		last[rec.JobID] = rec
		if n, err := strconv.Atoi(strings.TrimPrefix(rec.JobID, "job-")); err == nil && n > maxID {
			maxID = n
		}
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
			data, err := st.Artifact(rec.ResultDigest)
			if err != nil {
				rc.Dropped = append(rc.Dropped, id+": "+err.Error())
				continue
			}
			j := recoveredJob(id, spec, StateDone, json.RawMessage(data), nil, rec)
			s.jobs[id] = j
			s.order = append(s.order, id)
			rc.Restored++
		case string(StateFailed), string(StateCanceled):
			j := recoveredJob(id, spec, JobState(rec.State), nil, errors.New(rec.Err), rec)
			s.jobs[id] = j
			s.order = append(s.order, id)
			rc.Restored++
		case string(StateQueued), string(StateRequeued):
			if len(s.queue) == cap(s.queue) {
				rc.Dropped = append(rc.Dropped, id+": queue full on resubmission")
				continue
			}
			ctx, cancel := context.WithCancel(context.Background())
			j := newJob(id, spec, ctx, cancel, now)
			s.jobs[id] = j
			s.order = append(s.order, id)
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

// recoveredJob rebuilds a terminal job from its ledger record.
func recoveredJob(id string, spec JobSpec, state JobState, result any, err error, rec store.RunRecord) *Job {
	ctx, cancel := context.WithCancel(context.Background())
	cancel() // terminal: nothing to abort, but Cancel must stay safe to call
	j := newJob(id, spec, ctx, cancel, rec.Submitted)
	j.state = state
	j.started = rec.Started
	j.finished = rec.Finished
	j.result = result
	j.err = err
	return j
}

// storeHandle returns the attached store, or nil.
func (s *Server) storeHandle() *store.Store {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.st
}

// recordJob appends the job lifecycle record st to the ledger (a no-op
// without a store). result, when non-nil, is stored as a content-addressed
// artifact first. Failures never fail the job: they are counted and surfaced
// in /storez.
func (s *Server) recordJob(st JobStatus, result any) {
	if err := appendJob(s.storeHandle(), st, result); err != nil {
		s.noteStoreErr(err)
	}
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
	if err := appendJob(s.st, st, nil); err != nil {
		s.storeErrs.Inc()
		s.lastStoreErr = err.Error()
	}
	s.queue <- j
	return st
}

// appendJob appends the record of job status st to the store (a no-op when
// the store is nil), storing result as an artifact first when non-nil.
func appendJob(to *store.Store, st JobStatus, result any) error {
	if to == nil {
		return nil
	}
	rec, err := jobRecord(st)
	if err == nil && result != nil {
		rec.ResultDigest, err = to.PutArtifact(result)
	}
	if err == nil {
		_, err = to.Append(rec)
	}
	return err
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
