package server

import (
	"context"
	"encoding/json"
	"net/http"

	"secdir/internal/fleet"
	"secdir/internal/leakage"
	"secdir/internal/metrics"
)

// This file is the server's two fleet faces. Every server is a WORKER: it
// exposes POST /fleet/shard, executing one trial range of one (config,
// strategy) cell and streaming the per-trial results back as NDJSON. A
// server with a fleet.Coordinator attached (secdir-serve -fleet-workers) is
// additionally a COORDINATOR: it accepts fleet jobs (JobSpec.Fleet) and adds
// the per-worker liveness snapshot to GET /metricz.

// AttachFleet makes the server a fleet coordinator: leak and leaderboard
// jobs submitted with "fleet": true run across c's workers, and /metricz
// gains a fleet section. Call before serving traffic.
func (s *Server) AttachFleet(c *fleet.Coordinator) {
	s.mu.Lock()
	s.fleetC = c
	s.mu.Unlock()
}

// coordinator returns the attached coordinator, or nil.
func (s *Server) coordinator() *fleet.Coordinator {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.fleetC
}

// runFleetJob executes a Fleet job: the same sweep Run would execute
// in-process, run on the coordinator's workers instead. The merged result is
// the same Go value the local runner would have produced, so the job API's
// JSON is identical either way. With a store attached, the sweep's
// per-shard merge provenance (which worker computed which trial range)
// lands in the ledger as a KindFleetMerge record.
func (s *Server) runFleetJob(ctx context.Context, c *fleet.Coordinator, j *Job) (any, error) {
	return runSweep(ctx, j.Spec, nil, j.progress, func(ctx context.Context, o leakage.ReportOptions) (*leakage.Report, error) {
		rep, prov, err := c.Run(ctx, o)
		if err == nil {
			s.recordFleetMerge(j, prov)
		}
		return rep, err
	})
}

// handleShard executes one shard request and streams its trials as NDJSON:
// {"trial":{...}} lines in completion order, then {"eof":true,"count":N} —
// or {"error":"..."} if the shard fails mid-stream. 503 while draining, 429
// when every shard slot is busy (the coordinator retries with backoff).
func (s *Server) handleShard(w http.ResponseWriter, r *http.Request) {
	var req fleet.ShardRequest
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, 1<<20))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&req); err != nil {
		writeError(w, http.StatusBadRequest, "bad shard request: %v", err)
		return
	}
	opts, err := req.Options()
	if err != nil {
		writeError(w, http.StatusBadRequest, "bad shard request: %v", err)
		return
	}
	s.mu.Lock()
	draining := s.draining
	s.mu.Unlock()
	if draining {
		writeError(w, http.StatusServiceUnavailable, "server is draining; not accepting shards")
		return
	}
	select {
	case s.shardSem <- struct{}{}:
		defer func() { <-s.shardSem }()
	default:
		w.Header().Set("Retry-After", "1")
		writeError(w, http.StatusTooManyRequests, "all %d shard slots busy; retry later", cap(s.shardSem))
		return
	}
	s.shardsServed.Inc()

	w.Header().Set("Content-Type", "application/x-ndjson")
	w.WriteHeader(http.StatusOK)
	flusher, _ := w.(http.Flusher)
	enc := json.NewEncoder(w)
	count := 0
	emit := func(tr leakage.TrialResult) { // serialized by RunShard
		t := tr
		_ = enc.Encode(fleet.ShardLine{Trial: &t})
		count++
		if flusher != nil {
			flusher.Flush()
		}
	}

	// The shard records into a registry of its own, folded into the
	// cumulative snapshot once the shard ends — the same per-job cut
	// runJob gives each job.
	shardReg := metrics.New()
	opts.Metrics = shardReg
	_, err = leakage.RunShard(r.Context(), opts, req.Start, req.Count, emit)
	snap := shardReg.Snapshot()
	s.mu.Lock()
	s.cum = s.cum.Merge(snap)
	s.mu.Unlock()

	if err != nil {
		_ = enc.Encode(fleet.ShardLine{Err: err.Error()})
	} else {
		_ = enc.Encode(fleet.ShardLine{EOF: true, Count: count})
	}
	if flusher != nil {
		flusher.Flush()
	}
}
