package server

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"reflect"
	"testing"
	"time"

	"secdir/internal/config"
	"secdir/internal/metrics"
	"secdir/internal/store"
)

// storedServer is a testServer with a disk-backed experiment store attached,
// plus the pieces a test needs to "restart" it against the same directory.
type storedServer struct {
	*testServer
	st  *store.Store
	dir string
	rc  *StoreRecovery
}

// newStoredServer builds a server over a disk store at dir, replaying
// whatever ledger is already there.
func newStoredServer(t *testing.T, cfg config.ServerConfig, dir string) *storedServer {
	t.Helper()
	b, err := store.OpenDisk(dir)
	if err != nil {
		t.Fatal(err)
	}
	// A tight flush interval keeps tests fast without changing semantics.
	st, err := store.Open(b, store.Options{FlushInterval: 5 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	reg := metrics.New()
	srv, err := New(cfg, reg)
	if err != nil {
		t.Fatal(err)
	}
	rc, err := srv.AttachStore(st)
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv)
	s := &storedServer{
		testServer: &testServer{srv: srv, ts: ts, reg: reg},
		st:         st,
		dir:        dir,
		rc:         rc,
	}
	t.Cleanup(func() { s.shutdown(t) })
	return s
}

// shutdown drains the server and closes the store; safe to call twice.
func (s *storedServer) shutdown(t *testing.T) {
	t.Helper()
	if s.ts == nil {
		return
	}
	s.ts.Close()
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	_, _ = s.srv.Drain(ctx)
	if err := s.st.Close(); err != nil {
		t.Errorf("store close: %v", err)
	}
	s.ts = nil
}

// resultBytes fetches a done job's raw result body.
func (s *storedServer) resultBytes(t *testing.T, id string) []byte {
	t.Helper()
	resp, err := http.Get(s.ts.URL + "/jobs/" + id + "/result")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("result %s: HTTP %d", id, resp.StatusCode)
	}
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return data
}

// TestStoreRestartServesResultsByteIdentically: a job completed before a
// restart answers /jobs/{id}/result with the exact same bytes afterwards, and
// the recovered status keeps its terminal state and timestamps.
func TestStoreRestartServesResultsByteIdentically(t *testing.T) {
	dir := t.TempDir()
	s := newStoredServer(t, quickConfig(), dir)

	st := s.submit(t, quickReplay(), 0)
	s.waitState(t, st.ID, StateDone, 30*time.Second)
	before := s.resultBytes(t, st.ID)
	statusBefore := s.getStatus(t, st.ID)

	// A canceled job must come back canceled, too.
	huge := s.submit(t, hugeReplay(), 0)
	s.waitState(t, huge.ID, StateRunning, 30*time.Second)
	s.cancelJob(t, huge.ID)
	s.waitState(t, huge.ID, StateCanceled, 30*time.Second)

	s.shutdown(t)

	s2 := newStoredServer(t, quickConfig(), dir)
	if s2.rc.Restored != 2 {
		t.Fatalf("restart restored %d jobs, want 2 (dropped: %v)", s2.rc.Restored, s2.rc.Dropped)
	}
	after := s2.resultBytes(t, st.ID)
	if !bytes.Equal(before, after) {
		t.Errorf("result bytes changed across restart:\nbefore: %s\nafter:  %s", before, after)
	}
	statusAfter := s2.getStatus(t, st.ID)
	if statusAfter.State != StateDone ||
		!statusAfter.Submitted.Equal(statusBefore.Submitted) ||
		!statusAfter.Finished.Equal(statusBefore.Finished) {
		t.Errorf("recovered status diverges: before %+v, after %+v", statusBefore, statusAfter)
	}
	if got := s2.getStatus(t, huge.ID); got.State != StateCanceled {
		t.Errorf("canceled job came back %s, want %s", got.State, StateCanceled)
	}

	// The recovered ledger still verifies end to end.
	b, err := store.OpenDisk(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer b.Close()
	if _, err := store.VerifyChain(b); err != nil {
		t.Errorf("post-restart chain: %v", err)
	}
}

// TestStoreRequeuedJobsResubmitOnRestart: a job still queued when the server
// drains is persisted as requeued and re-enters the queue — under its
// original ID — when a new server replays the ledger, then runs to done.
func TestStoreRequeuedJobsResubmitOnRestart(t *testing.T) {
	dir := t.TempDir()
	cfg := quickConfig()
	cfg.Workers = 1
	s := newStoredServer(t, cfg, dir)

	// One job hogs the single worker; the next stays queued.
	huge := s.submit(t, hugeReplay(), 0)
	s.waitState(t, huge.ID, StateRunning, 30*time.Second)
	queued := s.submit(t, quickReplay(), 0)

	s.ts.Close()
	ctx, cancel := context.WithTimeout(context.Background(), 200*time.Millisecond)
	requeued, _ := s.srv.Drain(ctx)
	cancel()
	if len(requeued) != 1 || requeued[0] != queued.ID {
		t.Fatalf("drain requeued %v, want [%s]", requeued, queued.ID)
	}
	if err := s.st.Close(); err != nil {
		t.Fatal(err)
	}
	s.ts = nil

	s2 := newStoredServer(t, quickConfig(), dir)
	if len(s2.rc.Resubmitted) != 1 || s2.rc.Resubmitted[0] != queued.ID {
		t.Fatalf("restart resubmitted %v, want [%s] (dropped: %v)", s2.rc.Resubmitted, queued.ID, s2.rc.Dropped)
	}
	s2.waitState(t, queued.ID, StateDone, 30*time.Second)

	// Its completion lands in the same chain, which still verifies.
	recs, err := s2.st.Records()
	if err != nil {
		t.Fatal(err)
	}
	var states []string
	for _, rec := range recs {
		if rec.JobID == queued.ID {
			states = append(states, rec.State)
		}
	}
	want := []string{"queued", "requeued", "queued", "done"}
	if !reflect.DeepEqual(states, want) {
		t.Errorf("job %s ledger states %v, want %v", queued.ID, states, want)
	}
}

// TestStoreQueuedCancelSurvivesRestart: a job canceled while still queued
// gets its canceled record at cancel time, so a restart restores it as
// canceled instead of resubmitting it.
func TestStoreQueuedCancelSurvivesRestart(t *testing.T) {
	dir := t.TempDir()
	cfg := quickConfig()
	cfg.Workers = 1
	s := newStoredServer(t, cfg, dir)

	// One job hogs the single worker; the next stays queued until canceled.
	huge := s.submit(t, hugeReplay(), 0)
	s.waitState(t, huge.ID, StateRunning, 30*time.Second)
	queued := s.submit(t, quickReplay(), 0)
	s.cancelJob(t, queued.ID)
	s.waitState(t, queued.ID, StateCanceled, 30*time.Second)
	s.cancelJob(t, huge.ID)
	s.waitState(t, huge.ID, StateCanceled, 30*time.Second)
	s.shutdown(t)

	s2 := newStoredServer(t, cfg, dir)
	if len(s2.rc.Resubmitted) != 0 || s2.rc.Restored != 2 {
		t.Fatalf("restart resubmitted %v and restored %d, want none and 2 (dropped: %v)",
			s2.rc.Resubmitted, s2.rc.Restored, s2.rc.Dropped)
	}
	if got := s2.getStatus(t, queued.ID); got.State != StateCanceled {
		t.Errorf("queued-then-canceled job came back %s, want %s", got.State, StateCanceled)
	}
	want := []string{string(StateQueued), string(StateCanceled)}
	if got := jobStates(t, s2.st)[queued.ID]; !reflect.DeepEqual(got, want) {
		t.Errorf("job %s ledger states %v, want %v", queued.ID, got, want)
	}
}

// TestVersionzMatchesLedgerBuild: /versionz serves exactly the BuildInfo
// every ledger record carries, so an operator can check a running server
// against its store.
func TestVersionzMatchesLedgerBuild(t *testing.T) {
	dir := t.TempDir()
	s := newStoredServer(t, quickConfig(), dir)

	resp, err := http.Get(s.ts.URL + "/versionz")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("/versionz: HTTP %d", resp.StatusCode)
	}
	var got store.BuildInfo
	if err := json.NewDecoder(resp.Body).Decode(&got); err != nil {
		t.Fatal(err)
	}
	if got != store.Build() {
		t.Errorf("/versionz = %+v, want %+v", got, store.Build())
	}

	st := s.submit(t, quickReplay(), 0)
	s.waitState(t, st.ID, StateDone, 30*time.Second)
	recs, err := s.st.Records()
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) == 0 {
		t.Fatal("no ledger records after a completed job")
	}
	for _, rec := range recs {
		if rec.Build != got {
			t.Errorf("record %d build %+v diverges from /versionz %+v", rec.Index, rec.Build, got)
		}
	}
}

// TestStorezReportsChainHead: /storez exposes the chain head and artifact
// counts once jobs have landed, and 404s on a store-less server.
func TestStorezReportsChainHead(t *testing.T) {
	s := newTestServer(t, quickConfig())
	resp, err := http.Get(s.ts.URL + "/storez")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("/storez without a store: HTTP %d, want 404", resp.StatusCode)
	}

	dir := t.TempDir()
	ss := newStoredServer(t, quickConfig(), dir)
	st := ss.submit(t, quickReplay(), 0)
	ss.waitState(t, st.ID, StateDone, 30*time.Second)
	if err := ss.st.Flush(); err != nil {
		t.Fatal(err)
	}

	resp, err = http.Get(ss.ts.URL + "/storez")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("/storez: HTTP %d", resp.StatusCode)
	}
	var body storezBody
	if err := json.NewDecoder(resp.Body).Decode(&body); err != nil {
		t.Fatal(err)
	}
	if body.Stats.Records < 2 || body.Stats.HeadHash == "" || body.ArtifactsOnBackend < 1 {
		t.Errorf("thin /storez after a done job: %+v", body)
	}
	if body.LastError != "" {
		t.Errorf("unexpected store error surfaced: %s", body.LastError)
	}
}

// jobStates returns each job's ledger states in append order.
func jobStates(t *testing.T, st *store.Store) map[string][]string {
	t.Helper()
	recs, err := st.Records()
	if err != nil {
		t.Fatal(err)
	}
	states := map[string][]string{}
	for _, rec := range recs {
		if rec.Kind == store.KindJob {
			states[rec.JobID] = append(states[rec.JobID], rec.State)
		}
	}
	return states
}

// TestStoreQueuedRecordPrecedesRun: the queued record and the 202 status
// are taken before a worker can receive the job. With four idle workers and
// a stream of near-instant jobs, every 202 must say queued, every job's
// ledger history must read queued … done, and a restart must find nothing
// to resubmit (a done-then-queued history would re-run a finished job).
func TestStoreQueuedRecordPrecedesRun(t *testing.T) {
	dir := t.TempDir()
	cfg := quickConfig()
	cfg.Workers = 4
	cfg.QueueDepth = 64
	s := newStoredServer(t, cfg, dir)

	spec := JobSpec{Kind: KindReplay, Workload: "uniform:64", Cores: 2, Measure: 1}
	const jobs = 48
	ids := make([]string, jobs)
	for i := range ids {
		ids[i] = s.submit(t, spec, 0).ID // submit fails unless the 202 says queued
	}
	for _, id := range ids {
		s.waitState(t, id, StateDone, 30*time.Second)
	}
	states := jobStates(t, s.st)
	for _, id := range ids {
		h := states[id]
		if len(h) < 2 || h[0] != string(StateQueued) || h[len(h)-1] != string(StateDone) {
			t.Errorf("job %s ledger states %v, want queued first and done last", id, h)
		}
	}
	s.shutdown(t)

	s2 := newStoredServer(t, cfg, dir)
	if len(s2.rc.Resubmitted) != 0 || s2.rc.Restored != jobs {
		t.Fatalf("restart resubmitted %v and restored %d, want none and %d (dropped: %v)",
			s2.rc.Resubmitted, s2.rc.Restored, jobs, s2.rc.Dropped)
	}
}

// TestStoreRefusedJobLeavesNoRecord: a submission refused with 429 never
// reaches the ledger.
func TestStoreRefusedJobLeavesNoRecord(t *testing.T) {
	cfg := quickConfig()
	cfg.Workers = 1
	cfg.QueueDepth = 1
	s := newStoredServer(t, cfg, t.TempDir())

	running := s.submit(t, hugeReplay(), 0)
	s.waitState(t, running.ID, StateRunning, 10*time.Second)
	queued := s.submit(t, hugeReplay(), 0)
	s.submit(t, quickReplay(), http.StatusTooManyRequests)
	states := jobStates(t, s.st)
	if len(states) != 2 || len(states[running.ID]) != 1 || len(states[queued.ID]) != 1 {
		t.Errorf("ledger after a refused submission: %v, want one queued record each for %s and %s",
			states, running.ID, queued.ID)
	}
	s.cancelJob(t, queued.ID)
	s.cancelJob(t, running.ID)
}

// legacySpec returns spec's canonical JSON with the engine_shards and
// engine_window keys a ledger written before those options were retired
// carries.
func legacySpec(t *testing.T, spec json.RawMessage) json.RawMessage {
	t.Helper()
	var m map[string]any
	if err := json.Unmarshal(spec, &m); err != nil {
		t.Fatal(err)
	}
	m["engine_shards"], m["engine_window"] = 2, 8
	out, err := store.CanonicalJSON(m)
	if err != nil {
		t.Fatal(err)
	}
	return out
}

// TestStoreLegacyEngineOptionsReplay: a ledger whose records carry the
// retired engine_shards/engine_window fields — in the record and in the
// recorded spec — still verifies, its done job serves the recorded result
// byte-identically, and its queued job is resubmitted and runs on the serial
// engine to the same result.
func TestStoreLegacyEngineOptionsReplay(t *testing.T) {
	// A real done job supplies the records and the result bytes.
	first := newStoredServer(t, quickConfig(), t.TempDir())
	done := first.submit(t, quickReplay(), 0)
	first.waitState(t, done.ID, StateDone, 30*time.Second)
	want := first.resultBytes(t, done.ID)
	recs, err := first.st.Records()
	if err != nil {
		t.Fatal(err)
	}
	artifacts := map[string][]byte{}
	for _, rec := range recs {
		if rec.ResultDigest != "" {
			if artifacts[rec.ResultDigest], err = first.st.Artifact(rec.ResultDigest); err != nil {
				t.Fatal(err)
			}
		}
	}
	first.shutdown(t)

	// Rewrite them into a fresh ledger as the sharded-era server wrote
	// them, plus a queued job that never ran.
	dir := t.TempDir()
	b, err := store.OpenDisk(dir)
	if err != nil {
		t.Fatal(err)
	}
	legacy, err := store.Open(b, store.Options{})
	if err != nil {
		t.Fatal(err)
	}
	for _, rec := range recs {
		if data, ok := artifacts[rec.ResultDigest]; ok {
			if _, err := legacy.PutRawArtifact(data); err != nil {
				t.Fatal(err)
			}
		}
		rec.Index, rec.PrevHash, rec.Hash = 0, "", ""
		rec.Spec = legacySpec(t, rec.Spec)
		rec.EngineShards, rec.EngineWindow = 2, 8
		if _, err := legacy.Append(rec); err != nil {
			t.Fatal(err)
		}
	}
	pending := "job-2"
	if _, err := legacy.Append(store.RunRecord{
		Kind: store.KindJob, JobID: pending, State: string(StateQueued),
		Spec: legacySpec(t, recs[0].Spec), EngineShards: 2, EngineWindow: 8,
	}); err != nil {
		t.Fatal(err)
	}
	if err := legacy.Close(); err != nil {
		t.Fatal(err)
	}
	if _, err := store.VerifyChain(b); err != nil {
		t.Fatalf("legacy chain: %v", err)
	}

	s := newStoredServer(t, quickConfig(), dir)
	if s.rc.Restored != 1 || len(s.rc.Resubmitted) != 1 || s.rc.Resubmitted[0] != pending {
		t.Fatalf("replay restored %d and resubmitted %v, want 1 and [%s] (dropped: %v)",
			s.rc.Restored, s.rc.Resubmitted, pending, s.rc.Dropped)
	}
	if got := s.resultBytes(t, done.ID); !bytes.Equal(got, want) {
		t.Errorf("legacy done job result changed:\nrecorded: %s\nserved:   %s", want, got)
	}
	s.waitState(t, pending, StateDone, 30*time.Second)
	var a, c struct {
		Result ReplayResult `json:"result"`
	}
	s.getResult(t, done.ID, &a)
	s.getResult(t, pending, &c)
	if a.Result != c.Result {
		t.Errorf("resubmitted legacy job result %+v, want %+v", c.Result, a.Result)
	}
	recs, err = s.st.Records()
	if err != nil {
		t.Fatal(err)
	}
	last := recs[len(recs)-1]
	if last.JobID != pending || last.State != string(StateDone) || last.EngineShards != 0 || last.EngineWindow != 0 ||
		bytes.Contains(last.Spec, []byte("engine_")) {
		t.Errorf("resubmitted job's final record %s (engine_shards %d, engine_window %d, spec %s), want done with no engine options",
			last, last.EngineShards, last.EngineWindow, last.Spec)
	}
}
