package server

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"secdir/internal/store"
)

// smallLeak is the leak job shape of the shedding tests: the serve-leak
// benchmark's grid (the unfixed baseline and SecDir under prime+probe) at
// the smallest trial and round counts a leak job accepts.
func smallLeak() JobSpec {
	return JobSpec{
		Kind:       KindLeak,
		Configs:    []string{"skylake-unfixed", "secdir"},
		Strategies: []string{"primeprobe"},
		Trials:     2,
		Rounds:     2,
		Workers:    1,
	}
}

// rawGet fetches base+path and returns the body, failing on any status but
// 200.
func rawGet(t *testing.T, base, path string) []byte {
	t.Helper()
	resp, err := http.Get(base + path)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET %s: HTTP %d: %s", path, resp.StatusCode, data)
	}
	return data
}

// runJobs submits spec n times through the handler, in process, and waits
// for each job to finish before submitting the next.
func runJobs(t *testing.T, srv *Server, spec JobSpec, n int) {
	t.Helper()
	body, err := json.Marshal(spec)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < n; i++ {
		w := httptest.NewRecorder()
		srv.ServeHTTP(w, httptest.NewRequest(http.MethodPost, "/jobs", bytes.NewReader(body)))
		if w.Code != http.StatusAccepted {
			t.Fatalf("submit: HTTP %d: %s", w.Code, w.Body.Bytes())
		}
		var st JobStatus
		if err := json.Unmarshal(w.Body.Bytes(), &st); err != nil {
			t.Fatal(err)
		}
		srv.mu.Lock()
		j := srv.jobs[st.ID]
		srv.mu.Unlock()
		_, ch, unsub := j.Subscribe()
		for range ch {
		}
		unsub()
		if got := j.State(); got != StateDone {
			t.Fatalf("job %s ended %s", st.ID, got)
		}
	}
}

// isShed reports whether job id has dropped its in-memory result for the
// artifact digest.
func isShed(srv *Server, id string) bool {
	srv.mu.Lock()
	j := srv.jobs[id]
	srv.mu.Unlock()
	res, digest, err := j.Result()
	return err == nil && res == nil && digest != ""
}

// liveHeap returns the heap in use after a full collection.
func liveHeap() uint64 {
	runtime.GC()
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.HeapAlloc
}

// TestShedJobAnswersByteIdentically: once a done job's terminal record is
// durable, the next job to finish sheds its result, and its status, result
// and stream answers are the same bytes as before.
func TestShedJobAnswersByteIdentically(t *testing.T) {
	s := newStoredServer(t, quickConfig(), t.TempDir())
	first := s.submit(t, smallLeak(), 0)
	s.waitState(t, first.ID, StateDone, 30*time.Second)
	paths := []string{"/jobs/" + first.ID, "/jobs/" + first.ID + "/result", "/jobs/" + first.ID + "/stream"}
	before := make([][]byte, len(paths))
	for i, p := range paths {
		before[i] = rawGet(t, s.ts.URL, p)
	}
	if isShed(s.srv, first.ID) {
		t.Fatal("job shed before the store flushed its terminal record")
	}

	if err := s.st.Flush(); err != nil {
		t.Fatal(err)
	}
	second := s.submit(t, smallLeak(), 0)
	s.waitState(t, second.ID, StateDone, 30*time.Second)
	if !isShed(s.srv, first.ID) {
		t.Fatal("a durable done job kept its result after the next job finished")
	}
	for i, p := range paths {
		if after := rawGet(t, s.ts.URL, p); !bytes.Equal(before[i], after) {
			t.Errorf("GET %s changed when the job was shed:\nbefore: %s\nafter:  %s", p, before[i], after)
		}
	}
}

// TestShedWhileClientsRead: with two workers finishing jobs and a store
// flushing every millisecond, clients that stream and fetch results
// concurrently always read the same result bytes, whether or not the job
// has been shed by then. Run under -race it checks the shedding's locking.
func TestShedWhileClientsRead(t *testing.T) {
	dir := t.TempDir()
	b, err := store.OpenDisk(dir)
	if err != nil {
		t.Fatal(err)
	}
	st, err := store.Open(b, store.Options{FlushEvery: 2, FlushInterval: time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	srv, err := New(quickConfig(), nil)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := srv.AttachStore(st); err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv)
	defer func() {
		ts.Close()
		_, _ = srv.Drain(context.Background())
	}()
	const clients, jobs = 4, 10
	var want []byte
	results := make(chan []byte, clients*jobs*2)
	errs := make(chan error, clients)
	for c := 0; c < clients; c++ {
		go func() {
			for i := 0; i < jobs; i++ {
				body, _ := json.Marshal(smallLeak())
				resp, err := http.Post(ts.URL+"/jobs", "application/json", bytes.NewReader(body))
				if err != nil {
					errs <- err
					return
				}
				var js JobStatus
				err = json.NewDecoder(resp.Body).Decode(&js)
				resp.Body.Close()
				if err != nil {
					errs <- err
					return
				}
				for _, p := range []string{"/stream", "/result", "/result"} {
					resp, err := http.Get(ts.URL + "/jobs/" + js.ID + p)
					if err != nil {
						errs <- err
						return
					}
					data, err := io.ReadAll(resp.Body)
					resp.Body.Close()
					if err != nil {
						errs <- err
						return
					}
					if p == "/result" {
						var rb struct {
							Result json.RawMessage `json:"result"`
						}
						if err := json.Unmarshal(data, &rb); err != nil || resp.StatusCode != http.StatusOK {
							errs <- fmt.Errorf("%s%s: HTTP %d %s (%v)", js.ID, p, resp.StatusCode, data, err)
							return
						}
						results <- rb.Result
					}
				}
			}
			errs <- nil
		}()
	}
	for c := 0; c < clients; c++ {
		if err := <-errs; err != nil {
			t.Fatal(err)
		}
	}
	close(results)
	for r := range results {
		if want == nil {
			want = r
		} else if !bytes.Equal(r, want) {
			t.Fatalf("result bytes differ between reads:\n%s\n%s", want, r)
		}
	}
	shed := 0
	for i := 1; i <= clients*jobs; i++ {
		if isShed(srv, fmt.Sprintf("job-%d", i)) {
			shed++
		}
	}
	t.Logf("%d of %d jobs shed by the end", shed, clients*jobs)
	if shed == 0 {
		t.Error("no job was shed although the store flushed throughout")
	}
}

// TestShedNothingWithoutStore: a server without a store has nothing durable
// to serve from, so finished jobs keep their results in memory.
func TestShedNothingWithoutStore(t *testing.T) {
	s := newTestServer(t, quickConfig())
	runJobs(t, s.srv, smallLeak(), 3)
	for _, id := range []string{"job-1", "job-2"} {
		if isShed(s.srv, id) {
			t.Errorf("%s shed its result on a server with no store", id)
		}
	}
}

// TestShedRetainedHeapPerJob: with a disk store, the heap a finished job
// retains once its records are durable is at most 1 KB — its status, its
// compacted events and the result's digest, not the result.
func TestShedRetainedHeapPerJob(t *testing.T) {
	if testing.Short() {
		t.Skip("runs a thousand jobs")
	}
	cfg := quickConfig()
	cfg.Workers = 1
	s := newStoredServer(t, cfg, t.TempDir())
	// settle flushes the store and finishes one more job, whose finish sheds
	// every job before it.
	settle := func() {
		if err := s.st.Flush(); err != nil {
			t.Fatal(err)
		}
		runJobs(t, s.srv, smallLeak(), 1)
	}
	runJobs(t, s.srv, smallLeak(), 50)
	settle()
	h0 := liveHeap()
	const n = 1000
	runJobs(t, s.srv, smallLeak(), n)
	settle()
	h1 := liveHeap()
	perJob := (float64(h1) - float64(h0)) / (n + 1)
	t.Logf("retained heap per finished job: %.0f B", perJob)
	if perJob > 1024 {
		t.Errorf("each finished job retains %.0f B of heap, want <= 1024", perJob)
	}
	if !isShed(s.srv, "job-1000") {
		t.Error("job-1000 kept its result after its records were durable")
	}
}

// TestRestartRetainsNoArtifacts: a restart replays done jobs without
// loading their result artifacts into memory, and still serves them
// byte-identically.
func TestRestartRetainsNoArtifacts(t *testing.T) {
	dir := t.TempDir()
	s := newStoredServer(t, quickConfig(), dir)
	real := s.submit(t, smallLeak(), 0)
	s.waitState(t, real.ID, StateDone, 30*time.Second)
	want := s.resultBytes(t, real.ID)
	recs, err := s.st.Records()
	if err != nil {
		t.Fatal(err)
	}
	spec := recs[len(recs)-1].Spec

	// Many more done jobs, each with a 32 KB result artifact of its own.
	const jobs, pad = 64, 32 << 10
	for i := 0; i < jobs; i++ {
		dig, err := s.st.PutArtifact(map[string]string{"pad": fmt.Sprintf("%d%s", i, strings.Repeat("x", pad))})
		if err == nil {
			_, err = s.st.Append(store.RunRecord{Kind: store.KindJob, JobID: fmt.Sprintf("job-%d", 100+i),
				State: string(StateDone), Spec: spec, ResultDigest: dig})
		}
		if err != nil {
			t.Fatal(err)
		}
	}
	s.shutdown(t)

	b, err := store.OpenDisk(dir)
	if err != nil {
		t.Fatal(err)
	}
	st, err := store.Open(b, store.Options{})
	if err != nil {
		t.Fatal(err)
	}
	srv, err := New(quickConfig(), nil)
	if err != nil {
		t.Fatal(err)
	}
	h0 := liveHeap()
	rc, err := srv.AttachStore(st)
	if err != nil {
		t.Fatal(err)
	}
	h1 := liveHeap()
	ts := httptest.NewServer(srv)
	defer func() {
		ts.Close()
		_, _ = srv.Drain(context.Background())
		_ = st.Close()
	}()
	if rc.Restored != jobs+1 {
		t.Fatalf("restored %d jobs, want %d (dropped %v)", rc.Restored, jobs+1, rc.Dropped)
	}
	if grew := int64(h1) - int64(h0); grew > jobs*pad/8 {
		t.Errorf("replay retained %d B of heap for %d B of artifacts, want <= %d", grew, jobs*pad, jobs*pad/8)
	}
	if got := rawGet(t, ts.URL, "/jobs/"+real.ID+"/result"); !bytes.Equal(got, want) {
		t.Errorf("result changed across restart:\nbefore: %s\nafter:  %s", want, got)
	}
	var rb struct {
		Result map[string]string `json:"result"`
	}
	if err := json.Unmarshal(rawGet(t, ts.URL, "/jobs/job-105/result"), &rb); err != nil {
		t.Fatal(err)
	}
	if !strings.HasPrefix(rb.Result["pad"], "5x") || len(rb.Result["pad"]) != pad+1 {
		t.Errorf("job-105 served a result of %d bytes, want its %d-byte artifact", len(rb.Result["pad"]), pad+1)
	}
}

// TestShedStopsAtStickyFlushError: after a flush fails, the store's durable
// watermark stops, so no done job sheds a result that may not be on disk.
func TestShedStopsAtStickyFlushError(t *testing.T) {
	fb := &failingBackend{MemBackend: store.NewMem()}
	st, err := store.Open(fb, store.Options{FlushInterval: time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	cfg := quickConfig()
	cfg.Workers = 1
	srv, err := New(cfg, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Drain(context.Background())
	if _, err := srv.AttachStore(st); err != nil {
		t.Fatal(err)
	}
	fb.fail.Store(true)
	runJobs(t, srv, smallLeak(), 1)
	if err := st.Flush(); err == nil {
		t.Fatal("flush over a failing backend succeeded")
	}
	runJobs(t, srv, smallLeak(), 1)
	if isShed(srv, "job-1") {
		t.Error("a job whose terminal record failed to flush shed its result")
	}
	if got := st.Durable(); got != -1 {
		t.Errorf("durable watermark %d after a failed first flush, want -1", got)
	}
}

// failingBackend is a MemBackend whose ledger appends fail once fail is set:
// a disk that filled up.
type failingBackend struct {
	*store.MemBackend
	fail atomic.Bool
}

// AppendLedger implements store.Backend.
func (f *failingBackend) AppendLedger(lines [][]byte) error {
	if f.fail.Load() {
		return errors.New("ledger append: no space left on device")
	}
	return f.MemBackend.AppendLedger(lines)
}
