// Scheduler tests: retry/backoff, attempt exhaustion and work-stealing,
// driven by a fake clock and stub workers with injectable failures, so the
// timing-dependent paths run deterministically and fast.
package fleet_test

import (
	"context"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strings"
	"sync"
	"testing"
	"time"

	"secdir/internal/fleet"
	"secdir/internal/leakage"
	"secdir/internal/metrics"
)

// fakeClock implements fleet.Clock: time only moves when advanced, so
// backoff gates, steal aging and heartbeat cadence become deterministic.
type fakeClock struct {
	mu      sync.Mutex
	now     time.Time
	waiters []fakeWaiter
}

type fakeWaiter struct {
	at time.Time
	ch chan time.Time
}

func newFakeClock() *fakeClock {
	return &fakeClock{now: time.Unix(1_700_000_000, 0)}
}

func (c *fakeClock) Now() time.Time {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.now
}

func (c *fakeClock) After(d time.Duration) <-chan time.Time {
	c.mu.Lock()
	defer c.mu.Unlock()
	ch := make(chan time.Time, 1)
	if d <= 0 {
		ch <- c.now
		return ch
	}
	c.waiters = append(c.waiters, fakeWaiter{at: c.now.Add(d), ch: ch})
	return ch
}

// advanceNext jumps to the earliest pending waiter deadline and fires every
// waiter that became due. Returns false when nothing is waiting.
func (c *fakeClock) advanceNext() bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	if len(c.waiters) == 0 {
		return false
	}
	earliest := c.waiters[0].at
	for _, w := range c.waiters[1:] {
		if w.at.Before(earliest) {
			earliest = w.at
		}
	}
	if earliest.After(c.now) {
		c.now = earliest
	}
	var rest []fakeWaiter
	for _, w := range c.waiters {
		if !w.at.After(c.now) {
			w.ch <- c.now
		} else {
			rest = append(rest, w)
		}
	}
	c.waiters = rest
	return true
}

// autoAdvance drives the fake clock forward whenever anyone is waiting on
// it, checking at a short real-time cadence so HTTP round trips (which run
// on the wall clock) interleave naturally. Stopped via t.Cleanup.
func autoAdvance(t *testing.T, c *fakeClock) {
	t.Helper()
	stop := make(chan struct{})
	done := make(chan struct{})
	go func() {
		defer close(done)
		for {
			select {
			case <-stop:
				return
			case <-time.After(time.Millisecond):
			}
			c.advanceNext()
		}
	}()
	t.Cleanup(func() {
		close(stop)
		<-done
	})
}

// stubWorker is a minimal fleet worker: /healthz always OK, /fleet/shard
// either runs the shard for real (via leakage.RunShard), fails with an
// injected 500, or blocks until the coordinator abandons the request.
type stubWorker struct {
	ts *httptest.Server

	// fail, if set, is called with the 1-based shard request number and
	// reports whether to drop it with a 500.
	fail func(n int) bool
	// busy, if set, likewise injects a 429 all-slots-busy refusal.
	busy func(n int) bool
	// block makes every shard request hang until its context is cancelled
	// (or the test ends) — a straggler that never finishes.
	block bool
	stop  chan struct{}

	mu     sync.Mutex
	shards int
}

func newStubWorker(t *testing.T, fail func(n int) bool, block bool) *stubWorker {
	t.Helper()
	st := &stubWorker{fail: fail, block: block, stop: make(chan struct{})}
	mux := http.NewServeMux()
	mux.HandleFunc("GET /healthz", func(w http.ResponseWriter, r *http.Request) {
		w.WriteHeader(http.StatusOK)
		_, _ = io.WriteString(w, `{"status":"ok"}`)
	})
	mux.HandleFunc("POST /fleet/shard", func(w http.ResponseWriter, r *http.Request) {
		st.mu.Lock()
		st.shards++
		n := st.shards
		st.mu.Unlock()
		if st.block {
			select {
			case <-r.Context().Done():
			case <-st.stop:
			}
			return
		}
		if st.fail != nil && st.fail(n) {
			http.Error(w, "injected failure", http.StatusInternalServerError)
			return
		}
		if st.busy != nil && st.busy(n) {
			http.Error(w, "all 1 shard slots busy; retry later", http.StatusTooManyRequests)
			return
		}
		var req fleet.ShardRequest
		if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
			http.Error(w, err.Error(), http.StatusBadRequest)
			return
		}
		opts, err := req.Options()
		if err != nil {
			http.Error(w, err.Error(), http.StatusBadRequest)
			return
		}
		w.Header().Set("Content-Type", "application/x-ndjson")
		enc := json.NewEncoder(w)
		count := 0
		_, err = leakage.RunShard(r.Context(), opts, req.Start, req.Count, func(tr leakage.TrialResult) {
			line := tr
			_ = enc.Encode(fleet.ShardLine{Trial: &line})
			count++
		})
		if err != nil {
			_ = enc.Encode(fleet.ShardLine{Err: err.Error()})
			return
		}
		_ = enc.Encode(fleet.ShardLine{EOF: true, Count: count})
	})
	st.ts = httptest.NewServer(mux)
	t.Cleanup(st.ts.Close)
	// LIFO: release blocked handlers before Close waits on their connections.
	t.Cleanup(func() { close(st.stop) })
	return st
}

func (s *stubWorker) requests() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.shards
}

// strategies resolves strategy names for a sweep's options.
func strategies(t *testing.T, names ...string) []leakage.Strategy {
	t.Helper()
	ss, err := leakage.ParseStrategyList(strings.Join(names, ","))
	if err != nil {
		t.Fatal(err)
	}
	return ss
}

// localReport runs the same sweep single-process for bit-identical
// comparison against the fleet merge.
func localReport(t *testing.T, o leakage.ReportOptions) *leakage.Report {
	t.Helper()
	rep, err := leakage.RunReport(context.Background(), o)
	if err != nil {
		t.Fatal(err)
	}
	return rep
}

// TestRetryBackoffFlakyWorker drops every third shard response and demands
// the scheduler retry exactly the dropped shards — deterministically two of
// them: requests converge at the fixed point N = tasks + |{i<=N : i%3==1}| —
// with no duplicate or missing trials in the merge.
func TestRetryBackoffFlakyWorker(t *testing.T) {
	fc := newFakeClock()
	autoAdvance(t, fc)
	st := newStubWorker(t, func(n int) bool { return n%3 == 1 }, false)

	reg := metrics.New()
	c := newCoordinator(t, fleet.Config{
		Workers:           []string{st.ts.URL},
		ShardTrials:       5,
		MaxAttempts:       4,
		BackoffBase:       10 * time.Millisecond,
		BackoffMax:        80 * time.Millisecond,
		HeartbeatInterval: 100 * time.Millisecond,
		HeartbeatMiss:     100_000,   // probes run in real time, the clock doesn't: never reap
		StealAfter:        time.Hour, // no second worker; never steal
		Clock:             fc,
		Metrics:           reg,
	})

	spec := leakage.ReportOptions{
		Configs:    []string{"skylake-unfixed"},
		Strategies: strategies(t, "evictreload"),
		Trials:     20, // 4 shards of 5
		Rounds:     8,
		Seed:       3,
	}
	rep, _, err := c.Run(context.Background(), spec)
	if err != nil {
		t.Fatal(err)
	}
	if want := localReport(t, spec); !reflect.DeepEqual(rep, want) {
		t.Errorf("fleet report diverges from local run:\nfleet: %+v\nlocal: %+v", rep, want)
	}

	if got := st.requests(); got != 6 {
		t.Errorf("stub served %d shard requests, want 6 (4 shards + 2 injected failures)", got)
	}
	if got := reg.Counter("fleet/shards_retried").Value(); got != 2 {
		t.Errorf("fleet/shards_retried = %d, want 2", got)
	}
	if got := reg.Counter("fleet/shards_dispatched").Value(); got != 6 {
		t.Errorf("fleet/shards_dispatched = %d, want 6", got)
	}
	if got := reg.Counter("fleet/shards_discarded").Value(); got != 0 {
		t.Errorf("fleet/shards_discarded = %d, want 0 (no steals to lose)", got)
	}
}

// TestShardAttemptsExhausted points the fleet at a worker that fails every
// shard and demands the sweep fail after exactly MaxAttempts dispatches —
// bounded retries, not an infinite loop.
func TestShardAttemptsExhausted(t *testing.T) {
	fc := newFakeClock()
	autoAdvance(t, fc)
	st := newStubWorker(t, func(int) bool { return true }, false)

	reg := metrics.New()
	c := newCoordinator(t, fleet.Config{
		Workers:           []string{st.ts.URL},
		ShardTrials:       10,
		MaxAttempts:       3,
		BackoffBase:       5 * time.Millisecond,
		HeartbeatInterval: 100 * time.Millisecond,
		HeartbeatMiss:     100_000,
		StealAfter:        time.Hour,
		Clock:             fc,
		Metrics:           reg,
	})

	_, _, err := c.Run(context.Background(), leakage.ReportOptions{
		Configs:    []string{"secdir"},
		Strategies: strategies(t, "evictreload"),
		Trials:     10, // one shard
		Rounds:     4,
		Seed:       1,
	})
	if err == nil || !strings.Contains(err.Error(), "attempts exhausted") {
		t.Fatalf("err = %v, want attempts-exhausted failure", err)
	}
	if got := st.requests(); got != 3 {
		t.Errorf("stub served %d shard requests, want exactly MaxAttempts=3", got)
	}
	if got := reg.Counter("fleet/shards_retried").Value(); got != 2 {
		t.Errorf("fleet/shards_retried = %d, want 2 (third failure exhausts instead)", got)
	}
}

// TestBusyWorkerDoesNotExhaustAttempts bounces a shard off a worker's 429
// all-slots-busy refusal more times than MaxAttempts allows and demands the
// sweep still succeed: busy refusals are load signals that back off without
// charging the attempt budget, so a saturated fleet can never fail a sweep
// that would eventually run.
func TestBusyWorkerDoesNotExhaustAttempts(t *testing.T) {
	fc := newFakeClock()
	autoAdvance(t, fc)
	st := newStubWorker(t, nil, false)
	st.busy = func(n int) bool { return n <= 5 } // 5 refusals > MaxAttempts, then accept

	reg := metrics.New()
	c := newCoordinator(t, fleet.Config{
		Workers:           []string{st.ts.URL},
		ShardTrials:       10,
		MaxAttempts:       3,
		BackoffBase:       5 * time.Millisecond,
		HeartbeatInterval: 100 * time.Millisecond,
		HeartbeatMiss:     100_000,
		StealAfter:        time.Hour,
		Clock:             fc,
		Metrics:           reg,
	})

	spec := leakage.ReportOptions{
		Configs:    []string{"skylake-unfixed"},
		Strategies: strategies(t, "evictreload"),
		Trials:     10, // one shard
		Rounds:     4,
		Seed:       9,
	}
	rep, _, err := c.Run(context.Background(), spec)
	if err != nil {
		t.Fatal(err)
	}
	if want := localReport(t, spec); !reflect.DeepEqual(rep, want) {
		t.Errorf("fleet report diverges from local run:\nfleet: %+v\nlocal: %+v", rep, want)
	}
	if got := st.requests(); got != 6 {
		t.Errorf("stub served %d shard requests, want 6 (5 busy bounces + 1 success)", got)
	}
	if got := reg.Counter("fleet/shards_busy").Value(); got != 5 {
		t.Errorf("fleet/shards_busy = %d, want 5", got)
	}
	if got := reg.Counter("fleet/shards_retried").Value(); got != 0 {
		t.Errorf("fleet/shards_retried = %d, want 0 (busy is not a genuine failure)", got)
	}
}

// TestWorkStealingRebalance gives one of two workers a shard it will never
// finish and demands the idle worker steal it once the steal age passes —
// and that the winner-takes-first-result merge still matches a local run
// exactly (the straggler's late duplicate must not double-count trials).
func TestWorkStealingRebalance(t *testing.T) {
	fc := newFakeClock()
	autoAdvance(t, fc)
	fast := newStubWorker(t, nil, false)
	slow := newStubWorker(t, nil, true) // hangs every shard until cancelled

	reg := metrics.New()
	c := newCoordinator(t, fleet.Config{
		Workers:           []string{fast.ts.URL, slow.ts.URL},
		ShardTrials:       10,
		MaxAttempts:       4,
		BackoffBase:       10 * time.Millisecond,
		HeartbeatInterval: 100 * time.Millisecond,
		HeartbeatMiss:     100_000,
		StealAfter:        300 * time.Millisecond,
		Clock:             fc,
		Metrics:           reg,
	})

	spec := leakage.ReportOptions{
		Configs:    []string{"skylake-unfixed"},
		Strategies: strategies(t, "evictreload"),
		Trials:     20, // 2 shards: one per worker, then the steal
		Rounds:     8,
		Seed:       5,
	}
	rep, _, err := c.Run(context.Background(), spec)
	if err != nil {
		t.Fatal(err)
	}
	if want := localReport(t, spec); !reflect.DeepEqual(rep, want) {
		t.Errorf("fleet report diverges from local run:\nfleet: %+v\nlocal: %+v", rep, want)
	}

	if got := reg.Counter("fleet/shards_stolen").Value(); got < 1 {
		t.Errorf("fleet/shards_stolen = %d, want >= 1", got)
	}
	if got := fast.requests(); got != 2 {
		t.Errorf("fast worker served %d shards, want 2 (its own + the steal)", got)
	}
	if got := slow.requests(); got != 1 {
		t.Errorf("slow worker saw %d shards, want 1", got)
	}
	// The straggler's abandoned dispatch settles as a steal-race loss, never
	// as a merged duplicate.
	if got := reg.Counter("fleet/shards_dispatched").Value(); got != 3 {
		t.Errorf("fleet/shards_dispatched = %d, want 3", got)
	}
}
