// Determinism tests: a fleet of real secdir-serve workers behind httptest
// must reproduce the committed golden CSVs bit-for-bit at 1, 2 and 4 workers
// — including a fleet that loses a worker mid-sweep. Trial seeding is
// worker-count invariant and float64 JSON round-trips are exact, so any byte
// of drift here is a real scheduling or merge bug.
package fleet_test

import (
	"context"
	"fmt"
	"net/http"
	"net/http/httptest"
	"sync"
	"testing"
	"time"

	"secdir/internal/config"
	"secdir/internal/fleet"
	"secdir/internal/golden"
	"secdir/internal/metrics"
	"secdir/internal/server"
)

// Golden sampling parameters, mirroring the leakage package's golden tests
// (internal/leakage/golden_test.go and leaderboard_test.go): the fleet must
// reproduce the exact CSVs those tests pin.
const (
	goldenTrials  = 200
	goldenRounds  = 128
	goldenEvLines = 23
	goldenSeed    = 1

	lbTrials = 60
	lbRounds = 32
)

// newWorker starts one real secdir-serve server behind httptest and returns
// its base URL. The server is a full worker: POST /fleet/shard and
// GET /healthz are live.
func newWorker(t *testing.T) string {
	t.Helper()
	cfg := config.DefaultServerConfig()
	cfg.Workers = 2
	srv, err := server.New(cfg, metrics.New())
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
	return ts.URL
}

// newCoordinator builds a coordinator that is drained at test end.
func newCoordinator(t *testing.T, cfg fleet.Config) *fleet.Coordinator {
	t.Helper()
	c := fleet.New(cfg)
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		defer cancel()
		_ = c.Drain(ctx)
	})
	return c
}

// TestFleetReproducesLeakGolden sweeps the golden leak grid through fleets
// of one and two workers and demands the merged report render byte-identical
// to data/leakage_verdicts.csv — the same file the single-process golden
// test pins.
func TestFleetReproducesLeakGolden(t *testing.T) {
	if raceEnabled {
		t.Skip("golden fleet sweep is too heavy under -race; sched_test.go races the scheduler")
	}
	spec := fleet.SweepSpec{
		Kind:          fleet.SweepLeak,
		Configs:       []string{"skylake-unfixed", "secdir"},
		Strategies:    []string{"primeprobe", "evictreload"},
		Trials:        goldenTrials,
		Rounds:        goldenRounds,
		EvictionLines: goldenEvLines,
		Seed:          goldenSeed,
	}
	stages := []string{
		"skylake-unfixed/primeprobe", "skylake-unfixed/evictreload",
		"secdir/primeprobe", "secdir/evictreload",
	}
	total := len(stages) * goldenTrials

	for _, n := range []int{1, 2} {
		t.Run(fmt.Sprintf("workers=%d", n), func(t *testing.T) {
			urls := make([]string, n)
			for i := range urls {
				urls[i] = newWorker(t)
			}
			c := newCoordinator(t, fleet.Config{Workers: urls})

			var mu sync.Mutex
			events := map[string][]int{}
			rep, prov, err := c.RunLeak(context.Background(), spec, func(stage string, done, tot int) {
				mu.Lock()
				defer mu.Unlock()
				if tot != total {
					t.Errorf("progress total = %d, want %d", tot, total)
				}
				events[stage] = append(events[stage], done)
			})
			if err != nil {
				t.Fatal(err)
			}

			// The merge provenance tiles the sweep exactly: every trial of
			// every cell is covered once, by a named worker.
			covered := 0
			for _, p := range prov {
				if p.Worker == "" {
					t.Errorf("provenance shard %s [%d,%d) has no worker", p.Cell, p.Start, p.Start+p.Count)
				}
				covered += p.Count
			}
			if covered != total {
				t.Errorf("provenance covers %d trials, want %d", covered, total)
			}

			head, rows := rep.CSV()
			golden.Check(t, "leakage_verdicts.csv", head, rows, false)

			// Progress climbs monotonically per stage to the stage's slice of
			// the sweep total, matching the local job runner's convention.
			for i, stage := range stages {
				dones := events[stage]
				if len(dones) == 0 {
					t.Errorf("stage %s reported no progress", stage)
					continue
				}
				for j := 1; j < len(dones); j++ {
					if dones[j] <= dones[j-1] {
						t.Errorf("stage %s progress not monotonic: %v", stage, dones)
						break
					}
				}
				if want := (i + 1) * goldenTrials; dones[len(dones)-1] != want {
					t.Errorf("stage %s final progress = %d, want %d", stage, dones[len(dones)-1], want)
				}
			}
		})
	}
}

// killSwitch wraps a worker's handler to simulate a process dying mid-sweep:
// after killAfter completed shard requests the next shard request streams a
// torn half-line, severs every live connection, and from then on every
// request — /healthz included — is aborted, so the coordinator's heartbeat
// ages the worker out and its shards re-enqueue elsewhere.
type killSwitch struct {
	inner     http.Handler
	ts        *httptest.Server
	killAfter int

	mu     sync.Mutex
	shards int
	dead   bool
}

func (k *killSwitch) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	k.mu.Lock()
	if k.dead {
		k.mu.Unlock()
		panic(http.ErrAbortHandler)
	}
	kill := false
	if r.URL.Path == "/fleet/shard" {
		k.shards++
		if k.shards > k.killAfter {
			k.dead, kill = true, true
		}
	}
	k.mu.Unlock()
	if kill {
		w.Header().Set("Content-Type", "application/x-ndjson")
		w.WriteHeader(http.StatusOK)
		_, _ = w.Write([]byte(`{"trial":`)) // torn mid-line
		if f, ok := w.(http.Flusher); ok {
			f.Flush()
		}
		go k.ts.CloseClientConnections()
		panic(http.ErrAbortHandler)
	}
	k.inner.ServeHTTP(w, r)
}

// TestFleetLeaderboardGoldenSurvivesWorkerKill races the full leaderboard
// roster across four workers, kills one after its second shard, and demands
// the merged leaderboard still render byte-identical to data/leaderboard.csv:
// the dead worker's shards must re-enqueue, never half-merge.
func TestFleetLeaderboardGoldenSurvivesWorkerKill(t *testing.T) {
	if raceEnabled {
		t.Skip("golden fleet sweep is too heavy under -race; sched_test.go races the scheduler")
	}
	urls := make([]string, 0, 4)
	for i := 0; i < 3; i++ {
		urls = append(urls, newWorker(t))
	}

	cfg := config.DefaultServerConfig()
	cfg.Workers = 2
	doomedSrv, err := server.New(cfg, metrics.New())
	if err != nil {
		t.Fatal(err)
	}
	ks := &killSwitch{inner: doomedSrv, killAfter: 2}
	doomed := httptest.NewServer(ks)
	ks.ts = doomed
	t.Cleanup(func() {
		doomed.Close()
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		defer cancel()
		_, _ = doomedSrv.Drain(ctx)
	})
	urls = append(urls, doomed.URL)

	reg := metrics.New()
	c := newCoordinator(t, fleet.Config{
		Workers:           urls,
		HeartbeatInterval: 100 * time.Millisecond,
		HeartbeatMiss:     2,
		MaxAttempts:       8,
		BackoffBase:       20 * time.Millisecond,
		Metrics:           reg,
	})

	start := time.Now()
	lb, prov, err := c.RunLeaderboard(context.Background(), fleet.SweepSpec{
		Kind:          fleet.SweepLeaderboard,
		Trials:        lbTrials,
		Rounds:        lbRounds,
		EvictionLines: goldenEvLines,
		Seed:          goldenSeed,
	}, func(stage string, done, total int) {
		t.Logf("%7.2fs %-24s %d/%d", time.Since(start).Seconds(), stage, done, total)
	})
	if err != nil {
		t.Fatal(err)
	}

	if len(prov) == 0 {
		t.Error("leaderboard sweep returned no merge provenance")
	}

	head, rows := lb.CSV()
	golden.Check(t, "leaderboard.csv", head, rows, false)

	if retried, requeued := reg.Counter("fleet/shards_retried").Value(),
		reg.Counter("fleet/shards_requeued").Value(); retried+requeued == 0 {
		t.Error("a worker died mid-sweep but no shard was retried or requeued")
	}
	var sawDead bool
	for _, w := range c.Workerz() {
		if w.URL == doomed.URL {
			sawDead = !w.Alive
		}
	}
	if !sawDead {
		t.Error("killed worker still reported alive in Workerz")
	}
}
