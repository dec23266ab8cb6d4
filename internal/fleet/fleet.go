// Package fleet scales the leakage lab from one process to a coordinator and
// N secdir-serve workers. A sweep has one plan, leakage.ReportOptions.Plan:
// its (config, strategy) cells in row-major order, every default resolved.
// leakage.RunReport executes that plan in-process; Coordinator.Run is the
// second executor. The lab's trials are seeded from (master seed, trial
// index) alone, so the coordinator cuts every planned cell into contiguous
// trial-range shards, dispatches them to any set of workers over the
// existing HTTP/JSON + NDJSON protocol, and merges the per-trial streams
// back into a Report bit-identical to RunReport's (leakage.RunShard /
// leakage.MergeVerdict are the two hooks). A leaderboard is that Report
// joined with cost columns (leakage.NewLeaderboard), so the fleet has no
// leaderboard path of its own.
//
// Robustness is the point of the package:
//
//   - per-shard wall-clock timeouts with exponential-backoff retry,
//   - re-enqueue of shards held by workers that die or miss heartbeats,
//   - work-stealing rebalance: an idle worker duplicates the oldest
//     in-flight shard of a straggler and the first result wins,
//   - graceful drain that lets in-flight shards finish.
//
// Workers are plain secdir-serve processes: every server exposes the
// POST /fleet/shard execution endpoint. A coordinator is a secdir-serve
// started with a -fleet-workers list; that static list is the whole fleet,
// and the coordinator reports per-worker liveness in the fleet section of
// GET /metricz.
package fleet

import (
	"fmt"
	"net/url"
	"strings"
	"time"

	"secdir/internal/metrics"
)

const (
	// maxInflight bounds the shards concurrently in flight per worker: one
	// executing, one queued behind the worker's pool.
	maxInflight = 2
	// shardTimeout is the per-attempt wall-clock budget of one shard call.
	// It runs on the wall clock, not Config.Clock.
	shardTimeout = 5 * time.Minute
)

// Config shapes a Coordinator. The zero value of every field but Workers is
// a usable default.
type Config struct {
	// Workers are the worker base URLs ("http://host:port"), as
	// ParseWorkerURLs returns them. The list is fixed for the coordinator's
	// lifetime.
	Workers []string
	// ShardTrials is the trial count per dispatched shard (default 25).
	// Smaller shards ride out worker loss more cheaply; larger shards
	// amortize HTTP overhead.
	ShardTrials int
	// MaxAttempts bounds the genuine-failure dispatch attempts per shard
	// before the sweep fails (default 4). Re-enqueues caused by worker death
	// or losing a steal race do not count against the budget.
	MaxAttempts int
	// BackoffBase and BackoffMax shape the exponential retry backoff:
	// attempt n waits min(BackoffBase << (n-1), BackoffMax)
	// (defaults 100ms and 5s).
	BackoffBase time.Duration
	// BackoffMax caps the exponential backoff.
	BackoffMax time.Duration
	// HeartbeatInterval is the liveness probe cadence (default 2s).
	HeartbeatInterval time.Duration
	// HeartbeatMiss is how many intervals a worker may go unseen before it
	// is declared dead and its in-flight shards are re-enqueued (default 3).
	HeartbeatMiss int
	// StealAfter is how long a shard may sit in flight on one worker while
	// another sits idle before the coordinator duplicates it onto the idle
	// worker (default 30s). The first result wins; the loser is discarded.
	StealAfter time.Duration
	// LocalWorkers overrides each shard's worker-local trial fan-out
	// (0 = the executing worker's GOMAXPROCS). Results are invariant either
	// way; this only tunes worker CPU usage.
	LocalWorkers int
	// Clock drives backoff, steal aging and heartbeats (default wall clock).
	Clock Clock
	// Metrics receives the fleet gauges and counters (nil = private
	// registry): fleet/workers_known, fleet/workers_live,
	// fleet/shards_inflight, fleet/shards_dispatched, fleet/shards_retried,
	// fleet/shards_stolen, fleet/shards_requeued, fleet/shards_discarded,
	// fleet/shards_busy, fleet/shard_millis.
	Metrics *metrics.Registry
}

// withDefaults fills unset Config fields.
func (c Config) withDefaults() Config {
	if c.ShardTrials <= 0 {
		c.ShardTrials = 25
	}
	if c.MaxAttempts <= 0 {
		c.MaxAttempts = 4
	}
	if c.BackoffBase <= 0 {
		c.BackoffBase = 100 * time.Millisecond
	}
	if c.BackoffMax <= 0 {
		c.BackoffMax = 5 * time.Second
	}
	if c.HeartbeatInterval <= 0 {
		c.HeartbeatInterval = 2 * time.Second
	}
	if c.HeartbeatMiss <= 0 {
		c.HeartbeatMiss = 3
	}
	if c.StealAfter <= 0 {
		c.StealAfter = 30 * time.Second
	}
	if c.Clock == nil {
		c.Clock = RealClock()
	}
	return c
}

// backoff returns the wait before retry attempt n (1-based): exponential
// from BackoffBase, capped at BackoffMax.
func (c Config) backoff(attempt int) time.Duration {
	d := c.BackoffBase
	for i := 1; i < attempt; i++ {
		d *= 2
		if d >= c.BackoffMax {
			return c.BackoffMax
		}
	}
	if d > c.BackoffMax {
		return c.BackoffMax
	}
	return d
}

// ParseWorkerURLs parses a comma-separated list of worker base URLs,
// dropping blanks and trailing slashes. Every entry must be an absolute
// http(s) URL with a host: a worker the coordinator cannot reach would
// never turn alive, and a sweep would wait on it until its deadline.
func ParseWorkerURLs(list string) ([]string, error) {
	var out []string
	for _, raw := range strings.Split(list, ",") {
		u := normalizeWorkerURL(raw)
		if u == "" {
			continue
		}
		parsed, err := url.Parse(u)
		if err != nil || (parsed.Scheme != "http" && parsed.Scheme != "https") || parsed.Host == "" {
			return nil, fmt.Errorf("fleet: bad worker url %q (want http(s)://host:port)", raw)
		}
		out = append(out, u)
	}
	return out, nil
}

// normalizeWorkerURL canonicalizes a worker base URL for map identity.
func normalizeWorkerURL(u string) string {
	return strings.TrimRight(strings.TrimSpace(u), "/")
}
