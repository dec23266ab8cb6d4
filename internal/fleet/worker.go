package fleet

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"strings"
	"time"

	"secdir/internal/leakage"
)

// errWorkerBusy marks a shard attempt the worker refused with HTTP 429 (all
// shard slots occupied). Busy refusals requeue with backoff but never count
// against a shard's MaxAttempts budget.
var errWorkerBusy = errors.New("fleet: worker busy")

// worker is the coordinator's view of one secdir-serve instance. All fields
// are guarded by the coordinator's mutex.
type worker struct {
	url string

	lastSeen  time.Time // last successful probe
	inflight  int       // shards currently assigned
	poolWidth int       // reported pool width: caps dispatch concurrency when known

	done       uint64 // shards completed and accepted
	failed     uint64 // shard attempts that errored
	stolenFrom uint64 // shards duplicated away because this worker straggled
	stolenBy   uint64 // duplicated shards this worker picked up
}

// alive reports liveness by heartbeat age: a worker unseen for more than
// HeartbeatMiss intervals is dead and receives no new shards until a probe
// revives it.
func (w *worker) alive(now time.Time, cfg Config) bool {
	return now.Sub(w.lastSeen) <= time.Duration(cfg.HeartbeatMiss)*cfg.HeartbeatInterval
}

// WorkerStatus is one row of the fleet section of GET /metricz: a worker's
// liveness and shard accounting as JSON.
type WorkerStatus struct {
	// URL is the worker's base URL.
	URL string `json:"url"`
	// Alive reports heartbeat-age liveness.
	Alive bool `json:"alive"`
	// LastHeartbeatAgeMS is how long ago the worker was last seen.
	LastHeartbeatAgeMS int64 `json:"last_heartbeat_age_ms"`
	// Inflight counts shards currently assigned to the worker.
	Inflight int `json:"inflight"`
	// PoolWidth is the worker's reported job-pool width (0 = unknown).
	PoolWidth int `json:"pool_width,omitempty"`
	// ShardsDone counts accepted shard completions.
	ShardsDone uint64 `json:"shards_done"`
	// ShardsFailed counts errored shard attempts.
	ShardsFailed uint64 `json:"shards_failed"`
	// ShardsStolenFrom counts shards duplicated away from this straggler.
	ShardsStolenFrom uint64 `json:"shards_stolen_from"`
	// ShardsStolenBy counts duplicated shards this worker picked up.
	ShardsStolenBy uint64 `json:"shards_stolen_by"`
}

// executeShard runs one shard on one worker: POST the request, stream the
// NDJSON response, and validate completeness against the EOF marker. The
// context carries the per-attempt shardTimeout; cancelling it (steal loss,
// dead-worker reap, sweep teardown) aborts the transfer.
func (c *Coordinator) executeShard(ctx context.Context, w *worker, req ShardRequest) ([]leakage.TrialResult, error) {
	body, err := json.Marshal(req)
	if err != nil {
		return nil, err
	}
	ctx, cancel := context.WithTimeout(ctx, shardTimeout)
	defer cancel()
	hreq, err := http.NewRequestWithContext(ctx, http.MethodPost, w.url+"/fleet/shard", bytes.NewReader(body))
	if err != nil {
		return nil, err
	}
	hreq.Header.Set("Content-Type", "application/json")
	resp, err := http.DefaultClient.Do(hreq)
	if err != nil {
		return nil, fmt.Errorf("worker %s: %w", w.url, err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		msg, _ := io.ReadAll(io.LimitReader(resp.Body, 4096))
		err := fmt.Errorf("worker %s: shard HTTP %d: %s", w.url, resp.StatusCode, strings.TrimSpace(string(msg)))
		if resp.StatusCode == http.StatusTooManyRequests {
			// Every shard slot on the worker is busy (its pool may be shared
			// with local jobs or another coordinator). Not the shard's fault:
			// the scheduler backs off without charging the attempt budget.
			err = fmt.Errorf("%w: %v", errWorkerBusy, err)
		}
		return nil, err
	}

	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 64<<10), 1<<20)
	out := make([]leakage.TrialResult, 0, req.Count)
	sawEOF := false
	for sc.Scan() {
		var line ShardLine
		if err := json.Unmarshal(sc.Bytes(), &line); err != nil {
			return nil, fmt.Errorf("worker %s: bad shard stream line %q: %w", w.url, sc.Text(), err)
		}
		switch {
		case line.Err != "":
			return nil, fmt.Errorf("worker %s: %s", w.url, line.Err)
		case line.EOF:
			if line.Count != len(out) {
				return nil, fmt.Errorf("worker %s: shard stream inconsistent: eof says %d trials, streamed %d",
					w.url, line.Count, len(out))
			}
			sawEOF = true
		case line.Trial != nil:
			out = append(out, *line.Trial)
		}
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("worker %s: shard stream: %w", w.url, err)
	}
	if !sawEOF {
		return nil, fmt.Errorf("worker %s: shard stream truncated after %d/%d trials (no eof marker)",
			w.url, len(out), req.Count)
	}
	if len(out) != req.Count {
		return nil, fmt.Errorf("worker %s: shard returned %d trials, want %d", w.url, len(out), req.Count)
	}
	return out, nil
}

// probe checks one worker's /healthz on the wall clock (bounded by the
// heartbeat interval) and reports whether it is accepting work, plus the
// worker-pool width the health body advertises (0 = unknown) so the
// scheduler can avoid oversubscribing narrow workers.
func (c *Coordinator) probe(w *worker) (ok bool, poolWidth int) {
	timeout := c.cfg.HeartbeatInterval
	if timeout > 2*time.Second {
		timeout = 2 * time.Second
	}
	ctx, cancel := context.WithTimeout(context.Background(), timeout)
	defer cancel()
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, w.url+"/healthz", nil)
	if err != nil {
		return false, 0
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		return false, 0
	}
	defer resp.Body.Close()
	body, _ := io.ReadAll(io.LimitReader(resp.Body, 4096))
	// A draining worker answers 503: reachable, but it must not receive new
	// shards; letting its heartbeat age out re-enqueues them elsewhere.
	if resp.StatusCode != http.StatusOK {
		return false, 0
	}
	var hb struct {
		Workers int `json:"workers"`
	}
	_ = json.Unmarshal(body, &hb)
	return true, hb.Workers
}
