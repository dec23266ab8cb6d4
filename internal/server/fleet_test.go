package server

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"net/http"
	"reflect"
	"sort"
	"strings"
	"testing"
	"time"

	"secdir/internal/fleet"
	"secdir/internal/leakage"
)

// TestShardEndpoint exercises the worker face every server exposes:
// POST /fleet/shard streams the requested trial range as NDJSON, terminated
// by a counted EOF marker, and the trials match a direct leakage.RunShard of
// the same range exactly.
func TestShardEndpoint(t *testing.T) {
	s := newTestServer(t, quickConfig())

	req := fleet.ShardRequest{
		Config:   "skylake-unfixed",
		Strategy: "evictreload",
		Cores:    8,
		Trials:   20,
		Rounds:   8,
		Seed:     5,
		Start:    5,
		Count:    10,
	}
	body, err := json.Marshal(req)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(s.ts.URL+"/fleet/shard", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("shard HTTP %d, want 200", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); ct != "application/x-ndjson" {
		t.Errorf("Content-Type = %q, want application/x-ndjson", ct)
	}

	var got []leakage.TrialResult
	sawEOF := false
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		var line fleet.ShardLine
		if err := json.Unmarshal(sc.Bytes(), &line); err != nil {
			t.Fatalf("bad NDJSON line %q: %v", sc.Text(), err)
		}
		switch {
		case line.Err != "":
			t.Fatalf("shard stream error: %s", line.Err)
		case line.EOF:
			if line.Count != req.Count {
				t.Fatalf("eof count = %d, want %d", line.Count, req.Count)
			}
			sawEOF = true
		case line.Trial != nil:
			got = append(got, *line.Trial)
		}
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	if !sawEOF {
		t.Fatal("shard stream ended without an eof marker")
	}

	// The stream arrives in completion order; RunShard returns index order.
	sort.Slice(got, func(i, j int) bool { return got[i].Index < got[j].Index })
	opts, err := req.Options()
	if err != nil {
		t.Fatal(err)
	}
	want, err := leakage.RunShard(context.Background(), opts, req.Start, req.Count, nil)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("streamed shard diverges from direct RunShard:\ngot:  %+v\nwant: %+v", got, want)
	}

	// A bad config name is rejected before any engine spins up.
	bad, _ := json.Marshal(fleet.ShardRequest{Config: "nosuch", Strategy: "evictreload", Cores: 8, Trials: 10, Count: 10})
	resp2, err := http.Post(s.ts.URL+"/fleet/shard", "application/json", bytes.NewReader(bad))
	if err != nil {
		t.Fatal(err)
	}
	resp2.Body.Close()
	if resp2.StatusCode != http.StatusBadRequest {
		t.Errorf("bad shard request HTTP %d, want 400", resp2.StatusCode)
	}
}

// TestFleetJobEndToEnd drives a fleet leak job through the public job API of
// a coordinator server backed by two real worker servers, and demands the
// result match the same job run locally — byte-for-byte at the JSON layer,
// since both decode into the same leakage.Report.
func TestFleetJobEndToEnd(t *testing.T) {
	w1 := newTestServer(t, quickConfig())
	narrow := quickConfig()
	narrow.Workers = 1
	w2 := newTestServer(t, narrow)
	co := newTestServer(t, quickConfig())
	co.srv.AttachFleet(fleet.New(fleet.Config{
		Workers: []string{w1.ts.URL, w2.ts.URL},
		Metrics: co.reg,
	}))

	spec := JobSpec{
		Kind:       KindLeak,
		Fleet:      true,
		Configs:    []string{"skylake-unfixed"},
		Strategies: []string{"evictreload"},
		Trials:     30,
		Rounds:     8,
		Seed:       1,
	}

	// A plain server has no coordinator: fleet submissions are rejected
	// up front, not queued to fail later.
	w1.submit(t, spec, http.StatusBadRequest)

	// A coordinator with an empty fleet queues the job, which then fails
	// naming the missing workers.
	empty := newTestServer(t, quickConfig())
	empty.srv.AttachFleet(fleet.New(fleet.Config{Metrics: empty.reg}))
	est := empty.submit(t, spec, 0)
	if js := empty.waitState(t, est.ID, StateFailed, 30*time.Second); !strings.Contains(js.Err, "no workers") {
		t.Errorf("empty-fleet job error = %q, want a no-workers failure", js.Err)
	}

	st := co.submit(t, spec, 0)
	co.waitState(t, st.ID, StateDone, 120*time.Second)
	var fleetRes struct {
		Result leakage.Report `json:"result"`
	}
	co.getResult(t, st.ID, &fleetRes)

	local := spec
	local.Fleet = false
	st2 := co.submit(t, local, 0)
	co.waitState(t, st2.ID, StateDone, 120*time.Second)
	var localRes struct {
		Result leakage.Report `json:"result"`
	}
	co.getResult(t, st2.ID, &localRes)

	if !reflect.DeepEqual(fleetRes.Result, localRes.Result) {
		t.Errorf("fleet job result diverges from local job:\nfleet: %+v\nlocal: %+v",
			fleetRes.Result, localRes.Result)
	}

	// The coordinator's /metricz fleet section reports both workers alive,
	// with shards done and the pool width each one's /healthz advertises.
	mb := getMetricz(t, co)
	if len(mb.Fleet) != 2 {
		t.Fatalf("/metricz fleet section has %d workers, want 2: %+v", len(mb.Fleet), mb.Fleet)
	}
	wantWidth := map[string]int{w1.ts.URL: 2, w2.ts.URL: 1}
	for _, w := range mb.Fleet {
		if !w.Alive || w.ShardsDone == 0 || w.PoolWidth != wantWidth[w.URL] {
			t.Errorf("worker %s: alive=%v done=%d pool width %d, want a live worker with shards done and pool width %d",
				w.URL, w.Alive, w.ShardsDone, w.PoolWidth, wantWidth[w.URL])
		}
	}
	if n := mb.Snapshot.Gauges["fleet/workers_live"]; n != 2 {
		t.Errorf("fleet/workers_live = %v, want 2", n)
	}
	if mb.Snapshot.Counters["fleet/shards_dispatched"] == 0 {
		t.Error("fleet/shards_dispatched = 0 after a fleet job")
	}

	// A plain server's /metricz has no fleet section.
	if fl := getMetricz(t, w1).Fleet; fl != nil {
		t.Errorf("plain server /metricz fleet section = %+v, want none", fl)
	}
}

// getMetricz fetches and decodes a server's GET /metricz.
func getMetricz(t *testing.T, s *testServer) metricsBody {
	t.Helper()
	resp, err := http.Get(s.ts.URL + "/metricz")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var mb metricsBody
	if err := json.NewDecoder(resp.Body).Decode(&mb); err != nil {
		t.Fatal(err)
	}
	return mb
}
