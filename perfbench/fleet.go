package main

import (
	"context"
	"encoding/json"
	"errors"
	"net/http"
	"net/http/httptest"
	"time"

	"secdir/internal/config"
	"secdir/internal/fleet"
	"secdir/internal/metrics"
	"secdir/internal/server"
	"secdir/internal/store"
)

// fleetJobs is how many fleet jobs serve-leak's traced run sends.
const fleetJobs = 60

// fleetRig is a coordinator server with a fleet attached over two
// in-process worker servers, each with one job worker and one local trial
// worker. The coordinator keeps merge provenance in an in-memory ledger.
//
// It is measured inside serve-leak's traced run rather than as a workload
// of its own: a fleet job runs its two shards on both cores at once, so its
// latency moved by up to a quarter between runs on a shared 2-core machine,
// past any bound an end-to-end metric may have.
type fleetRig struct {
	workers []*server.Server
	whs     []*httptest.Server
	srv     *server.Server
	hs      *httptest.Server
	mem     *store.MemBackend
	st      *store.Store
}

// startFleet starts the workers and the coordinator and waits until the
// coordinator has learned both workers' pool widths, so dispatch is sized
// from the first job on.
func startFleet(ctx context.Context) (*fleetRig, error) {
	f := &fleetRig{}
	var urls []string
	for i := 0; i < 2; i++ {
		w, err := server.New(config.ServerConfig{QueueDepth: 16, Workers: 1}, nil)
		if err != nil {
			return nil, errors.Join(err, f.close(ctx))
		}
		hs := httptest.NewServer(w)
		f.workers, f.whs = append(f.workers, w), append(f.whs, hs)
		urls = append(urls, hs.URL)
	}
	reg := metrics.New()
	var err error
	f.srv, err = server.New(config.ServerConfig{QueueDepth: 16, Workers: 1}, reg)
	if err != nil {
		return nil, errors.Join(err, f.close(ctx))
	}
	c := fleet.New(fleet.Config{Workers: urls, LocalWorkers: 1, Metrics: reg})
	f.srv.AttachFleet(c)
	f.mem = store.NewMem()
	if f.st, err = store.Open(f.mem, store.Options{}); err != nil {
		return nil, errors.Join(err, f.close(ctx))
	}
	if _, err := f.srv.AttachStore(f.st); err != nil {
		return nil, errors.Join(err, f.close(ctx))
	}
	f.hs = httptest.NewServer(f.srv)
	deadline := time.Now().Add(10 * time.Second)
	for !poolWidthsKnown(c, len(urls)) {
		if time.Now().After(deadline) {
			return nil, errors.Join(errors.New("fleet workers' pool widths not learned within 10s"), f.close(ctx))
		}
		time.Sleep(time.Millisecond)
	}
	return f, nil
}

// poolWidthsKnown reports whether the coordinator knows the pool width of
// all n workers.
func poolWidthsKnown(c *fleet.Coordinator, n int) bool {
	known := 0
	for _, w := range c.Workerz() {
		if w.PoolWidth > 0 {
			known++
		}
	}
	return known == n
}

// metricz is the part of GET /metricz the benchmark reads.
type metricz struct {
	Snapshot metrics.Snapshot `json:"snapshot"`
}

// measure sends fleetJobs fleet jobs of spec's shape one after another,
// each checked byte for byte against the local computation, and returns
// the fleet's per-layer metrics: shard times from the merge provenance in
// the coordinator's ledger, coordinator time (a job's run time minus its
// slowest worker's summed shard time), worker busy share, and the share of
// dispatched shards that were merged.
func (f *fleetRig) measure(ctx context.Context, spec server.JobSpec, tr *tracer) (map[string]float64, error) {
	spec.Fleet = true
	client, err := newJobClient(ctx, f.hs.URL, f.hs.Client(), spec)
	if err != nil {
		return nil, err
	}
	if err := client.warm(ctx, 1); err != nil {
		return nil, err
	}
	start := time.Now()
	for i := 0; i < fleetJobs; i++ {
		if _, err := client.run(ctx, tr); err != nil {
			return nil, err
		}
	}
	elapsed := time.Since(start)

	var mz metricz
	if err := client.call(ctx, http.MethodGet, "/metricz", nil, http.StatusOK, &mz); err != nil {
		return nil, err
	}
	recs, err := f.st.Records()
	if err != nil {
		return nil, err
	}
	prov := map[string][]fleet.ShardProvenance{}
	for _, r := range recs {
		if r.Kind != store.KindFleetMerge {
			continue
		}
		data, err := f.st.Artifact(r.ResultDigest)
		if err != nil {
			return nil, err
		}
		var p []fleet.ShardProvenance
		if err := json.Unmarshal(data, &p); err != nil {
			return nil, err
		}
		prov[r.JobID] = p
	}

	var shardMs, coordMs []float64
	var busy float64
	for _, t := range client.traced {
		perWorker := map[string]float64{}
		for _, p := range prov[t.id] {
			shardMs = append(shardMs, float64(p.Millis))
			perWorker[p.Worker] += float64(p.Millis)
			busy += float64(p.Millis)
		}
		slowest := 0.0
		for _, v := range perWorker {
			slowest = max(slowest, v)
		}
		coordMs = append(coordMs, t.runMs-slowest)
	}
	m := map[string]float64{
		"fleet.shard_ms":          quantile(shardMs, 0.5),
		"fleet.coordinator_ms":    quantile(coordMs, 0.5),
		"fleet.worker_busy_share": busy / (float64(elapsed.Milliseconds()) * float64(len(f.workers))),
	}
	c := mz.Snapshot.Counters
	if d := c["fleet/shards_dispatched"]; d > 0 {
		wasted := c["fleet/shards_discarded"] + c["fleet/shards_requeued"] + c["fleet/shards_busy"] + c["fleet/shards_retried"]
		m["fleet.useful_shard_ratio"] = float64(d-min(wasted, d)) / float64(d)
	}
	return m, nil
}

// close drains the coordinator (and with it the fleet) and the workers,
// and audits the coordinator's ledger.
func (f *fleetRig) close(ctx context.Context) error {
	var errs []error
	for _, s := range append([]*server.Server{f.srv}, f.workers...) {
		if s == nil {
			continue
		}
		if _, err := s.Drain(ctx); err != nil {
			errs = append(errs, err)
		}
	}
	for _, hs := range append([]*httptest.Server{f.hs}, f.whs...) {
		if hs != nil {
			hs.Close()
		}
	}
	if f.st != nil {
		if err := f.st.Close(); err != nil {
			errs = append(errs, err)
		}
		if _, err := store.VerifyChain(f.mem); err != nil {
			errs = append(errs, err)
		}
	}
	return errors.Join(errs...)
}
