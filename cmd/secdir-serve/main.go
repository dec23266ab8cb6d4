// Command secdir-serve runs the SecDir simulation job server: an HTTP/JSON
// service that queues experiment, attack, and trace-replay jobs, executes
// them on a worker pool with per-job timeouts, and exposes job status,
// results, streamed progress, and a metrics snapshot.
//
// Usage:
//
//	secdir-serve                              # listen on localhost:8372
//	secdir-serve -addr :9000 -workers 4 -queue 16 -job-timeout 2m
//
// Fleet mode distributes leak/leaderboard sweeps across many processes; a
// server given -fleet-workers is the coordinator of that fixed worker list:
//
//	secdir-serve -addr :8373                                 # on each worker host
//	secdir-serve -addr :8372 -fleet-workers http://host1:8373,http://host2:8373
//
// A coordinator accepts jobs submitted with "fleet": true, shards them
// across its workers, and merges results bit-identical to a local run. Every
// server — coordinator or not — executes shards (POST /fleet/shard).
//
// Endpoints (see README.md for a worked curl session):
//
//	POST /jobs               submit a job          (202; 429 when the queue is full)
//	GET  /jobs               list jobs
//	GET  /jobs/{id}          job status
//	GET  /jobs/{id}/result   result of a done job  (409 while pending)
//	POST /jobs/{id}/cancel   cancel a job
//	GET  /jobs/{id}/stream   NDJSON progress stream
//	GET  /healthz            liveness + load
//	GET  /metricz            merged metrics snapshot (+ fleet worker status)
//	GET  /versionz           the binary's build info
//	GET  /storez             experiment-store chain head (with -store-dir)
//	POST /fleet/shard        execute one trial-range shard (NDJSON stream)
//
// With -store-dir the server keeps a durable, hash-chained experiment store:
// every job lifecycle lands in the run ledger, results become
// content-addressed artifacts, and a restart replays the ledger — finished
// jobs answer /jobs/{id}/result byte-identically again (even after SIGKILL),
// jobs that were still queued are re-submitted under their original IDs.
// Inspect and audit the directory with the secdir-store command.
//
// SIGINT/SIGTERM starts a graceful drain: in-flight jobs finish (up to
// -drain-timeout), queued-but-unstarted jobs are requeued (persisted for
// restart when a store is attached) and their IDs logged so the operator can
// resubmit them, new submissions get 503.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"log"
	"net/http"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"secdir/internal/config"
	"secdir/internal/fleet"
	"secdir/internal/metrics"
	"secdir/internal/server"
	"secdir/internal/store"
)

func main() {
	def := config.DefaultServerConfig()
	addr := flag.String("addr", def.Addr, "listen address")
	queue := flag.Int("queue", def.QueueDepth, "max queued jobs before submissions get 429")
	workers := flag.Int("workers", 0, "worker-pool width (0 = GOMAXPROCS)")
	jobTimeout := flag.Duration("job-timeout", def.JobTimeout, "per-job wall-clock budget (0 = none)")
	drainTimeout := flag.Duration("drain-timeout", 30*time.Second, "how long a graceful shutdown waits for in-flight jobs")
	storeDir := flag.String("store-dir", "", "directory of the durable experiment store (empty = no persistence)")

	fleetWorkers := flag.String("fleet-workers", "", "comma-separated worker base URLs; non-empty makes this server their fleet coordinator")
	flag.Parse()

	cfg := config.ServerConfig{
		Addr:       *addr,
		QueueDepth: *queue,
		Workers:    *workers,
		JobTimeout: *jobTimeout,
	}
	fleetURLs, err := fleet.ParseWorkerURLs(*fleetWorkers)
	if err != nil {
		fmt.Fprintln(os.Stderr, "-fleet-workers:", err)
		os.Exit(2)
	}
	if err := run(cfg, *drainTimeout, *storeDir, fleetURLs); err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
}

// run brings the server (and, given fleet workers, its coordinator) up and
// tears everything down on SIGINT/SIGTERM.
func run(cfg config.ServerConfig, drainTimeout time.Duration, storeDir string, fleetWorkers []string) error {
	reg := metrics.New()
	srv, err := server.New(cfg, reg)
	if err != nil {
		return err
	}

	var st *store.Store
	if storeDir != "" {
		backend, err := store.OpenDisk(storeDir)
		if err != nil {
			return fmt.Errorf("store: %w", err)
		}
		if st, err = store.Open(backend, store.Options{}); err != nil {
			return fmt.Errorf("store: %w", err)
		}
		defer func() {
			if err := st.Close(); err != nil {
				log.Printf("store close: %v", err)
			}
		}()
		rc, err := srv.AttachStore(st)
		if err != nil {
			return err
		}
		log.Printf("experiment store %s: chain head %d; restored %d finished job(s), resubmitted %d",
			storeDir, st.Stats().HeadIndex, rc.Restored, len(rc.Resubmitted))
		for _, d := range rc.Dropped {
			log.Printf("store replay dropped %s", d)
		}
	}

	if len(fleetWorkers) > 0 {
		srv.AttachFleet(fleet.New(fleet.Config{Workers: fleetWorkers, Metrics: reg}))
		log.Printf("fleet coordinator up (%d workers)", len(fleetWorkers))
	}

	httpSrv := &http.Server{Addr: cfg.Addr, Handler: srv}

	ctx, stop := signal.NotifyContext(context.Background(), syscall.SIGINT, syscall.SIGTERM)
	defer stop()

	errc := make(chan error, 1)
	go func() {
		log.Printf("secdir-serve listening on %s (%d workers, queue %d, job timeout %v)",
			cfg.Addr, cfg.ResolvedWorkers(), cfg.QueueDepth, cfg.JobTimeout)
		errc <- httpSrv.ListenAndServe()
	}()

	select {
	case err := <-errc:
		return err
	case <-ctx.Done():
	}

	log.Printf("signal received; draining (up to %v)", drainTimeout)
	dctx, cancel := context.WithTimeout(context.Background(), drainTimeout)
	defer cancel()
	requeued, drainErr := srv.Drain(dctx)
	if len(requeued) > 0 {
		log.Printf("drain requeued %d unstarted job(s): %s — resubmit them elsewhere",
			len(requeued), strings.Join(requeued, ", "))
	}
	if err := httpSrv.Shutdown(dctx); err != nil && !errors.Is(err, context.DeadlineExceeded) {
		return err
	}
	if drainErr != nil {
		return fmt.Errorf("drain: %w", drainErr)
	}
	log.Printf("drained cleanly")
	return nil
}
