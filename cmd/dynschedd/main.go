// Command dynschedd is the dynsched simulation daemon: it serves the
// scenario library and ad-hoc Scenario specs over an HTTP/JSON API,
// runs submissions on a bounded job queue and worker pool, streams
// live progress as NDJSON, and serves repeated submissions from a
// content-addressed result cache keyed by the canonical spec hash.
//
// With -journal-dir the daemon is durable: job lifecycle events are
// journaled, running simulations checkpoint every -checkpoint-every
// slots, and a restart against the same directories recovers every
// incomplete job — re-simulating only units whose results never
// reached the cache, and resuming interrupted simulations from their
// last checkpoint. The recovered result documents are byte-identical
// to uninterrupted ones.
//
// Every daemon serves Prometheus text metrics at GET /metrics (queue,
// workers, jobs by state, cache tiers, plan units, engine throughput,
// journal traffic — see README §Observability for the catalog) and a
// typed health document at GET /healthz; -pprof additionally serves
// net/http/pprof under /debug/pprof/ for live profiling. The
// dynschedctl companion command renders these surfaces (status,
// watch, doctor).
//
// Examples:
//
//	dynschedd -addr :8080
//	dynschedd -addr :8080 -workers 4 -queue 128 -cache-dir /var/cache/dynschedd
//	dynschedd -addr :8080 -journal-dir /var/lib/dynschedd -cache-dir /var/cache/dynschedd
//	dynschedd -addr :8080 -pprof
//
//	curl -s localhost:8080/v1/scenarios
//	curl -s -XPOST localhost:8080/v1/jobs -d '{"name":"sinr-stochastic"}'
//	curl -s localhost:8080/v1/jobs/job-1
//	curl -sN localhost:8080/v1/jobs/job-1/events
//	curl -s -XDELETE localhost:8080/v1/jobs/job-1
//	curl -s localhost:8080/metrics
//
// The first SIGINT/SIGTERM stops accepting connections and drains:
// running jobs get -shutdown-grace to finish, stragglers are dropped
// (and recovered on the next boot when journaled); a second signal
// kills the process immediately.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"log"
	"net"
	"net/http"
	"net/http/pprof"
	"os"
	"time"

	"dynsched/internal/cli"
	"dynsched/internal/metrics"
	"dynsched/internal/server"
)

func main() {
	so := cli.ServerOptions{Addr: ":8080", ShutdownGrace: 10 * time.Second}
	cli.RegisterServerFlags(flag.CommandLine, &so)
	flag.Parse()

	ctx, stop := cli.SignalContext()
	defer stop()

	if so.Join != "" {
		runRunner(ctx, so)
		return
	}

	srv, err := server.New(server.Config{
		Workers:         so.Workers,
		QueueDepth:      so.QueueDepth,
		CacheEntries:    so.CacheEntries,
		CacheDir:        so.CacheDir,
		CacheDiskMax:    so.CacheDiskMax,
		ProgressEvery:   so.ProgressEvery,
		JournalDir:      so.JournalDir,
		CheckpointEvery: so.CheckpointEvery,
		LeaseExpiry:     so.LeaseExpiry,
		FleetBatchMax:   so.FleetBatchMax,
		FleetLocal:      so.FleetLocal,
	})
	if err != nil {
		fmt.Fprintln(os.Stderr, "dynschedd:", err)
		os.Exit(1)
	}
	if n := srv.RecoveredJobs(); n > 0 {
		log.Printf("dynschedd recovered %d incomplete job(s) from %s", n, so.JournalDir)
	}
	srv.Start(ctx)

	ln, err := net.Listen("tcp", so.Addr)
	if err != nil {
		fmt.Fprintln(os.Stderr, "dynschedd:", err)
		os.Exit(1)
	}
	handler := srv.Handler()
	if so.Pprof {
		// The service mux knows nothing about pprof; wrap it so the
		// debug surface only exists when the operator asked for it.
		mux := http.NewServeMux()
		mux.Handle("/", handler)
		mux.HandleFunc("/debug/pprof/", pprof.Index)
		mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
		mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
		mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
		mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
		handler = mux
	}
	httpSrv := &http.Server{
		Handler:           handler,
		ReadHeaderTimeout: 10 * time.Second,
	}
	go func() {
		<-ctx.Done()
		shutdownCtx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		_ = httpSrv.Shutdown(shutdownCtx)
	}()

	log.Printf("dynschedd listening on %s", ln.Addr())
	if err := httpSrv.Serve(ln); err != nil && !errors.Is(err, http.ErrServerClosed) {
		fmt.Fprintln(os.Stderr, "dynschedd:", err)
		os.Exit(1)
	}
	rep := srv.Drain(so.ShutdownGrace)
	srv.Wait()
	log.Printf("dynschedd stopped: %d running job(s) finished, %d queued and %d running dropped",
		rep.Finished, rep.DroppedQueued, rep.DroppedRunning)
}

// runRunner is the -join mode: a stateless fleet runner leasing
// plan-unit batches from the coordinator, with a minimal /healthz and
// /metrics of its own on -addr (empty = no listener).
func runRunner(ctx context.Context, so cli.ServerOptions) {
	reg := metrics.NewRegistry()
	runner := server.NewRunner(server.RunnerConfig{
		Coordinator: so.Join,
		ID:          so.RunnerID,
		Parallel:    so.Workers,
		BatchMax:    so.FleetBatchMax,
		Registry:    reg,
	})

	var httpSrv *http.Server
	if so.Addr != "" {
		mux := http.NewServeMux()
		mux.Handle("/metrics", reg.Handler())
		mux.HandleFunc("/healthz", func(w http.ResponseWriter, r *http.Request) {
			w.Header().Set("Content-Type", "application/json")
			fmt.Fprintf(w, `{"ok":true,"runner":%q,"coordinator":%q,"unitsDone":%d}`+"\n",
				runner.ID(), so.Join, runner.UnitsDone())
		})
		ln, err := net.Listen("tcp", so.Addr)
		if err != nil {
			fmt.Fprintln(os.Stderr, "dynschedd:", err)
			os.Exit(1)
		}
		httpSrv = &http.Server{Handler: mux, ReadHeaderTimeout: 10 * time.Second}
		go func() {
			if err := httpSrv.Serve(ln); err != nil && !errors.Is(err, http.ErrServerClosed) {
				log.Printf("dynschedd runner listener: %v", err)
			}
		}()
		log.Printf("dynschedd runner %s serving /healthz and /metrics on %s", runner.ID(), ln.Addr())
	}

	log.Printf("dynschedd runner %s joining fleet at %s", runner.ID(), so.Join)
	_ = runner.Run(ctx)
	if httpSrv != nil {
		shutdownCtx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
		defer cancel()
		_ = httpSrv.Shutdown(shutdownCtx)
	}
	log.Printf("dynschedd runner %s stopped after %d unit(s)", runner.ID(), runner.UnitsDone())
}
