// Command adhocd is the HTTP simulation service: it accepts replication
// campaigns as JSON, executes them on local executors and/or a cluster of
// worker processes, and serves live progress (polling and SSE) and
// aggregated results.
//
// Usage:
//
//	adhocd -addr :8080 -journal-dir ./journals -cache-dir ./cache
//	adhocd -worker -join http://coordinator:8080
//
// API (coordinator mode):
//
//	POST   /campaigns              submit a campaign spec (JSON)
//	GET    /campaigns              list campaigns
//	GET    /campaigns/{id}         live progress
//	GET    /campaigns/{id}/events  server-sent-events progress stream
//	GET    /campaigns/{id}/results aggregated results (409 while running)
//	DELETE /campaigns/{id}         cancel (workers are notified)
//	POST   /dist/{lease,renew,release,commit} + GET /dist/...
//	                               the worker protocol (see internal/dist)
//
// SIGINT/SIGTERM drains gracefully: dispatch stops, in-flight runs finish
// and are journaled, leases are released. A second signal forces exit.
package main

import (
	"context"
	"flag"
	"fmt"
	"net"
	"net/http"
	"os"
	"os/signal"
	"runtime"
	"syscall"
	"time"

	"adhocsim"
)

// Server-side connection limits. There is no write timeout: the SSE
// progress streams are long-lived.
const (
	readHeaderTimeout = 10 * time.Second
	idleTimeout       = 2 * time.Minute
)

func main() {
	var (
		addr       = flag.String("addr", ":8080", "listen address (coordinator mode)")
		workers    = flag.Int("workers", 0, "local executor slots (0 = GOMAXPROCS; -1 = pure coordinator, remote workers only)")
		journalDir = flag.String("journal-dir", "", "checkpoint journals directory (empty = no checkpointing)")
		cacheDir   = flag.String("cache-dir", "", "content-addressed result cache directory (empty = in-memory cache)")
		leaseTTL   = flag.Duration("lease-ttl", 30*time.Second, "worker lease duration; a remote run of a cancelled or finished campaign stops within a third of it")
		workerMode = flag.Bool("worker", false, "run as a worker process (requires -join)")
		join       = flag.String("join", "", "coordinator URL to join in worker mode")
	)
	flag.Parse()

	if *workerMode {
		os.Exit(runWorkerMode(*join, *workers))
	}
	if *workers < -1 {
		fmt.Fprintln(os.Stderr, "adhocd: -workers must be >= -1 (-1 = pure coordinator)")
		os.Exit(2)
	}
	if *leaseTTL <= 0 {
		fmt.Fprintln(os.Stderr, "adhocd: -lease-ttl must be positive")
		os.Exit(2)
	}

	srv, err := newServer(*workers, *journalDir, *cacheDir, *leaseTTL)
	if err != nil {
		fmt.Fprintln(os.Stderr, "adhocd:", err)
		os.Exit(1)
	}

	// Listen before logging, so "-addr :0" reports the port it got.
	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		fmt.Fprintln(os.Stderr, "adhocd:", err)
		os.Exit(1)
	}
	httpSrv := &http.Server{
		Handler:           srv.Handler(),
		ReadHeaderTimeout: readHeaderTimeout,
		IdleTimeout:       idleTimeout,
	}
	sig := make(chan os.Signal, 2)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	go func() {
		<-sig
		fmt.Fprintln(os.Stderr, "adhocd: draining — in-flight runs will checkpoint (signal again to force)")
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		go func() {
			select {
			case <-sig:
				cancel()
			case <-ctx.Done():
			}
		}()
		if err := srv.Shutdown(ctx); err != nil {
			fmt.Fprintln(os.Stderr, "adhocd: forced shutdown:", err)
		}
		cancel()
		httpSrv.Close() // closes the listener and any open SSE streams
	}()
	fmt.Fprintf(os.Stderr, "adhocd: listening on %s\n", ln.Addr())
	if err := httpSrv.Serve(ln); err != nil && err != http.ErrServerClosed {
		fmt.Fprintln(os.Stderr, "adhocd:", err)
		os.Exit(1)
	}
}

// newServer builds the coordinator from the command-line flags.
func newServer(workers int, journalDir, cacheDir string, leaseTTL time.Duration) (*adhocsim.DistServer, error) {
	if journalDir != "" {
		if err := os.MkdirAll(journalDir, 0o755); err != nil {
			return nil, err
		}
	}
	var cache adhocsim.ResultStore
	var err error
	if cacheDir != "" {
		cache, err = adhocsim.NewFSResultStore(cacheDir)
		if err != nil {
			return nil, err
		}
	} else {
		cache = adhocsim.NewMemResultStore()
	}
	return adhocsim.NewDistServer(adhocsim.DistServerOptions{
		LocalWorkers: workers,
		JournalDir:   journalDir,
		Cache:        cache,
		LeaseTTL:     leaseTTL,
	}), nil
}

// runWorkerMode executes leased run units until the first SIGINT/SIGTERM
// (graceful drain: in-flight runs finish and commit); a second signal
// aborts in-flight runs immediately.
func runWorkerMode(join string, slots int) int {
	if join == "" {
		fmt.Fprintln(os.Stderr, "adhocd: -worker requires -join <coordinator URL>")
		return 2
	}
	if slots < 0 {
		// -1 means "pure coordinator" only in the other mode; a worker
		// with no slots would lease nothing.
		fmt.Fprintln(os.Stderr, "adhocd: -worker needs -workers >= 0 (0 = GOMAXPROCS)")
		return 2
	}
	if slots == 0 {
		slots = runtime.GOMAXPROCS(0)
	}
	soft, softCancel := context.WithCancel(context.Background())
	hard, hardCancel := context.WithCancel(context.Background())
	defer hardCancel()
	defer softCancel()
	sig := make(chan os.Signal, 2)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	go func() {
		<-sig
		fmt.Fprintln(os.Stderr, "adhocd: worker draining — in-flight runs will commit (signal again to abort)")
		softCancel()
		<-sig
		hardCancel()
	}()
	err := adhocsim.RunDistWorker(soft, adhocsim.DistWorkerOptions{
		Coordinator: join,
		Slots:       slots,
		Hard:        hard,
		Logf: func(format string, args ...any) {
			fmt.Fprintf(os.Stderr, "adhocd: "+format+"\n", args...)
		},
	})
	if err != nil {
		fmt.Fprintln(os.Stderr, "adhocd: worker:", err)
		return 1
	}
	fmt.Fprintln(os.Stderr, "adhocd: worker exited cleanly")
	return 0
}
