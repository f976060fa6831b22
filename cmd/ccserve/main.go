// Command ccserve runs congestion-control scenario batches as a
// service: a long-running HTTP server that prices submitted scenarios
// with the footprint estimator, admits them under a global budget
// (full queue = 429 + Retry-After, never an unbounded goroutine pile),
// dedupes them by run key against the content-addressed result store —
// the store, keys and records cmd/reproduce uses, so either front end
// serves the other's runs — and executes them on a fleet of
// process-isolated worker subprocesses under estimator-derived
// deadlines and OS-level memory ceilings, streaming per-job progress.
//
// Robustness is the point: every admitted job's spec is committed to
// the store before the submit is answered, so SIGKILL at any instant
// loses no accepted work — the next boot re-queues every spec record
// with no result, failure record or refusing poison record, and serves
// already-committed results from the store without recomputation.
// SIGTERM drains gracefully: stop admitting, finish in-flight jobs
// within a grace period, checkpoint the rest. Worker processes add
// fault isolation on top: a config that OOMs or crashes kills one
// subprocess, not the service, and a config whose attempts keep ending
// without a result is refused as poisoned after -poison-after strikes.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"

	"ccatscale/internal/budget"
	"ccatscale/internal/store"
)

func main() {
	// Hidden worker mode: the supervisor re-execs this same binary with
	// the single argument "-worker" and feeds it schema.WorkerJob values
	// on stdin. Dispatch before flag parsing so the worker surface stays
	// frozen — supervisor flags must never leak into (or gate) the
	// worker protocol.
	if len(os.Args) == 2 && os.Args[1] == "-worker" {
		os.Exit(workerRun(store.OSFS(), os.Stdin, os.Stdout, os.Stderr, nil))
	}
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(argv []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("ccserve", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		addr           = fs.String("addr", "localhost:8080", "listen address (host:port; port 0 = ephemeral)")
		out            = fs.String("out", "serve-out", "output directory (store, leases, poison records, failure records)")
		workers        = fs.Int("workers", 2, "concurrent simulation workers")
		slots          = fs.Int("slots", 64, "admission slots: max queued+running jobs before 429")
		queueHeap      = fs.Int64("queue-heap", 0, "aggregate estimated heap bytes across admitted jobs (0 = unlimited)")
		queueWall      = fs.Duration("queue-wall", 0, "aggregate estimated wall time across admitted jobs (0 = unlimited)")
		leaseTTL       = fs.Duration("lease-ttl", 30*time.Second, "lease staleness threshold")
		leaseHeartbeat = fs.Duration("lease-heartbeat", 0, "lease refresh interval (0 = ttl/6); must be under a third of -lease-ttl")
		deadlineFactor = fs.Float64("deadline-factor", 4, "wall-clock deadline as a multiple of the estimated wall time")
		minDeadline    = fs.Duration("min-deadline", 15*time.Second, "floor for per-job deadlines")
		drainTimeout   = fs.Duration("drain-timeout", 30*time.Second, "grace period for in-flight jobs at SIGTERM")
		inprocess      = fs.Bool("inprocess", false, "run jobs in the server process instead of worker subprocesses (no fault isolation)")
		workerMem      = fs.Int64("worker-mem", 0, "hard cap on any worker's RLIMIT_AS in bytes (0 = estimator-derived only)")
		poisonAfter    = fs.Int("poison-after", 3, "strikes (failed runs or worker crashes) before a config is poisoned (terminal, survives resubmission)")
	)
	if err := fs.Parse(argv); err != nil {
		return 2
	}

	if *workers < 1 {
		*workers = 1
	}

	// SIGTERM coverage starts before boot recovery, not after: a drain
	// signal that lands while the spec records are read must checkpoint
	// and exit cleanly, not be dropped on the floor until the listener
	// is up.
	sigCtx, stopSignals := signal.NotifyContext(context.Background(), syscall.SIGTERM, syscall.SIGINT)
	defer stopSignals()

	cfg := serverConfig{
		out:            *out,
		workers:        *workers,
		slots:          *slots,
		leaseTTL:       *leaseTTL,
		leaseHeartbeat: *leaseHeartbeat,
		deadlineFactor: *deadlineFactor,
		minDeadline:    *minDeadline,
		poisonAfter:    *poisonAfter,
		drainTimeout:   *drainTimeout,
		stderr:         stderr,
		bootCtx:        sigCtx,
	}
	if *queueHeap > 0 || *queueWall > 0 {
		cfg.queueBudget = &budget.Budget{HeapBytes: *queueHeap, Wall: *queueWall}
	}
	if !*inprocess {
		cfg.fleet = &fleetConfig{memCap: *workerMem}
	}

	s, err := newServer(cfg)
	if err != nil {
		if errors.Is(err, errBootCanceled) {
			fmt.Fprintf(stdout, "ccserve: %v\n", err)
			return 0
		}
		fmt.Fprintf(stderr, "ccserve: %v\n", err)
		return 2
	}
	if sigCtx.Err() != nil {
		// Signal landed in the gap between boot completing and the
		// listener opening: same clean checkpoint, via the normal drain.
		fmt.Fprintln(stdout, "ccserve: shutdown signal during startup: draining")
		s.Drain()
		return 0
	}

	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		s.Drain()
		fmt.Fprintf(stderr, "ccserve: %v\n", err)
		return 2
	}
	srv := &http.Server{Handler: s.Handler(), ReadHeaderTimeout: 5 * time.Second}
	fmt.Fprintf(stdout, "ccserve: listening on %s, results in %s\n", ln.Addr(), *out)

	errCh := make(chan error, 1)
	go func() { errCh <- srv.Serve(ln) }()

	select {
	case <-sigCtx.Done():
		fmt.Fprintf(stdout, "ccserve: shutdown signal: draining (grace %v)\n", *drainTimeout)
	case err := <-errCh:
		fmt.Fprintf(stderr, "ccserve: serve: %v\n", err)
		s.Drain()
		return 1
	}

	// Drain order: stop workers first (healthz already reports
	// draining), so jobs finish or checkpoint before the listener
	// closes and clients can watch the state flip while it happens.
	s.Drain()
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := srv.Shutdown(ctx); err != nil && !errors.Is(err, context.DeadlineExceeded) {
		fmt.Fprintf(stderr, "ccserve: shutdown: %v\n", err)
	}
	<-errCh // reap Serve's ErrServerClosed
	fmt.Fprintln(stdout, "ccserve: drained, exiting")
	return 0
}
