package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"os/signal"
	"path/filepath"
	"syscall"
	"time"

	"ccatscale/internal/core"
	"ccatscale/internal/experiments"
	"ccatscale/internal/schema"
	"ccatscale/internal/store"
	"ccatscale/internal/telemetry"
)

// workerRun is the hidden -worker entrypoint: the process shell around
// a stream of attempts. The supervisor re-execs this binary and writes
// schema.WorkerJob values to its stdin, one at a time; for each the
// worker writes one schema.WorkerOutcome line on stdout. A worker that
// dies without answering the job it was given crashed, and the
// supervisor's crash-loop machinery takes over. End of stdin retires
// the worker, and so does the stop signal (SIGTERM), after the job in
// flight — if any — has checkpointed.
//
// The shell owns what only a process has and sets it up once: the
// SIGTERM context, the RLIMIT_AS ceiling (the first payload's) and the
// store handle. Per job it builds the lease space under that dispatch's
// owner, and hands the rest to attempt, the same code an -inprocess
// server calls directly. The one thing neither touches is the journal:
// journaling is the supervisor's job, keeping the
// single-writer-per-segment discipline intact. before, when non-nil,
// runs ahead of each job with the stop context: the tests' fault hooks.
//
// Exit codes: 0 = stdin ended or the stop signal came, and every job
// taken was answered (whatever the answers say); 3 = a payload was
// unreadable (a supervisor bug, not a job property). Anything else —
// including the Go runtime's exit 2 on an OOM abort under the RLIMIT_AS
// ceiling — is a crash.
func workerRun(fsys store.FS, stdin io.Reader, stdout, stderr io.Writer, before func(context.Context, schema.WorkerJob)) int {
	sigCtx, stop := signal.NotifyContext(context.Background(), syscall.SIGTERM, syscall.SIGINT)
	defer stop()

	// Payloads are decoded on their own goroutine so the stop signal
	// retires an idle worker at once rather than at its next payload.
	type payload struct {
		wj  schema.WorkerJob
		err error
	}
	payloads := make(chan payload)
	go func() {
		dec := json.NewDecoder(stdin)
		for {
			var p payload
			p.err = dec.Decode(&p.wj)
			select {
			case payloads <- p:
			case <-sigCtx.Done():
				return
			}
			if p.err != nil {
				return
			}
		}
	}()

	var (
		st      *store.Store
		limited bool
	)
	one := func(wj schema.WorkerJob) schema.WorkerOutcome {
		if err := wj.Spec.Validate(); err != nil {
			return failedOutcome("spec: " + err.Error())
		}
		// The memory ceiling goes on before the first job's first big
		// allocation and stays for the process's life: from here, a
		// config whose appetite outgrows it dies *here*, as a runtime OOM
		// abort the supervisor reads as that job's strike.
		if !limited && wj.MemLimitBytes > 0 {
			limited = true
			if err := setWorkerMemLimit(wj.MemLimitBytes); err != nil {
				fmt.Fprintf(stderr, "ccserve worker: rlimit: %v\n", err)
			}
		}
		j, err := buildJob(wj.Spec)
		if err != nil {
			return failedOutcome("spec: " + err.Error())
		}
		if wj.Key != "" && j.key != wj.Key {
			// Supervisor and worker disagree on the job's identity (version
			// skew across a re-exec?): running would commit under the wrong
			// address. Refuse as a failure, not a crash — respawning cannot
			// fix a disagreement.
			return failedOutcome(fmt.Sprintf("key mismatch: supervisor says %s, spec hashes to %s", wj.Key, j.key))
		}
		ttl := msToDuration(wj.LeaseTTLMs, 30*time.Second)
		leases, err := store.NewLeasesFS(fsys, wj.Out, wj.Owner, ttl)
		if err != nil {
			return failedOutcome("leases: " + err.Error())
		}
		if dir := filepath.Join(wj.Out, "store"); st == nil || st.Dir() != dir {
			if st, err = store.OpenFS(dir, fsys); err != nil {
				return failedOutcome("store: " + err.Error())
			}
		}
		env := attemptEnv{
			out: wj.Out, fsys: fsys, leases: leases, st: st, stderr: stderr,
			retries:   wj.Retries,
			heartbeat: msToDuration(wj.HeartbeatMs, store.DefaultHeartbeat(ttl)),
		}
		return attempt(sigCtx, env, j, wj.Slot, msToDuration(wj.DeadlineMs, 15*time.Second), nil)
	}

	for {
		var p payload
		select {
		case <-sigCtx.Done():
			return 0
		case p = <-payloads:
		}
		if p.err == io.EOF {
			return 0
		}
		if p.err != nil {
			fmt.Fprintf(stderr, "ccserve worker: decoding payload: %v\n", p.err)
			return 3
		}
		if err := schema.Check(p.wj.SchemaVersion); err != nil {
			fmt.Fprintf(stderr, "ccserve worker: %v\n", err)
			return 3
		}
		if p.wj.Out == "" || p.wj.Owner == "" {
			fmt.Fprintln(stderr, "ccserve worker: payload missing out/owner")
			return 3
		}
		if before != nil {
			before(sigCtx, p.wj)
		}
		line, err := json.Marshal(one(p.wj))
		if err != nil {
			fmt.Fprintf(stderr, "ccserve worker: encoding outcome: %v\n", err)
			return 4
		}
		fmt.Fprintf(stdout, "%s\n", line)
		if sigCtx.Err() != nil {
			return 0 // stopped: the job checkpointed, the worker retires
		}
	}
}

// attemptEnv is where an attempt runs: the open handles and lease
// cadence of the process it is in — a worker's own, or the server's.
type attemptEnv struct {
	// out is the output directory; <key>.failed.json is parked there.
	out       string
	fsys      store.FS
	leases    *store.Leases
	st        *store.Store
	retries   int
	heartbeat time.Duration
	stderr    io.Writer
}

func failedOutcome(msg string) schema.WorkerOutcome {
	return schema.WorkerOutcome{SchemaVersion: schema.Version, State: schema.WorkerFailed, Error: msg}
}

// attempt is one execution of a job, the same in a worker subprocess
// and in an -inprocess server: claim the hedge slot's lease, serve from
// the store when the result already exists, otherwise run under the
// deadline with the lease kept alive and commit through the store's
// idempotent Put — so a SIGKILL at any instant leaves nothing a reboot
// (or a hedge twin) cannot reconcile. ctx is the stop signal (SIGTERM
// in a worker, the server's run context in-process): when it ends the
// attempt checkpoints, whether it was running or still waiting for the
// lease. coll, when non-nil, observes the run.
func attempt(ctx context.Context, env attemptEnv, j *job, slot int, deadline time.Duration, coll telemetry.Collector) schema.WorkerOutcome {
	done := schema.WorkerOutcome{SchemaVersion: schema.Version, State: schema.WorkerDone}
	checkpoint := schema.WorkerOutcome{SchemaVersion: schema.Version, State: schema.WorkerCheckpoint}

	// Claim this attempt's hedge slot, waiting out a stale predecessor
	// (the supervisor usually cleans those up first, but a whole-fleet
	// crash can leave young leases only the TTL clears).
	waitCtx, cancelWait := context.WithTimeout(ctx, deadline)
	lease, err := env.leases.AcquireWait(waitCtx, store.SlotName(j.spec.Name, slot), env.heartbeat)
	cancelWait()
	if err != nil {
		if ctx.Err() != nil && errors.Is(err, store.ErrLeaseHeld) {
			return checkpoint
		}
		return failedOutcome("lease: " + err.Error())
	}
	defer lease.Release()

	// Serve from the store before computing: a crashed predecessor (or
	// the hedge twin) may already have committed this key.
	if env.st.Has(j.key) {
		done.Cached = true
		return done
	}

	// Losing the lease (this process stalled past the TTL and another
	// claimant took the slot) cancels the run.
	runCtx, cancelRun := context.WithTimeout(ctx, deadline)
	defer cancelRun()
	stopBeat := lease.KeepAlive(env.heartbeat, cancelRun)
	defer stopBeat()

	cfg := j.config()
	cfg.Collector = coll
	start := time.Now()
	results, err := core.RunManyCtx(runCtx, []core.RunConfig{cfg}, core.SweepOptions{
		Parallelism: 1,
		Retries:     env.retries,
	})
	stopBeat()
	wall := time.Since(start)

	if err == nil {
		var buf bytes.Buffer
		if err = experiments.RunTable(j.spec.Name, results[0]).WriteJSON(&buf); err == nil {
			err = env.st.Put(j.key, buf.Bytes())
		}
	}
	if err == nil {
		done.WallMs = float64(wall.Microseconds()) / 1000
		return done
	}
	var re *core.RunError
	isRunError := errors.As(err, &re)
	if ctx.Err() != nil && (errors.Is(err, context.Canceled) || isRunError && re.Canceled()) {
		// Stopped mid-run: the store stayed untouched, the supervisor's
		// pending journal records stand, the job re-runs verbatim.
		return checkpoint
	}
	// Park a replayable failure record beside the store so the failure —
	// or the quarantine it adds up to — can be debugged offline
	// (`ccatscale replay -in`).
	if isRunError {
		var buf bytes.Buffer
		if werr := re.WriteJSON(&buf); werr == nil {
			path := filepath.Join(env.out, j.key+".failed.json")
			if werr := store.WriteFileAtomicFS(env.fsys, path, buf.Bytes()); werr != nil {
				fmt.Fprintf(env.stderr, "ccserve: writing %s: %v\n", path, werr)
			}
		}
	}
	return failedOutcome(err.Error())
}

// msToDuration converts a schema millisecond field, falling back when
// the supervisor sent zero.
func msToDuration(ms float64, fallback time.Duration) time.Duration {
	if ms <= 0 {
		return fallback
	}
	return time.Duration(ms * float64(time.Millisecond))
}
