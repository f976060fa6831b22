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
// one attempt. The supervisor re-execs this binary, writes a
// schema.WorkerJob to its stdin, and reads back a single-line
// schema.WorkerOutcome on stdout; a worker that dies without one
// crashed, and the supervisor's crash-loop machinery takes over.
//
// The shell owns what only a process has — the payload, the RLIMIT_AS
// ceiling, the SIGTERM context, its own lease identity and store handle
// — and hands the rest to attempt, the same code an -inprocess server
// calls directly. The one thing neither touches is the journal:
// journaling is the supervisor's job, keeping the
// single-writer-per-segment discipline intact.
//
// Exit codes: 0 = an outcome line was written (whatever it says);
// 3 = the payload itself was unreadable (a supervisor bug, not a job
// property). Anything else — including the Go runtime's exit 2 on an
// OOM abort under the RLIMIT_AS ceiling — is a crash.
func workerRun(fsys store.FS, stdin io.Reader, stdout, stderr io.Writer) int {
	var wj schema.WorkerJob
	if err := json.NewDecoder(stdin).Decode(&wj); err != nil {
		fmt.Fprintf(stderr, "ccserve worker: decoding payload: %v\n", err)
		return 3
	}
	if err := schema.Check(wj.SchemaVersion); err != nil {
		fmt.Fprintf(stderr, "ccserve worker: %v\n", err)
		return 3
	}
	if wj.Out == "" || wj.Owner == "" {
		fmt.Fprintln(stderr, "ccserve worker: payload missing out/owner")
		return 3
	}
	report := func(o schema.WorkerOutcome) int {
		line, err := json.Marshal(o)
		if err != nil {
			fmt.Fprintf(stderr, "ccserve worker: encoding outcome: %v\n", err)
			return 4
		}
		fmt.Fprintf(stdout, "%s\n", line)
		return 0
	}

	if err := wj.Spec.Validate(); err != nil {
		return report(failedOutcome("spec: " + err.Error()))
	}
	// The memory ceiling goes on before the first big allocation: from
	// here, a config whose appetite outgrows its estimate dies *here*,
	// alone, as a runtime OOM abort the supervisor reads as a strike.
	if wj.MemLimitBytes > 0 {
		if err := setWorkerMemLimit(wj.MemLimitBytes); err != nil {
			fmt.Fprintf(stderr, "ccserve worker: rlimit: %v\n", err)
		}
	}
	j, err := buildJob(wj.Spec)
	if err != nil {
		return report(failedOutcome("spec: " + err.Error()))
	}
	if wj.Key != "" && j.key != wj.Key {
		// Supervisor and worker disagree on the job's identity (version
		// skew across a re-exec?): running would commit under the wrong
		// address. Refuse as a failure, not a crash — respawning cannot
		// fix a disagreement.
		return report(failedOutcome(fmt.Sprintf("key mismatch: supervisor says %s, spec hashes to %s", wj.Key, j.key)))
	}

	ttl := msToDuration(wj.LeaseTTLMs, 30*time.Second)
	sigCtx, stop := signal.NotifyContext(context.Background(), syscall.SIGTERM, syscall.SIGINT)
	defer stop()

	leases, err := store.NewLeasesFS(fsys, wj.Out, wj.Owner, ttl)
	if err != nil {
		return report(failedOutcome("leases: " + err.Error()))
	}
	st, err := store.OpenFS(filepath.Join(wj.Out, "store"), fsys)
	if err != nil {
		return report(failedOutcome("store: " + err.Error()))
	}
	env := attemptEnv{
		out: wj.Out, fsys: fsys, leases: leases, st: st, stderr: stderr,
		retries:   wj.Retries,
		heartbeat: msToDuration(wj.HeartbeatMs, store.DefaultHeartbeat(ttl)),
	}
	return report(attempt(sigCtx, env, j, wj.Slot, msToDuration(wj.DeadlineMs, 15*time.Second), nil))
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
