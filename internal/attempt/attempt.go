// Package attempt is the one "lease → run → commit" step both front
// ends execute: ccserve once per job (in a worker subprocess or
// in-process) and cmd/reproduce once per run of a catalog plan. The
// store is the frontier — a key that holds a record is served, never
// recomputed — so a SIGKILL at any instant leaves nothing a later
// attempt cannot reconcile, and no write-ahead log is needed to say
// what is done.
package attempt

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"path/filepath"
	"time"

	"ccatscale/internal/core"
	"ccatscale/internal/schema"
	"ccatscale/internal/store"
)

// Env is where an attempt runs: the open handles and lease cadence of
// the process it is in.
type Env struct {
	// Out is the output directory; <key>.failed.json is parked there.
	Out       string
	FS        store.FS
	Leases    *store.Leases
	Store     *store.Store
	Heartbeat time.Duration
	Stderr    io.Writer
}

// Failed is the outcome of an attempt that delivered no result.
func Failed(msg string) schema.WorkerOutcome {
	return schema.WorkerOutcome{SchemaVersion: schema.Version, State: schema.WorkerFailed, Error: msg}
}

// Run is one execution of cfg: claim key's lease, serve from the store
// when key already holds a record, otherwise run cfg once, as
// configured, under the deadline (0 = none) with the lease kept alive
// and commit its Record through the store's idempotent Put. A lease
// another process holds is waited on, so the attempt then finds that
// process's commit and serves it. ctx is the stop signal: when it ends
// the attempt checkpoints, whether it was running or still waiting for
// the lease. The error is the run's own, nil unless the outcome is
// failed; a config its budget rejects at admission fails with the plain
// *budget.BudgetError and parks no failure record.
func Run(ctx context.Context, env Env, key string, cfg core.RunConfig, deadline time.Duration) (schema.WorkerOutcome, error) {
	done := schema.WorkerOutcome{SchemaVersion: schema.Version, State: schema.WorkerDone}
	checkpoint := schema.WorkerOutcome{SchemaVersion: schema.Version, State: schema.WorkerCheckpoint}
	failed := func(err error) (schema.WorkerOutcome, error) { return Failed(err.Error()), err }

	waitCtx, cancelWait := withDeadline(ctx, deadline)
	l, err := env.Leases.AcquireWait(waitCtx, key, env.Heartbeat)
	cancelWait()
	if err != nil {
		if ctx.Err() != nil && errors.Is(err, store.ErrLeaseHeld) {
			return checkpoint, nil
		}
		return failed(fmt.Errorf("lease: %w", err))
	}
	defer l.Release()

	// Serve from the store before computing: a crashed predecessor or the
	// process whose lease was waited on may already have committed this
	// key.
	if env.Store.Has(key) {
		done.Cached = true
		return done, nil
	}

	// Losing the lease (this process stalled past the TTL and another
	// claimant took it) cancels the run.
	runCtx, cancelRun := withDeadline(ctx, deadline)
	defer cancelRun()
	stopBeat := l.KeepAlive(env.Heartbeat, cancelRun)
	defer stopBeat()

	// A stop that came while the lease was claimed, or a deadline already
	// spent, runs nothing: a run short enough to finish before its first
	// interrupt poll would otherwise commit past either.
	start := time.Now()
	var res core.RunResult
	if err = runCtx.Err(); err == nil {
		res, err = core.RunCtx(runCtx, cfg)
	}
	stopBeat()
	wall := time.Since(start)

	if err == nil {
		var payload []byte
		if payload, err = Record(res); err == nil {
			err = env.Store.Put(key, payload)
		}
	}
	if err == nil {
		done.WallMs = float64(wall.Microseconds()) / 1000
		return done, nil
	}
	var re *core.RunError
	isRunError := errors.As(err, &re)
	if ctx.Err() != nil && (errors.Is(err, context.Canceled) || isRunError && re.Canceled()) {
		// Stopped mid-run: the store stayed untouched, the run re-runs
		// verbatim next time.
		return checkpoint, nil
	}
	// Park a replayable failure record beside the store so the failure
	// can be debugged offline (`reproduce -replay`).
	if isRunError {
		var buf bytes.Buffer
		if werr := re.WriteJSON(&buf); werr == nil {
			path := filepath.Join(env.Out, FailureFile(key))
			if werr := store.WriteFileAtomicFS(env.FS, path, buf.Bytes()); werr != nil {
				fmt.Fprintf(env.Stderr, "attempt: writing %s: %v\n", path, werr)
			}
		}
	}
	return failed(err)
}

// Record is the payload committed under a run's key: its RunResult as
// JSON, without the two wall-clock readings of the process that ran it —
// the time the run took (the attempt's outcome reports it) and the
// watchdog limit its deadline set. What a key holds is then a function
// of the key alone, so two processes that ran one config commit the
// same bytes, and stores compare byte for byte.
func Record(res core.RunResult) ([]byte, error) {
	res.Usage.Wall, res.Config.WallLimit = 0, 0
	return json.Marshal(res)
}

// FailureFile names the replayable record Run parks for key.
func FailureFile(key string) string { return key + ".failed.json" }

// withDeadline bounds ctx by d, or only makes it cancelable when d is 0.
func withDeadline(ctx context.Context, d time.Duration) (context.Context, context.CancelFunc) {
	if d <= 0 {
		return context.WithCancel(ctx)
	}
	return context.WithTimeout(ctx, d)
}
