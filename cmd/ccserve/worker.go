package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"os/signal"
	"path/filepath"
	"syscall"
	"time"

	"ccatscale/internal/attempt"
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
// owner, and hands the rest to the shared attempt (internal/attempt),
// the same code an -inprocess server calls. The one thing neither
// touches is the journal: journaling is the supervisor's job, keeping
// the single-writer-per-segment discipline intact. before, when non-nil,
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
			return attempt.Failed("spec: " + err.Error())
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
			return attempt.Failed("spec: " + err.Error())
		}
		if wj.Key != "" && j.key != wj.Key {
			// Supervisor and worker disagree on the job's identity (version
			// skew across a re-exec?): running would commit under the wrong
			// address. Refuse as a failure, not a crash — respawning cannot
			// fix a disagreement.
			return attempt.Failed(fmt.Sprintf("key mismatch: supervisor says %s, spec hashes to %s", wj.Key, j.key))
		}
		ttl := msToDuration(wj.LeaseTTLMs, 30*time.Second)
		leases, err := store.NewLeasesFS(fsys, wj.Out, wj.Owner, ttl)
		if err != nil {
			return attempt.Failed("leases: " + err.Error())
		}
		if dir := filepath.Join(wj.Out, "store"); st == nil || st.Dir() != dir {
			if st, err = store.OpenFS(dir, fsys); err != nil {
				return attempt.Failed("store: " + err.Error())
			}
		}
		env := attempt.Env{
			Out: wj.Out, FS: fsys, Leases: leases, Store: st, Stderr: stderr,
			Retries:   wj.Retries,
			Heartbeat: msToDuration(wj.HeartbeatMs, store.DefaultHeartbeat(ttl)),
		}
		return runAttempt(sigCtx, env, j, wj.Slot, msToDuration(wj.DeadlineMs, 15*time.Second), nil)
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

// runAttempt is one execution of j through the shared attempt, the
// same in a worker subprocess and in an -inprocess server: the hedge
// slot's lease, j's key, and the per-run table as the stored payload.
// coll, when non-nil, observes the run.
func runAttempt(ctx context.Context, env attempt.Env, j *job, slot int, deadline time.Duration, coll telemetry.Collector) schema.WorkerOutcome {
	cfg := j.config()
	cfg.Collector = coll
	o, _ := attempt.Run(ctx, env, store.SlotName(j.spec.Name, slot), j.key, cfg, deadline, func(res core.RunResult) ([]byte, error) {
		var buf bytes.Buffer
		err := experiments.RunTable(j.spec.Name, res).WriteJSON(&buf)
		return buf.Bytes(), err
	})
	return o
}

// msToDuration converts a schema millisecond field, falling back when
// the supervisor sent zero.
func msToDuration(ms float64, fallback time.Duration) time.Duration {
	if ms <= 0 {
		return fallback
	}
	return time.Duration(ms * float64(time.Millisecond))
}
