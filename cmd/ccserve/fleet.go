package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"os"
	"os/exec"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"ccatscale/internal/schema"
	"ccatscale/internal/store"
)

// fleetConfig selects process-isolated execution: each attempt runs in
// a worker subprocess (this binary re-exec'd with -worker) under an
// estimator-derived RLIMIT_AS ceiling, supervised with crash-loop
// backoff, poison quarantine, and straggler hedging. A nil fleetConfig
// on serverConfig (-inprocess) runs the same attempt on the server's
// own goroutines, minus fork/exec and the isolation it buys — the
// reference the fleet is tested and benchmarked against.
type fleetConfig struct {
	// poisonAfter is the number of worker deaths (per job) that poisons
	// the config: it is refused from then on, even across reboots, until
	// an operator clears its poison record.
	poisonAfter int
	// backoffBase and backoffMax shape the crash-loop respawn delay:
	// base doubling per strike, capped at max.
	backoffBase time.Duration
	backoffMax  time.Duration
	// hedgeFactor × estimated wall (floored at hedgeFloor) is how long a
	// primary may run before a duplicate worker is hedged against it.
	// Determinism makes the duplicate byte-identical, and the store's
	// idempotent Put makes first-commit-wins safe. Negative disables.
	hedgeFactor float64
	hedgeFloor  time.Duration
	// memCap, when positive, clamps every worker's derived RLIMIT_AS —
	// the operator's "no worker maps more than N bytes" knob.
	memCap int64
	// hangGrace is the supervisor-side margin past the worker's own
	// deadline before it SIGTERMs a wedged worker.
	hangGrace time.Duration
	// argv is the worker command; defaults to re-execing this binary
	// with -worker. Tests point it at the test binary plus an env switch.
	argv []string
	// env is appended to the workers' inherited environment.
	env []string
}

func (c *fleetConfig) withDefaults() error {
	if c.poisonAfter < 1 {
		c.poisonAfter = 3
	}
	if c.backoffBase <= 0 {
		c.backoffBase = 500 * time.Millisecond
	}
	if c.backoffMax <= 0 {
		c.backoffMax = 10 * time.Second
	}
	if c.hedgeFactor == 0 {
		c.hedgeFactor = 2
	}
	if c.hedgeFloor <= 0 {
		c.hedgeFloor = 10 * time.Second
	}
	if c.hangGrace <= 0 {
		c.hangGrace = 15 * time.Second
	}
	if len(c.argv) == 0 {
		exe, err := os.Executable()
		if err != nil {
			return fmt.Errorf("ccserve: locating own binary for worker re-exec: %w", err)
		}
		c.argv = []string{exe, "-worker"}
	}
	return nil
}

// fleetState is the supervisor's runtime view of its worker fleet.
type fleetState struct {
	cfg     fleetConfig
	poisons *store.Poisons
	seq     atomic.Uint64 // unique lease-owner suffix per spawn
	mu      sync.Mutex
	workers map[int]schema.WorkerHealth // live workers by PID
}

func (f *fleetState) register(w schema.WorkerHealth) {
	f.mu.Lock()
	f.workers[w.PID] = w
	f.mu.Unlock()
}

func (f *fleetState) unregister(pid int) {
	f.mu.Lock()
	delete(f.workers, pid)
	f.mu.Unlock()
}

// list snapshots the live workers for /healthz.
func (f *fleetState) list() []schema.WorkerHealth {
	f.mu.Lock()
	defer f.mu.Unlock()
	ws := make([]schema.WorkerHealth, 0, len(f.workers))
	for _, w := range f.workers {
		ws = append(ws, w)
	}
	return ws
}

// fleetCounters snapshots the lifecycle counters for /healthz.
func (s *server) fleetCounters() *schema.FleetHealth {
	return &schema.FleetHealth{
		Spawns:   s.reg.Counter("fleet_spawns").Load(),
		Exits:    s.reg.Counter("fleet_exits").Load(),
		Restarts: s.reg.Counter("fleet_restarts").Load(),
		Hedges:   s.reg.Counter("fleet_hedges").Load(),
		Poisoned: s.reg.Counter("fleet_poisoned").Load(),
	}
}

// spawnRes is one worker process's verdict: an outcome it wrote, or
// the crash that ate it.
type spawnRes struct {
	outcome *schema.WorkerOutcome
	err     error
}

// spawnWorker runs one worker subprocess to completion: payload in via
// stdin, outcome out via stdout, stderr buffered and forwarded in one
// write. A context cancellation SIGTERMs the worker (checkpoint), with
// a SIGKILL backstop after WaitDelay. On a crash the dead worker's
// lease slot is released immediately — waitpid proved the owner dead,
// so the respawn need not wait out the TTL.
func (s *server) spawnWorker(ctx context.Context, j *job, slot int, deadline time.Duration, memLimit int64) spawnRes {
	f := s.fleet
	owner := fmt.Sprintf("%s-w%d", s.owner, f.seq.Add(1))
	payload, err := json.Marshal(schema.WorkerJob{
		SchemaVersion: schema.Version,
		Out:           s.cfg.out,
		Spec:          j.spec,
		Key:           j.key,
		Slot:          slot,
		Owner:         owner,
		Retries:       s.cfg.retries,
		MemLimitBytes: memLimit,
		DeadlineMs:    float64(deadline) / float64(time.Millisecond),
		LeaseTTLMs:    float64(s.cfg.leaseTTL) / float64(time.Millisecond),
		HeartbeatMs:   float64(s.cfg.leaseHeartbeat) / float64(time.Millisecond),
	})
	if err != nil {
		return spawnRes{err: err}
	}

	cmd := exec.CommandContext(ctx, f.cfg.argv[0], f.cfg.argv[1:]...)
	cmd.Env = append(os.Environ(), f.cfg.env...)
	cmd.Stdin = bytes.NewReader(payload)
	var stdout, errlog bytes.Buffer
	cmd.Stdout = &stdout
	cmd.Stderr = &errlog
	cmd.Cancel = func() error { return cmd.Process.Signal(syscall.SIGTERM) }
	cmd.WaitDelay = 3 * time.Second

	if err := cmd.Start(); err != nil {
		return spawnRes{err: fmt.Errorf("spawn: %w", err)}
	}
	pid := cmd.Process.Pid
	s.reg.Counter("fleet_spawns").Inc()
	// runs_started mirrors what in-process execution counts through run
	// telemetry: simulations launched. The sim now runs out-of-process,
	// so the supervisor counts the launch itself.
	s.reg.Counter("runs_started").Inc()
	f.register(schema.WorkerHealth{PID: pid, Job: j.spec.Name, Key: j.key, Slot: slot})
	werr := cmd.Wait()
	f.unregister(pid)
	s.reg.Counter("fleet_exits").Inc()
	if errlog.Len() > 0 {
		fmt.Fprintf(s.cfg.stderr, "ccserve: worker %d (%s): %s", pid, j.spec.Name, errlog.Bytes())
	}

	if o := parseOutcome(stdout.Bytes()); o != nil {
		return spawnRes{outcome: o}
	}
	desc := "exited without an outcome"
	if werr != nil {
		desc = werr.Error()
	}
	if err := s.leases.ReleaseOwned(store.SlotName(j.spec.Name, slot), owner); err != nil {
		fmt.Fprintf(s.cfg.stderr, "ccserve: releasing dead worker %d lease: %v\n", pid, err)
	}
	return spawnRes{err: fmt.Errorf("worker pid %d: %s", pid, desc)}
}

// parseOutcome finds the worker's outcome line in its stdout, scanning
// from the end so stray prints cannot shadow the verdict.
func parseOutcome(out []byte) *schema.WorkerOutcome {
	lines := bytes.Split(bytes.TrimSpace(out), []byte("\n"))
	for i := len(lines) - 1; i >= 0; i-- {
		line := bytes.TrimSpace(lines[i])
		if len(line) == 0 {
			continue
		}
		var o schema.WorkerOutcome
		if json.Unmarshal(line, &o) != nil {
			continue
		}
		switch o.State {
		case schema.WorkerDone, schema.WorkerFailed, schema.WorkerCheckpoint:
			return &o
		}
	}
	return nil
}

// fleetAttempt runs one attempt of a job, hedging a duplicate worker
// against a straggling primary. The first worker to deliver an outcome
// wins; its sibling is cancelled and reaped. Both crashing is one
// crash (one strike) — the attempt failed once, however many processes
// it burned.
func (s *server) fleetAttempt(j *job, deadline time.Duration, memLimit int64) spawnRes {
	f := s.fleet
	ctx, cancel := context.WithTimeout(s.runCtx, deadline+f.cfg.hangGrace)
	defer cancel()
	results := make(chan spawnRes, 2)
	launch := func(slot int) {
		go func() { results <- s.spawnWorker(ctx, j, slot, deadline, memLimit) }()
	}
	launch(0)
	outstanding := 1

	var hedgeC <-chan time.Time
	if f.cfg.hedgeFactor > 0 {
		delay := time.Duration(f.cfg.hedgeFactor * float64(j.fp.Wall))
		if delay < f.cfg.hedgeFloor {
			delay = f.cfg.hedgeFloor
		}
		if delay < deadline+f.cfg.hangGrace {
			t := time.NewTimer(delay)
			defer t.Stop()
			hedgeC = t.C
		}
	}

	var lastCrash spawnRes
	for {
		select {
		case r := <-results:
			outstanding--
			if r.outcome != nil {
				cancel()
				for outstanding > 0 {
					<-results
					outstanding--
				}
				return r
			}
			lastCrash = r
			if outstanding == 0 {
				return lastCrash
			}
		case <-hedgeC:
			hedgeC = nil
			s.reg.Counter("fleet_hedges").Inc()
			launch(1)
			outstanding++
		}
	}
}

// isDraining reports the drain flag under the lock.
func (s *server) isDraining() bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.draining
}
