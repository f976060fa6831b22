package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"os"
	"os/exec"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"ccatscale/internal/budget"
	"ccatscale/internal/schema"
	"ccatscale/internal/store"
)

// fleetConfig selects process-isolated execution: each attempt runs in
// a worker subprocess (this binary re-exec'd with -worker) under an
// estimator-derived RLIMIT_AS ceiling, supervised with crash-loop
// backoff and straggler hedging. A nil fleetConfig on serverConfig
// (-inprocess) runs the same attempt on the server's own goroutines,
// minus the subprocess and the isolation it buys — the reference the
// fleet is tested and benchmarked against.
type fleetConfig struct {
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

const (
	// warmHeapBytes is the estimated heap up to which a job runs in its
	// runner's warm worker. Warm workers share one RLIMIT_AS ceiling,
	// budget.WorkerMemLimit at this bound; a job priced above it gets a
	// process of its own under its own ceiling, so a config that outgrows
	// a large estimate still dies alone.
	warmHeapBytes = 64 << 20
	// warmJobs is how many jobs a warm worker serves before it retires,
	// bounding what one address space can accumulate.
	warmJobs = 256
	// killGrace is how long a signalled or retired worker has to exit
	// before it is SIGKILLed.
	killGrace = 3 * time.Second
)

// fleetState is the supervisor's runtime view of its worker fleet.
type fleetState struct {
	cfg     fleetConfig
	seq     atomic.Uint64 // unique lease-owner suffix per dispatch
	mu      sync.Mutex
	workers map[int]schema.WorkerHealth // workers with a job in flight, by PID
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

// list snapshots the busy workers for /healthz.
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

// spawnRes is one dispatch's verdict: an outcome the worker wrote, or
// the crash that ate it.
type spawnRes struct {
	outcome *schema.WorkerOutcome
	err     error
}

// errGone reports a worker that had exited before the payload reached
// it: no job was in it, so no job takes the strike.
var errGone = errors.New("exited before taking the job")

// worker is one worker process and the supervisor's ends of its pipes.
// A warm worker is fed one payload after another; a cold one gets a
// single payload, and its stdin is closed once it has answered.
type worker struct {
	proc   *os.Process
	stdin  io.WriteCloser
	stdout *os.File
	out    *bufio.Reader
	served int
	// exited is closed once the process has been waited for; err is
	// Wait's verdict.
	exited chan struct{}
	err    error
	// logged is closed once stderr has been forwarded to its end.
	logged chan struct{}
	mu     sync.Mutex
	job    string // in flight, for stderr attribution
}

// spawn starts one worker process. Its exit is counted the moment it
// is waited for, so a death while idle shows in fleet_exits at once.
func (s *server) spawn() (*worker, error) {
	f := s.fleet
	cmd := exec.Command(f.cfg.argv[0], f.cfg.argv[1:]...)
	cmd.Env = append(os.Environ(), f.cfg.env...)
	stdin, err := cmd.StdinPipe()
	if err != nil {
		return nil, fmt.Errorf("spawn: %w", err)
	}
	// Our own pipes for stdout and stderr, not exec's: Wait then
	// neither copies nor closes them, so it can run concurrently with
	// the reads.
	outR, outW, err := os.Pipe()
	if err != nil {
		return nil, fmt.Errorf("spawn: %w", err)
	}
	errR, errW, err := os.Pipe()
	if err != nil {
		outR.Close()
		outW.Close()
		return nil, fmt.Errorf("spawn: %w", err)
	}
	cmd.Stdout, cmd.Stderr = outW, errW
	err = cmd.Start()
	outW.Close()
	errW.Close()
	if err != nil {
		outR.Close()
		errR.Close()
		return nil, fmt.Errorf("spawn: %w", err)
	}
	s.reg.Counter("fleet_spawns").Inc()
	w := &worker{
		proc: cmd.Process, stdin: stdin,
		stdout: outR, out: bufio.NewReader(outR),
		exited: make(chan struct{}), logged: make(chan struct{}),
	}
	go func() {
		w.err = cmd.Wait()
		s.reg.Counter("fleet_exits").Inc()
		close(w.exited)
	}()
	go s.forwardStderr(w, errR)
	return w, nil
}

// forwardStderr copies the worker's stderr to the server's line by
// line, each line tagged with the pid and the job in flight.
func (s *server) forwardStderr(w *worker, r *os.File) {
	defer close(w.logged)
	defer r.Close()
	br := bufio.NewReader(r)
	for {
		line, err := br.ReadBytes('\n')
		if len(line) > 0 {
			line = bytes.TrimSuffix(line, []byte("\n"))
			w.mu.Lock()
			job := w.job
			w.mu.Unlock()
			if job == "" {
				fmt.Fprintf(s.cfg.stderr, "ccserve: worker %d: %s\n", w.proc.Pid, line)
			} else {
				fmt.Fprintf(s.cfg.stderr, "ccserve: worker %d (%s): %s\n", w.proc.Pid, job, line)
			}
		}
		if err != nil {
			return
		}
	}
}

func (w *worker) setJob(name string) {
	w.mu.Lock()
	w.job = name
	w.mu.Unlock()
}

// reap ends the worker: stdin closed — a worker's cue to exit — then
// killGrace to comply before SIGKILL. It returns once the process is
// waited for and its stderr forwarded.
func (w *worker) reap() {
	w.stdin.Close()
	kill := time.AfterFunc(killGrace, func() { w.proc.Kill() })
	<-w.exited
	kill.Stop()
	<-w.logged
	w.stdout.Close()
}

// readOutcome reads stdout up to the worker's next outcome line,
// skipping stray prints; nil means stdout ended first: the worker died.
func (w *worker) readOutcome() *schema.WorkerOutcome {
	for {
		line, err := w.out.ReadBytes('\n')
		if o := parseOutcome(line); o != nil {
			return o
		}
		if err != nil {
			return nil
		}
	}
}

// parseOutcome decodes one stdout line as an outcome, or returns nil.
func parseOutcome(line []byte) *schema.WorkerOutcome {
	var o schema.WorkerOutcome
	if json.Unmarshal(bytes.TrimSpace(line), &o) != nil {
		return nil
	}
	switch o.State {
	case schema.WorkerDone, schema.WorkerFailed, schema.WorkerCheckpoint:
		return &o
	}
	return nil
}

// dispatch runs one job on w: payload in, outcome line out, under a
// lease owner of its own. A cancelled ctx SIGTERMs the worker, which
// checkpoints and retires; killGrace later a SIGKILL ends one that does
// not. The returned flag says whether w can take another job; when it
// cannot, w has been reaped — and when it died with the job in flight,
// the job's slot lease released, since waitpid proved the owner dead
// and the respawn need not wait out the TTL.
func (s *server) dispatch(ctx context.Context, w *worker, j *job, slot int, deadline time.Duration, memLimit int64) (spawnRes, bool) {
	f := s.fleet
	owner := fmt.Sprintf("%s-w%d", s.owner, f.seq.Add(1))
	config, err := json.Marshal(j.cfg)
	if err != nil {
		return spawnRes{err: err}, true
	}
	payload, err := json.Marshal(schema.WorkerJob{
		SchemaVersion: schema.Version,
		Out:           s.cfg.out,
		Key:           j.key,
		Config:        config,
		Slot:          slot,
		Owner:         owner,
		Retries:       s.cfg.retries,
		MemLimitBytes: memLimit,
		DeadlineMs:    float64(deadline) / float64(time.Millisecond),
		LeaseTTLMs:    float64(s.cfg.leaseTTL) / float64(time.Millisecond),
		HeartbeatMs:   float64(s.cfg.leaseHeartbeat) / float64(time.Millisecond),
	})
	if err != nil {
		return spawnRes{err: err}, true
	}
	w.setJob(j.spec.Name)
	defer w.setJob("")
	if _, err := w.stdin.Write(append(payload, '\n')); err != nil {
		w.reap()
		return spawnRes{err: fmt.Errorf("worker pid %d: %w", w.proc.Pid, errGone)}, false
	}
	// runs_started mirrors what in-process execution counts through run
	// telemetry: simulations launched. The sim runs out of process, so
	// the supervisor counts the dispatch itself.
	s.reg.Counter("runs_started").Inc()
	f.register(schema.WorkerHealth{PID: w.proc.Pid, Job: j.spec.Name, Key: j.key, Slot: slot})
	defer f.unregister(w.proc.Pid)

	got := make(chan *schema.WorkerOutcome, 1)
	go func() { got <- w.readOutcome() }()
	var o *schema.WorkerOutcome
	stopped := false
	select {
	case o = <-got:
	case <-ctx.Done():
		stopped = true
		w.proc.Signal(syscall.SIGTERM)
		kill := time.AfterFunc(killGrace, func() { w.proc.Kill() })
		o = <-got
		kill.Stop()
	}
	if o != nil && !stopped {
		w.served++
		return spawnRes{outcome: o}, true
	}
	w.reap()
	if o != nil {
		return spawnRes{outcome: o}, false
	}
	desc := "exited without an outcome"
	if w.err != nil {
		desc = w.err.Error()
	}
	if err := s.Leases.ReleaseOwned(store.SlotName(j.key, slot), owner); err != nil {
		fmt.Fprintf(s.cfg.stderr, "ccserve: releasing dead worker %d lease: %v\n", w.proc.Pid, err)
	}
	return spawnRes{err: fmt.Errorf("worker pid %d: %s", w.proc.Pid, desc)}, false
}

// runner is one worker-loop goroutine's share of the fleet: at most one
// warm worker, spawned on the runner's first warm job and kept until it
// dies, is stopped, or has served warmJobs.
type runner struct {
	warm *worker
}

// close reaps the runner's warm worker, if it has one.
func (r *runner) close() {
	if r.warm != nil {
		r.warm.reap()
		r.warm = nil
	}
}

// warmDispatch runs the primary of a warm job on the runner's warm
// worker, spawning one if it has none.
func (s *server) warmDispatch(ctx context.Context, r *runner, j *job, deadline time.Duration) spawnRes {
	limit := budget.WorkerMemLimit(budget.Footprint{HeapBytes: warmHeapBytes}, s.fleet.cfg.memCap)
	for {
		if r.warm == nil {
			w, err := s.spawn()
			if err != nil {
				return spawnRes{err: err}
			}
			r.warm = w
		}
		w := r.warm
		res, fit := s.dispatch(ctx, w, j, 0, deadline, limit)
		switch {
		case fit && w.served < warmJobs:
			return res
		case fit:
			w.reap() // retired after warmJobs
		case errors.Is(res.err, errGone) && w.served > 0:
			// It died idle, between jobs: no job was in it, so none takes
			// a strike, and the job goes to a fresh worker. A fresh worker
			// that cannot take its first job is a crash.
			r.warm = nil
			continue
		}
		r.warm = nil
		return res
	}
}

// coldDispatch runs one job in a process of its own, under memLimit;
// the process exits once reaped after its one answer.
func (s *server) coldDispatch(ctx context.Context, j *job, slot int, deadline time.Duration, memLimit int64) spawnRes {
	w, err := s.spawn()
	if err != nil {
		return spawnRes{err: err}
	}
	res, fit := s.dispatch(ctx, w, j, slot, deadline, memLimit)
	if fit {
		w.reap()
	}
	return res
}

// fleetAttempt runs one attempt of a job: the primary on r's warm
// worker when the job is priced within warmHeapBytes, else in a process
// of its own, with a duplicate hedged against a straggling primary —
// always in a process of its own. The first worker to deliver an
// outcome wins; its sibling is cancelled and reaped. Both crashing is
// one crash (one strike) — the attempt failed once, however many
// processes it burned.
func (s *server) fleetAttempt(r *runner, j *job, deadline time.Duration) spawnRes {
	f := s.fleet
	ctx, cancel := context.WithTimeout(s.runCtx, deadline+f.cfg.hangGrace)
	defer cancel()
	memLimit := budget.WorkerMemLimit(j.fp, f.cfg.memCap)
	results := make(chan spawnRes, 2)
	go func() {
		if j.fp.HeapBytes <= warmHeapBytes {
			results <- s.warmDispatch(ctx, r, j, deadline)
		} else {
			results <- s.coldDispatch(ctx, j, 0, deadline, memLimit)
		}
	}()
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
		case res := <-results:
			outstanding--
			if res.outcome != nil {
				cancel()
				for outstanding > 0 {
					<-results
					outstanding--
				}
				return res
			}
			lastCrash = res
			if outstanding == 0 {
				return lastCrash
			}
		case <-hedgeC:
			hedgeC = nil
			s.reg.Counter("fleet_hedges").Inc()
			go func() { results <- s.coldDispatch(ctx, j, 1, deadline, memLimit) }()
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
