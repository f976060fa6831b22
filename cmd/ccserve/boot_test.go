package main

import (
	"bytes"
	"context"
	"net/http"
	"strings"
	"sync"
	"syscall"
	"testing"
	"time"

	"ccatscale/internal/schema"
)

// seedBacklog boots a throwaway server, submits the chaos batch, and
// drains before the jobs can finish, leaving the directory with spec
// records no attempt finished — the state a boot-time SIGTERM must
// preserve.
func seedBacklog(t *testing.T, dir string) {
	t.Helper()
	specs := chaosSpecs()
	cfg := fleetTestConfig(dir, keyEnv(t, "CCSERVE_TEST_CRASH_KEY", specs[0]),
		keyEnv(t, "CCSERVE_TEST_STALL_KEY", specs[1]), "CCSERVE_TEST_STALL_MS=60000")
	// The crash job sits in a long backoff, the stalled job never
	// finishes: draining now checkpoints both as queued.
	cfg.fleet.backoffBase = time.Minute
	cfg.fleet.backoffMax = time.Minute
	cfg.drainTimeout = 100 * time.Millisecond
	s, err := newServer(cfg)
	if err != nil {
		t.Fatalf("seed boot: %v", err)
	}
	_, rr := submit(t, s, chaosSpecs()...)
	if rr.Code != http.StatusCreated {
		t.Fatalf("seed submit: %d: %s", rr.Code, rr.Body.String())
	}
	deadline := time.Now().Add(10 * time.Second)
	for getHealth(t, s).Fleet.Spawns < 2 {
		if time.Now().After(deadline) {
			t.Fatal("seed workers never spawned")
		}
		time.Sleep(2 * time.Millisecond)
	}
	s.Drain()
	for _, spec := range chaosSpecs() {
		var st schema.JobStatus
		do(t, s, "GET", "/v1/jobs/"+mustBuildJob(t, spec).key, nil, &st)
		if st.State != schema.JobQueued {
			t.Fatalf("seed job %s is %s after drain, want queued", spec.Name, st.State)
		}
	}
}

// TestBootSIGTERMBeforeRecovery pins the earliest arm of the startup/
// drain race: the shutdown signal is already pending when newServer is
// called. Boot must refuse cleanly with errBootCanceled, release the
// singleton lease, and leave the recorded backlog recoverable — the
// next boot picks it up as if the canceled one never happened.
func TestBootSIGTERMBeforeRecovery(t *testing.T) {
	dir := t.TempDir()
	seedBacklog(t, dir)

	ctx, cancel := context.WithCancel(context.Background())
	cancel() // signal landed before boot
	cfg := fleetTestConfig(dir)
	cfg.bootCtx = ctx
	if _, err := newServer(cfg); err != errBootCanceled {
		t.Fatalf("boot under a pending signal: err = %v, want errBootCanceled", err)
	}

	// The canceled boot must not hold the singleton: a healthy boot
	// right after must claim it without waiting out a stale TTL.
	start := time.Now()
	s, err := newServer(fleetTestConfig(dir))
	if err != nil {
		t.Fatalf("boot after canceled boot: %v", err)
	}
	defer s.Drain()
	if waited := time.Since(start); waited > 800*time.Millisecond {
		t.Fatalf("clean boot waited %v for the singleton: the canceled boot leaked its lease", waited)
	}
	// Both seeded jobs were recovered and now run unimpaired (no crash
	// or stall env on this server), proving the backlog survived.
	deadline := time.Now().Add(30 * time.Second)
	for {
		terminal := 0
		for _, spec := range chaosSpecs() {
			var st schema.JobStatus
			do(t, s, "GET", "/v1/jobs/"+mustBuildJob(t, spec).key, nil, &st)
			if st.State == schema.JobDone {
				terminal++
			} else if schema.JobTerminal(st.State) {
				t.Fatalf("recovered job %s resolved %s (%s)", spec.Name, st.State, st.Error)
			}
		}
		if terminal == len(chaosSpecs()) {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("recovered backlog never completed")
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// TestBootSIGTERMAfterRecovery drives the signal into the gap between
// recovery re-queueing the backlog and any worker starting. bootHook is
// the deterministic stand-in for that timing. Boot must checkpoint —
// exit with errBootCanceled, run nothing, release the singleton — and
// the backlog must still be recorded for the next boot.
func TestBootSIGTERMAfterRecovery(t *testing.T) {
	dir := t.TempDir()
	seedBacklog(t, dir)

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	cfg := fleetTestConfig(dir)
	cfg.bootCtx = ctx
	cfg.bootHook = cancel // SIGTERM lands exactly between recovery and worker start
	if _, err := newServer(cfg); err != errBootCanceled {
		t.Fatalf("boot signaled after recovery: err = %v, want errBootCanceled", err)
	}

	// Nothing ran: the backlog is still recorded and unresolved.
	for _, spec := range chaosSpecs() {
		assertPending(t, dir, spec)
	}

	s, err := newServer(fleetTestConfig(dir))
	if err != nil {
		t.Fatalf("boot after canceled boot: %v", err)
	}
	defer s.Drain()
	deadline := time.Now().Add(30 * time.Second)
	for {
		done := 0
		for _, spec := range chaosSpecs() {
			var st schema.JobStatus
			do(t, s, "GET", "/v1/jobs/"+mustBuildJob(t, spec).key, nil, &st)
			if st.State == schema.JobDone {
				done++
			}
		}
		if done == len(chaosSpecs()) {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("backlog did not complete after the interrupted boot")
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// syncBuf is a goroutine-safe buffer for capturing run()'s output while
// the test reads it concurrently.
type syncBuf struct {
	mu  sync.Mutex
	buf bytes.Buffer
}

func (b *syncBuf) Write(p []byte) (int, error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.Write(p)
}

func (b *syncBuf) String() string {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.String()
}

// TestRunSIGTERMDrainsCleanly exercises the real signal path end to
// end: run() with a live listener receives an actual SIGTERM and must
// drain and exit 0. This pins the NotifyContext wiring the unit tests
// above only simulate.
func TestRunSIGTERMDrainsCleanly(t *testing.T) {
	dir := t.TempDir()
	var stdout, stderr syncBuf
	code := make(chan int, 1)
	go func() {
		code <- run([]string{
			"-addr", "localhost:0",
			"-out", dir,
			"-inprocess", // keep the worker argv out of the test binary
			"-drain-timeout", "2s",
		}, &stdout, &stderr)
	}()

	deadline := time.Now().Add(10 * time.Second)
	for !strings.Contains(stdout.String(), "listening on") {
		select {
		case c := <-code:
			t.Fatalf("run exited %d before listening:\n%s%s", c, stdout.String(), stderr.String())
		default:
		}
		if time.Now().After(deadline) {
			t.Fatalf("server never listened:\n%s%s", stdout.String(), stderr.String())
		}
		time.Sleep(2 * time.Millisecond)
	}

	if err := syscall.Kill(syscall.Getpid(), syscall.SIGTERM); err != nil {
		t.Fatalf("self-SIGTERM: %v", err)
	}
	select {
	case c := <-code:
		if c != 0 {
			t.Fatalf("run exited %d after SIGTERM, want 0:\n%s%s", c, stdout.String(), stderr.String())
		}
	case <-time.After(15 * time.Second):
		t.Fatalf("run did not exit after SIGTERM:\n%s%s", stdout.String(), stderr.String())
	}
	if !strings.Contains(stdout.String(), "drained, exiting") {
		t.Fatalf("run exited without draining:\n%s", stdout.String())
	}
}
