package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"syscall"
	"testing"
	"time"

	"ccatscale/internal/schema"
	"ccatscale/internal/store"
	"ccatscale/internal/store/chaostest"
)

// TestMain doubles as the worker binary: fleet tests point the
// supervisor's argv at this test executable, and CCSERVE_TEST_WORKER=1
// routes the subprocess into testWorkerMain instead of the test runner.
// This is how the suite exercises real process boundaries — real fork/
// exec, real SIGKILL, real RLIMIT_AS — without shipping a second binary.
func TestMain(m *testing.M) {
	if os.Getenv("CCSERVE_TEST_WORKER") == "1" {
		os.Exit(testWorkerMain())
	}
	os.Exit(m.Run())
}

// testWorkerMain is workerRun plus fault-injection hooks, each keyed by
// an environment variable the spawning test sets:
//
//	CCSERVE_TEST_CRASH_JOB    die (exit 7) before running the named job
//	CCSERVE_TEST_STALL_JOB    named job's slot-0 worker sleeps
//	CCSERVE_TEST_STALL_MS     ... this long before starting
//	CCSERVE_TEST_ANNOUNCE_DIR drop a pid file and linger so the test can
//	                          aim a signal at a live mid-job worker
//	CCSERVE_TEST_KILL_AT      SIGKILL-equivalent (exit 137) at the Nth
//	                          filesystem mutation, via the chaos FS
//	CCSERVE_TEST_KILL_MARK    arm the kill only in the first worker to
//	                          O_EXCL-create this file (one shot per dir)
func testWorkerMain() int {
	payload, err := io.ReadAll(os.Stdin)
	if err != nil {
		fmt.Fprintf(os.Stderr, "test worker: reading stdin: %v\n", err)
		return 3
	}
	var wj schema.WorkerJob
	if err := json.Unmarshal(payload, &wj); err != nil {
		fmt.Fprintf(os.Stderr, "test worker: decoding payload: %v\n", err)
		return 3
	}

	if name := os.Getenv("CCSERVE_TEST_CRASH_JOB"); name != "" && wj.Spec.Name == name {
		os.Exit(7)
	}
	if name := os.Getenv("CCSERVE_TEST_STALL_JOB"); name != "" && wj.Spec.Name == name && wj.Slot == 0 {
		ms, _ := strconv.Atoi(os.Getenv("CCSERVE_TEST_STALL_MS"))
		time.Sleep(time.Duration(ms) * time.Millisecond)
	}
	if dir := os.Getenv("CCSERVE_TEST_ANNOUNCE_DIR"); dir != "" {
		pid := os.Getpid()
		name := filepath.Join(dir, fmt.Sprintf("worker-%d.pid", pid))
		_ = os.WriteFile(name, []byte(strconv.Itoa(pid)), 0o644)
		// Linger long enough for the test to read the pid and deliver its
		// signal while the job is verifiably mid-flight.
		time.Sleep(250 * time.Millisecond)
	}

	fsys := store.FS(store.OSFS())
	if at := os.Getenv("CCSERVE_TEST_KILL_AT"); at != "" {
		kill, _ := strconv.ParseUint(at, 10, 64)
		armed := kill > 0
		if mark := os.Getenv("CCSERVE_TEST_KILL_MARK"); mark != "" && armed {
			f, err := os.OpenFile(mark, os.O_CREATE|os.O_EXCL|os.O_WRONLY, 0o644)
			if err != nil {
				armed = false // a predecessor already spent the kill
			} else {
				f.Close()
			}
		}
		if armed {
			fsys = chaostest.Wrap(store.OSFS(), chaostest.Plan{
				KillAt: kill,
				OnKill: func() { os.Exit(137) },
			})
		}
	}
	return workerRun(fsys, bytes.NewReader(payload), os.Stdout, os.Stderr)
}

// fleetTestConfig is chaosServerConfig with a worker fleet pointed at
// this test binary, tuned for test speed: tight lease TTL, millisecond
// crash backoff, hedging off unless the test opts in.
func fleetTestConfig(dir string, env ...string) serverConfig {
	cfg := chaosServerConfig(dir, store.OSFS())
	cfg.leaseTTL = time.Second
	cfg.leaseHeartbeat = 100 * time.Millisecond
	cfg.fleet = &fleetConfig{
		poisonAfter: 3,
		backoffBase: 10 * time.Millisecond,
		backoffMax:  50 * time.Millisecond,
		hedgeFactor: -1,
		argv:        []string{os.Args[0]},
		env:         append([]string{"CCSERVE_TEST_WORKER=1"}, env...),
	}
	return cfg
}

func getHealth(t *testing.T, s *server) schema.HealthResponse {
	t.Helper()
	var h schema.HealthResponse
	do(t, s, "GET", "/healthz", nil, &h)
	return h
}

// journalOpsForKey counts journal records per op for one key, across
// every segment, tolerating torn tails.
func journalOpsForKey(t *testing.T, dir, key string) map[string]int {
	t.Helper()
	counts := map[string]int{}
	ents, err := os.ReadDir(dir)
	if err != nil {
		t.Fatalf("read %s: %v", dir, err)
	}
	for _, e := range ents {
		if e.IsDir() || !strings.HasPrefix(e.Name(), "journal") || !strings.HasSuffix(e.Name(), ".jsonl") {
			continue
		}
		data, err := os.ReadFile(filepath.Join(dir, e.Name()))
		if err != nil {
			t.Fatalf("read %s: %v", e.Name(), err)
		}
		for _, line := range strings.Split(string(data), "\n") {
			if line == "" {
				continue
			}
			var rec store.JournalRecord
			if json.Unmarshal([]byte(line), &rec) != nil {
				continue
			}
			if rec.Key == key {
				counts[rec.Op]++
			}
		}
	}
	return counts
}

// TestFleetRunsBatchMatchesInprocess is the fleet's baseline contract:
// the same batch, executed in worker subprocesses, commits results
// byte-identical to in-process execution, reports its fleet through
// /healthz, and serves resubmissions from the store without spawning.
func TestFleetRunsBatchMatchesInprocess(t *testing.T) {
	refDir := t.TempDir()
	ref := cleanCycle(t, refDir, store.OSFS())

	dir := t.TempDir()
	s, err := newServer(fleetTestConfig(dir))
	if err != nil {
		t.Fatalf("fleet boot: %v", err)
	}
	defer s.Drain()

	resp, rr := submit(t, s, chaosSpecs()...)
	if rr.Code != http.StatusCreated {
		t.Fatalf("submit: %d: %s", rr.Code, rr.Body.String())
	}
	final := waitBatch(t, s, resp.Batch, 30*time.Second)
	for _, j := range final.Jobs {
		if j.State != schema.JobDone {
			t.Fatalf("job %s is %s (%s)", j.Name, j.State, j.Error)
		}
		if j.Cached {
			t.Fatalf("job %s reported cached on a pristine store", j.Name)
		}
		// Microsecond resolution: even a sub-millisecond run reports its wall.
		if j.WallMs <= 0 {
			t.Fatalf("job %s ran but reports wallMs %v", j.Name, j.WallMs)
		}
	}
	if got := storeFingerprint(t, dir); got != ref {
		t.Fatalf("fleet results diverge from in-process:\n fleet      %s\n in-process %s", got, ref)
	}
	// One attempt, one protocol: a fresh job leaves the same journal
	// trail whichever side of fork/exec ran it.
	for _, j := range final.Jobs {
		for mode, d := range map[string]string{"fleet": dir, "in-process": refDir} {
			ops := journalOpsForKey(t, d, j.Key)
			if len(ops) != 3 || ops[store.OpQueued] != 1 || ops[store.OpClaimed] != 1 || ops[store.OpDone] != 1 {
				t.Fatalf("%s journal for %s = %v, want queued/claimed/done once each", mode, j.Name, ops)
			}
		}
	}

	h := getHealth(t, s)
	if !h.Live || !h.Ready {
		t.Fatalf("healthz after batch: live=%v ready=%v", h.Live, h.Ready)
	}
	if h.Fleet == nil {
		t.Fatal("healthz: no fleet block on a fleet server")
	}
	if h.Fleet.Spawns < 2 {
		t.Fatalf("fleet spawns = %d, want ≥2 (one per job)", h.Fleet.Spawns)
	}
	if h.Fleet.Spawns != h.Fleet.Exits {
		t.Fatalf("spawns %d != exits %d with no live workers", h.Fleet.Spawns, h.Fleet.Exits)
	}
	if len(h.Workers) != 0 {
		t.Fatalf("healthz lists %d live workers after quiesce", len(h.Workers))
	}

	// Resubmission dedupes against the terminal jobs: no process spawns.
	spawnsBefore := h.Fleet.Spawns
	resp2, rr2 := submit(t, s, chaosSpecs()...)
	if rr2.Code != http.StatusCreated {
		t.Fatalf("resubmit: %d: %s", rr2.Code, rr2.Body.String())
	}
	for _, j := range resp2.Jobs {
		if j.State != schema.JobDone {
			t.Fatalf("resubmitted job %s is %s", j.Name, j.State)
		}
	}
	if h2 := getHealth(t, s); h2.Fleet.Spawns != spawnsBefore {
		t.Fatalf("resubmit spawned workers: %d -> %d", spawnsBefore, h2.Fleet.Spawns)
	}
}

// TestFleetCrashLoopPoisons drives one config's worker into a crash
// loop (exit 7 before doing any work) and pins the quarantine protocol:
// three strikes with backoff, then a poison record, a structured
// poisoned terminal, and refusal — in this server, across resubmission,
// and across a reboot — while the healthy config in the same batch is
// untouched.
func TestFleetCrashLoopPoisons(t *testing.T) {
	dir := t.TempDir()
	s, err := newServer(fleetTestConfig(dir, "CCSERVE_TEST_CRASH_JOB=chaos-a"))
	if err != nil {
		t.Fatalf("fleet boot: %v", err)
	}

	resp, rr := submit(t, s, chaosSpecs()...)
	if rr.Code != http.StatusCreated {
		t.Fatalf("submit: %d: %s", rr.Code, rr.Body.String())
	}
	final := waitBatch(t, s, resp.Batch, 30*time.Second)
	var poisonedKey string
	for _, j := range final.Jobs {
		switch j.Name {
		case "chaos-a":
			if j.State != schema.JobPoisoned {
				t.Fatalf("crash-loop job is %s (%s), want poisoned", j.State, j.Error)
			}
			if !strings.Contains(j.Error, "3 worker crashes") {
				t.Fatalf("poison error does not carry the strike count: %q", j.Error)
			}
			poisonedKey = j.Key
		case "chaos-b":
			if j.State != schema.JobDone {
				t.Fatalf("healthy job alongside a crash loop is %s (%s)", j.State, j.Error)
			}
		}
	}

	h := getHealth(t, s)
	if h.Fleet.Restarts != 2 || h.Fleet.Poisoned != 1 {
		t.Fatalf("fleet counters: restarts=%d poisoned=%d, want 2 and 1", h.Fleet.Restarts, h.Fleet.Poisoned)
	}
	poisons, err := store.OpenPoisonsFS(store.OSFS(), dir)
	if err != nil {
		t.Fatal(err)
	}
	rec, ok := poisons.Get(poisonedKey)
	if !ok {
		t.Fatalf("no poison record for %s", poisonedKey)
	}
	if rec.Strikes != 3 {
		t.Fatalf("poison strikes = %d, want 3", rec.Strikes)
	}

	// Resubmitting a poisoned config spends no processes.
	spawnsBefore := h.Fleet.Spawns
	resp2, _ := submit(t, s, chaosSpecs()[0])
	if st := resp2.Jobs[0].State; st != schema.JobPoisoned {
		t.Fatalf("resubmitted poisoned config is %s, want poisoned", st)
	}
	if h2 := getHealth(t, s); h2.Fleet.Spawns != spawnsBefore {
		t.Fatalf("resubmitting a poisoned config spawned a worker")
	}
	s.Drain()

	// The poison survives reboot: the record outlives the journal state.
	s2, err := newServer(fleetTestConfig(dir))
	if err != nil {
		t.Fatalf("reboot: %v", err)
	}
	defer s2.Drain()
	resp3, _ := submit(t, s2, chaosSpecs()[0])
	if st := resp3.Jobs[0].State; st != schema.JobPoisoned {
		t.Fatalf("after reboot, poisoned config is %s, want poisoned", st)
	}
	if h3 := getHealth(t, s2); h3.Fleet.Spawns != 0 {
		t.Fatalf("rebooted server spawned %d workers for a poisoned config", h3.Fleet.Spawns)
	}
}

// TestFleetBootResolvesPoisonedBacklog covers the recovery corner: a
// job checkpointed as pending in the journal whose config was poisoned
// before the reboot must resolve to poisoned at boot — not re-queue
// every boot forever — with the pool ledger balanced.
func TestFleetBootResolvesPoisonedBacklog(t *testing.T) {
	dir := t.TempDir()
	cfg := fleetTestConfig(dir, "CCSERVE_TEST_CRASH_JOB=chaos-a")
	// Slow the crash loop so the drain lands mid-backoff, leaving the
	// job pending rather than poisoned.
	cfg.fleet.backoffBase = 10 * time.Second
	cfg.fleet.backoffMax = 10 * time.Second
	cfg.drainTimeout = 100 * time.Millisecond
	s, err := newServer(cfg)
	if err != nil {
		t.Fatalf("boot: %v", err)
	}
	spec := chaosSpecs()[0]
	key := mustBuildJob(t, spec).key
	resp, rr := submit(t, s, spec)
	if rr.Code != http.StatusCreated {
		t.Fatalf("submit: %d: %s", rr.Code, rr.Body.String())
	}
	// Wait for the first crash (one spawn, one exit), then drain while
	// the supervisor sits in backoff: the job checkpoints as queued.
	deadline := time.Now().Add(10 * time.Second)
	for getHealth(t, s).Fleet.Exits < 1 {
		if time.Now().After(deadline) {
			t.Fatal("worker never crashed")
		}
		time.Sleep(5 * time.Millisecond)
	}
	s.Drain()
	var st schema.JobStatus
	do(t, s, "GET", "/v1/jobs/"+key, nil, &st)
	if st.State != schema.JobQueued {
		t.Fatalf("after drain mid-backoff, job is %s, want queued", st.State)
	}
	_ = resp

	// Poison arrives between the two lives (an operator marking it, or
	// a sibling server's strikes).
	poisons, err := store.OpenPoisonsFS(store.OSFS(), dir)
	if err != nil {
		t.Fatal(err)
	}
	if err := poisons.Mark(store.PoisonRecord{Key: key, Job: spec.Name, Reason: "marked between boots", Strikes: 3}); err != nil {
		t.Fatal(err)
	}

	s2, err := newServer(fleetTestConfig(dir))
	if err != nil {
		t.Fatalf("reboot: %v", err)
	}
	defer s2.Drain()
	var st2 schema.JobStatus
	do(t, s2, "GET", "/v1/jobs/"+key, nil, &st2)
	if st2.State != schema.JobPoisoned {
		t.Fatalf("recovered job is %s, want poisoned at boot", st2.State)
	}
	if h := getHealth(t, s2); h.Fleet.Spawns != 0 {
		t.Fatalf("boot-resolved poison spawned %d workers", h.Fleet.Spawns)
	}
	if ops := journalOpsForKey(t, dir, key); ops[store.OpPoisoned] == 0 {
		t.Fatal("boot resolution journaled no poisoned terminal")
	}
}

// TestFleetOOMKillsOnlyThatWorker is the fault-isolation acceptance
// test: a config whose queue ring wants ~10 GB runs under a 2.5 GiB
// RLIMIT_AS, so the allocation kills the worker process (Go runtime
// OOM abort), not the service. The config poisons after bounded
// retries; a small job in the same batch completes; the server stays
// live and ready throughout.
func TestFleetOOMKillsOnlyThatWorker(t *testing.T) {
	if runtime.GOOS != "linux" && runtime.GOOS != "darwin" {
		t.Skip("RLIMIT_AS containment is unix-only")
	}
	dir := t.TempDir()
	cfg := fleetTestConfig(dir)
	cfg.fleet.memCap = 2<<30 + 512<<20 // 2.5 GiB: above the runtime floor, far below the ring
	s, err := newServer(cfg)
	if err != nil {
		t.Fatalf("fleet boot: %v", err)
	}
	defer s.Drain()

	huge := schema.JobSpec{
		// 48 GiB of buffer prices a ~10 GB packet ring — the estimator
		// admits it (no queue-heap budget here), the RLIMIT_AS does not.
		Name: "oom-ring", Seed: 3, RateMbps: 5, BufferBytes: 48 << 30, DurationS: 0.05,
		Flows: []schema.FlowGroup{{CCA: "reno", RTTMs: 20, Count: 1}},
	}
	small := chaosSpecs()[1]

	resp, rr := submit(t, s, huge, small)
	if rr.Code != http.StatusCreated {
		t.Fatalf("submit: %d: %s", rr.Code, rr.Body.String())
	}
	final := waitBatch(t, s, resp.Batch, 60*time.Second)
	for _, j := range final.Jobs {
		switch j.Name {
		case "oom-ring":
			if j.State != schema.JobPoisoned {
				t.Fatalf("OOM-scale config is %s (%s), want poisoned", j.State, j.Error)
			}
		case small.Name:
			if j.State != schema.JobDone {
				t.Fatalf("small job beside the OOM config is %s (%s)", j.State, j.Error)
			}
		}
	}
	h := getHealth(t, s)
	if !h.Live || !h.Ready {
		t.Fatalf("service unhealthy after contained OOM: live=%v ready=%v", h.Live, h.Ready)
	}
	if h.Fleet.Poisoned != 1 {
		t.Fatalf("fleet poisoned = %d, want 1", h.Fleet.Poisoned)
	}
}

// TestFleetHedgeRecoversStraggler stalls the primary worker far past
// the hedge trigger and proves the duplicate delivers: the job
// completes in hedge time (not primary-stall time), exactly one hedge
// is counted, no strike is charged, and the committed bytes match an
// unhedged run.
func TestFleetHedgeRecoversStraggler(t *testing.T) {
	ref := cleanCycle(t, t.TempDir(), store.OSFS())

	dir := t.TempDir()
	cfg := fleetTestConfig(dir,
		"CCSERVE_TEST_STALL_JOB=chaos-a",
		"CCSERVE_TEST_STALL_MS=60000",
	)
	cfg.fleet.hedgeFactor = 2
	// The floor must beat the 60s stall by a wide margin but sit far
	// above any honest worker's runtime (race-instrumented fork/exec of
	// the healthy sibling can take over a second), so exactly one hedge
	// fires no matter how slow the machine.
	cfg.fleet.hedgeFloor = 3 * time.Second
	s, err := newServer(cfg)
	if err != nil {
		t.Fatalf("fleet boot: %v", err)
	}
	defer s.Drain()

	resp, rr := submit(t, s, chaosSpecs()...)
	if rr.Code != http.StatusCreated {
		t.Fatalf("submit: %d: %s", rr.Code, rr.Body.String())
	}
	start := time.Now()
	final := waitBatch(t, s, resp.Batch, 30*time.Second)
	elapsed := time.Since(start)
	for _, j := range final.Jobs {
		if j.State != schema.JobDone {
			t.Fatalf("job %s is %s (%s)", j.Name, j.State, j.Error)
		}
	}
	if elapsed > 15*time.Second {
		t.Fatalf("batch took %v: the hedge did not rescue the stalled primary", elapsed)
	}
	if got := storeFingerprint(t, dir); got != ref {
		t.Fatalf("hedged results diverge from clean run:\n hedged %s\n clean  %s", got, ref)
	}
	h := getHealth(t, s)
	if h.Fleet.Hedges != 1 {
		t.Fatalf("fleet hedges = %d, want 1", h.Fleet.Hedges)
	}
	if h.Fleet.Restarts != 0 || h.Fleet.Poisoned != 0 {
		t.Fatalf("hedge charged strikes: restarts=%d poisoned=%d", h.Fleet.Restarts, h.Fleet.Poisoned)
	}
}

// TestFleetSIGKILLMidJobRestarts delivers a real SIGKILL to a live
// worker mid-job and proves fleet-level exactly-once: the supervisor
// restarts, the batch completes, the store matches an uninterrupted
// run byte for byte, and no key commits twice.
func TestFleetSIGKILLMidJobRestarts(t *testing.T) {
	ref := cleanCycle(t, t.TempDir(), store.OSFS())

	dir := t.TempDir()
	announce := t.TempDir()
	s, err := newServer(fleetTestConfig(dir, "CCSERVE_TEST_ANNOUNCE_DIR="+announce))
	if err != nil {
		t.Fatalf("fleet boot: %v", err)
	}
	defer s.Drain()

	resp, rr := submit(t, s, chaosSpecs()...)
	if rr.Code != http.StatusCreated {
		t.Fatalf("submit: %d: %s", rr.Code, rr.Body.String())
	}

	// Kill the first worker to announce itself, while it lingers mid-job.
	deadline := time.Now().Add(10 * time.Second)
	killed := false
	for !killed {
		if time.Now().After(deadline) {
			t.Fatal("no worker announced itself")
		}
		pids, _ := filepath.Glob(filepath.Join(announce, "worker-*.pid"))
		if len(pids) > 0 {
			data, err := os.ReadFile(pids[0])
			if err == nil {
				pid, err := strconv.Atoi(strings.TrimSpace(string(data)))
				if err == nil && pid > 0 {
					if err := syscall.Kill(pid, syscall.SIGKILL); err == nil {
						killed = true
					}
				}
			}
		}
		time.Sleep(2 * time.Millisecond)
	}

	final := waitBatch(t, s, resp.Batch, 30*time.Second)
	for _, j := range final.Jobs {
		if j.State != schema.JobDone {
			t.Fatalf("job %s is %s (%s)", j.Name, j.State, j.Error)
		}
	}
	if got := storeFingerprint(t, dir); got != ref {
		t.Fatalf("post-SIGKILL results diverge:\n killed %s\n clean  %s", got, ref)
	}
	if h := getHealth(t, s); h.Fleet.Restarts < 1 {
		t.Fatalf("fleet restarts = %d after a SIGKILL, want ≥1", h.Fleet.Restarts)
	}
	for key, n := range doneOpsPerKey(t, dir) {
		if n > 1 {
			t.Fatalf("key %s has %d done records: double commit", key, n)
		}
	}
}

// TestFleetDrainCheckpointsRunningWorker drains while a worker is deep
// in a long simulation: the worker must answer the SIGTERM with a
// checkpoint outcome, and the supervisor must return the job to queued
// with its pending journal records standing — not fail it, not count a
// strike.
func TestFleetDrainCheckpointsRunningWorker(t *testing.T) {
	dir := t.TempDir()
	announce := t.TempDir()
	cfg := fleetTestConfig(dir, "CCSERVE_TEST_ANNOUNCE_DIR="+announce)
	cfg.drainTimeout = 200 * time.Millisecond
	cfg.minDeadline = 5 * time.Minute
	s, err := newServer(cfg)
	if err != nil {
		t.Fatalf("fleet boot: %v", err)
	}

	long := schema.JobSpec{
		Name: "chaos-long", Seed: 5, RateMbps: 50, BufferBytes: 65536, DurationS: 3600,
		Flows: []schema.FlowGroup{{CCA: "reno", RTTMs: 20, Count: 2}},
	}
	key := mustBuildJob(t, long).key
	_, rr := submit(t, s, long)
	if rr.Code != http.StatusCreated {
		t.Fatalf("submit: %d: %s", rr.Code, rr.Body.String())
	}

	// Wait for the worker to announce, then give it time to get past its
	// linger and into the simulation proper before draining.
	deadline := time.Now().Add(10 * time.Second)
	for {
		pids, _ := filepath.Glob(filepath.Join(announce, "worker-*.pid"))
		if len(pids) > 0 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("worker never announced")
		}
		time.Sleep(2 * time.Millisecond)
	}
	time.Sleep(600 * time.Millisecond)

	s.Drain()
	var st schema.JobStatus
	do(t, s, "GET", "/v1/jobs/"+key, nil, &st)
	if st.State != schema.JobQueued {
		t.Fatalf("after drain, long job is %s (%s), want queued", st.State, st.Error)
	}
	ops := journalOpsForKey(t, dir, key)
	if ops[store.OpQueued] == 0 && ops[store.OpClaimed] == 0 {
		t.Fatal("checkpointed job left no pending journal record")
	}
	for _, terminal := range []string{store.OpDone, store.OpFailed, store.OpPoisoned, store.OpQuarantined} {
		if ops[terminal] != 0 {
			t.Fatalf("checkpointed job has a %s terminal", terminal)
		}
	}
	if h := getHealth(t, s); h.Fleet.Restarts != 0 || h.Fleet.Poisoned != 0 {
		t.Fatalf("drain charged strikes: restarts=%d poisoned=%d", h.Fleet.Restarts, h.Fleet.Poisoned)
	}
}

// TestFleetChaosKillEveryWorkerBoundary is the exhaustive fleet-level
// crash sweep: probe how many filesystem mutations one worker's
// successful run makes, then for every k in [1, N] boot a fresh fleet,
// SIGKILL (exit 137, mid-syscall via the chaos FS) the first worker to
// reach mutation k, and require full recovery — every job done, the
// store byte-identical to an uninterrupted run, and at most one done
// record per key.
func TestFleetChaosKillEveryWorkerBoundary(t *testing.T) {
	if testing.Short() {
		t.Skip("exhaustive kill sweep")
	}
	// Probe: run one worker in-process over a chaos FS that never kills,
	// counting mutations.
	probeDir := t.TempDir()
	spec := chaosSpecs()[0]
	pj := mustBuildJob(t, spec)
	payload, err := json.Marshal(schema.WorkerJob{
		SchemaVersion: schema.Version, Out: probeDir, Spec: spec, Key: pj.key,
		Owner: "probe", DeadlineMs: 30000, LeaseTTLMs: 2000, HeartbeatMs: 200,
	})
	if err != nil {
		t.Fatal(err)
	}
	chaos := chaostest.Wrap(store.OSFS(), chaostest.Plan{})
	var out bytes.Buffer
	if code := workerRun(chaos, bytes.NewReader(payload), &out, os.Stderr); code != 0 {
		t.Fatalf("probe worker exited %d: %s", code, out.String())
	}
	if o := parseOutcome(out.Bytes()); o == nil || o.State != schema.WorkerDone {
		t.Fatalf("probe worker outcome: %s", out.String())
	}
	total := chaos.Ops()
	if total < 3 {
		t.Fatalf("probe counted %d mutations; the chaos FS is not seeing the worker's writes", total)
	}
	t.Logf("worker run = %d filesystem mutations; sweeping kill points 1..%d", total, total)

	ref := cleanCycle(t, t.TempDir(), store.OSFS())

	for kill := uint64(1); kill <= total; kill++ {
		kill := kill
		t.Run(fmt.Sprintf("kill@%d", kill), func(t *testing.T) {
			dir := t.TempDir()
			mark := filepath.Join(t.TempDir(), "armed")
			s, err := newServer(fleetTestConfig(dir,
				"CCSERVE_TEST_KILL_AT="+strconv.FormatUint(kill, 10),
				"CCSERVE_TEST_KILL_MARK="+mark,
			))
			if err != nil {
				t.Fatalf("fleet boot: %v", err)
			}
			defer s.Drain()

			resp, rr := submit(t, s, chaosSpecs()...)
			if rr.Code != http.StatusCreated {
				t.Fatalf("submit: %d: %s", rr.Code, rr.Body.String())
			}
			final := waitBatch(t, s, resp.Batch, 60*time.Second)
			for _, j := range final.Jobs {
				if j.State != schema.JobDone {
					t.Fatalf("job %s is %s (%s)", j.Name, j.State, j.Error)
				}
			}
			if got := storeFingerprint(t, dir); got != ref {
				t.Fatalf("kill@%d diverges from clean run:\n chaos %s\n clean %s", kill, got, ref)
			}
			for key, n := range doneOpsPerKey(t, dir) {
				if n > 1 {
					t.Fatalf("kill@%d: key %s has %d done records", kill, key, n)
				}
			}
		})
	}
}
