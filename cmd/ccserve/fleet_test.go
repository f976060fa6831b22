package main

import (
	"bufio"
	"bytes"
	"context"
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
// an environment variable the spawning test sets. PID_DIR acts once per
// process; the rest act per job, so a warm worker applies them to each
// payload it takes:
//
//	CCSERVE_TEST_PID_DIR      drop a proc-<pid> file at process start so
//	                          the test can count and signal processes
//	CCSERVE_TEST_CRASH_KEY    die (exit 7) before running the job of this
//	                          run key
//	CCSERVE_TEST_STALL_KEY    that run key's dispatch sleeps
//	CCSERVE_TEST_STALL_MS     ... this long (or until SIGTERM) first
//	CCSERVE_TEST_ANNOUNCE_DIR drop a pid file and linger so the test can
//	                          aim a signal at a live mid-job worker
//	CCSERVE_TEST_KILL_AT      SIGKILL-equivalent (exit 137) at the job's
//	                          Nth filesystem mutation, via the chaos FS
//	CCSERVE_TEST_KILL_MARK    arm the kill only in the first job to
//	                          O_EXCL-create this file (one shot per dir)
func testWorkerMain() int {
	if dir := os.Getenv("CCSERVE_TEST_PID_DIR"); dir != "" {
		pid := os.Getpid()
		_ = os.WriteFile(filepath.Join(dir, fmt.Sprintf("proc-%d", pid)), []byte(strconv.Itoa(pid)), 0o644)
	}
	fsys := &jobFS{FS: store.OSFS()}
	return workerRun(fsys, os.Stdin, os.Stdout, os.Stderr, func(ctx context.Context, wj schema.WorkerJob) {
		if key := os.Getenv("CCSERVE_TEST_CRASH_KEY"); key != "" && wj.Key == key {
			os.Exit(7)
		}
		if key := os.Getenv("CCSERVE_TEST_STALL_KEY"); key != "" && wj.Key == key {
			ms, _ := strconv.Atoi(os.Getenv("CCSERVE_TEST_STALL_MS"))
			select {
			case <-time.After(time.Duration(ms) * time.Millisecond):
			case <-ctx.Done():
			}
		}
		if dir := os.Getenv("CCSERVE_TEST_ANNOUNCE_DIR"); dir != "" {
			pid := os.Getpid()
			name := filepath.Join(dir, fmt.Sprintf("worker-%d.pid", pid))
			_ = os.WriteFile(name, []byte(strconv.Itoa(pid)), 0o644)
			// Linger long enough for the test to read the pid and deliver
			// its signal while the job is verifiably mid-flight.
			time.Sleep(250 * time.Millisecond)
		}

		fsys.FS = store.OSFS()
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
				fsys.FS = chaostest.Wrap(store.OSFS(), chaostest.Plan{
					KillAt: kill,
					OnKill: func() { os.Exit(137) },
				})
			}
		}
	})
}

// jobFS is a test worker's filesystem: the store handle the worker
// opens once goes through it, and the kill hook swaps a fresh fault
// plan in under it for each job.
type jobFS struct{ store.FS }

// fleetTestConfig is chaosServerConfig with a worker fleet pointed at
// this test binary, tuned for test speed: tight lease TTL, millisecond
// crash backoff.
func fleetTestConfig(dir string, env ...string) serverConfig {
	cfg := chaosServerConfig(dir, store.OSFS())
	cfg.leaseTTL = time.Second
	cfg.leaseHeartbeat = 100 * time.Millisecond
	cfg.poisonAfter = 3
	cfg.fleet = &fleetConfig{
		backoffBase: 10 * time.Millisecond,
		backoffMax:  50 * time.Millisecond,
		argv:        []string{os.Args[0]},
		env:         append([]string{"CCSERVE_TEST_WORKER=1"}, env...),
	}
	return cfg
}

// tinySpecs builds a batch of 16 tiny jobs (a quarter second of
// simulated time, one flow) whose seeds encode round, so no job of one
// round dedupes against another's: every submission costs a real run.
func tinySpecs(round int) []schema.JobSpec {
	const n = 16
	specs := make([]schema.JobSpec, n)
	for i := range specs {
		specs[i] = schema.JobSpec{
			Name: fmt.Sprintf("tiny-%d-%d", round, i), Seed: uint64(round*n + i + 1),
			RateMbps: 5, BufferBytes: 16384, DurationS: 0.25,
			Flows: []schema.FlowGroup{{CCA: "reno", RTTMs: 20, Count: 1}},
		}
	}
	return specs
}

func getHealth(t *testing.T, s *server) schema.HealthResponse {
	t.Helper()
	var h schema.HealthResponse
	do(t, s, "GET", "/healthz", nil, &h)
	return h
}

// keyEnv is the test worker's switch env for spec's run key.
func keyEnv(t *testing.T, name string, spec schema.JobSpec) string {
	return name + "=" + mustBuildJob(t, spec).key
}

// workerPayload is the payload a supervisor dispatches for spec.
func workerPayload(t testing.TB, dir, owner string, spec schema.JobSpec) schema.WorkerJob {
	t.Helper()
	j := mustBuildJob(t, spec)
	config, err := json.Marshal(j.cfg)
	if err != nil {
		t.Fatal(err)
	}
	return schema.WorkerJob{
		SchemaVersion: schema.Version, Out: dir, Key: j.key, Config: config,
		Owner: owner, DeadlineMs: 30000, LeaseTTLMs: 2000, HeartbeatMs: 200,
	}
}

// assertPending requires the job of spec to be admitted work in dir that
// no attempt has finished: a spec record, and neither a result nor a
// failure record.
func assertPending(t *testing.T, dir string, spec schema.JobSpec) {
	t.Helper()
	st, err := store.OpenFS(filepath.Join(dir, "store"), store.OSFS())
	if err != nil {
		t.Fatal(err)
	}
	key := mustBuildJob(t, spec).key
	if !st.Has(key + specSuffix) {
		t.Fatalf("job %s lost its spec record", spec.Name)
	}
	_, ferr := os.Stat(filepath.Join(dir, key+".failed.json"))
	if st.Has(key) || ferr == nil {
		t.Fatalf("job %s was resolved: result=%v failure record=%v", spec.Name, st.Has(key), ferr == nil)
	}
}

// TestFleetRunsBatchMatchesInprocess is the fleet's baseline contract:
// a 32-job batch on a 2-runner fleet costs at most one warm worker per
// runner, commits a store — spec records and results — byte-identical
// to in-process execution, reports its fleet through
// /healthz, serves resubmissions from the store without spawning, and
// leaves no process after Drain.
func TestFleetRunsBatchMatchesInprocess(t *testing.T) {
	specs := append(tinySpecs(0), tinySpecs(1)...)
	refCfg := chaosServerConfig(t.TempDir(), store.OSFS())
	refCfg.slots = len(specs)
	refSrv, err := newServer(refCfg)
	if err != nil {
		t.Fatalf("in-process boot: %v", err)
	}
	runBatchDone(t, refSrv, specs...)
	refSrv.Drain()
	refDir := refCfg.out

	dir := t.TempDir()
	procs := t.TempDir()
	cfg := fleetTestConfig(dir, "CCSERVE_TEST_PID_DIR="+procs)
	cfg.slots = len(specs)
	s, err := newServer(cfg)
	if err != nil {
		t.Fatalf("fleet boot: %v", err)
	}
	defer s.Drain()

	final := runBatchDone(t, s, specs...)
	for _, j := range final.Jobs {
		// Microsecond resolution: even a sub-millisecond run reports its wall.
		if j.WallMs <= 0 {
			t.Fatalf("job %s ran but reports wallMs %v", j.Name, j.WallMs)
		}
	}
	// One attempt, one protocol: a fresh job leaves the same records
	// whichever side of the process boundary ran it.
	if got, ref := storeFingerprint(t, dir), storeFingerprint(t, refDir); got != ref {
		t.Fatalf("fleet results diverge from in-process:\n fleet      %s\n in-process %s", got, ref)
	}

	h := getHealth(t, s)
	if !h.Live || !h.Ready {
		t.Fatalf("healthz after batch: live=%v ready=%v", h.Live, h.Ready)
	}
	if h.Fleet == nil {
		t.Fatal("healthz: no fleet block on a fleet server")
	}
	// Warm workers serve the batch and outlive it, at most one per
	// runner; /healthz lists only workers with a job in flight.
	if h.Fleet.Spawns < 1 || h.Fleet.Spawns > int64(cfg.workers) || h.Fleet.Restarts != 0 {
		t.Fatalf("%d jobs cost %d spawns and %d restarts; want 1..%d spawns, no restart",
			len(specs), h.Fleet.Spawns, h.Fleet.Restarts, cfg.workers)
	}
	if len(h.Workers) != 0 {
		t.Fatalf("healthz lists %d busy workers after quiesce", len(h.Workers))
	}

	// Resubmission dedupes against the terminal jobs: no process spawns.
	spawnsBefore := h.Fleet.Spawns
	resp2, rr2 := submit(t, s, specs...)
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

	// Drain reaps the warm workers: every process spawned has exited.
	s.Drain()
	h = getHealth(t, s)
	if h.Fleet.Spawns != h.Fleet.Exits {
		t.Fatalf("after drain: spawns %d != exits %d", h.Fleet.Spawns, h.Fleet.Exits)
	}
	assertProcsGone(t, procs, h.Fleet.Spawns)
}

// workerPIDs lists the processes a CCSERVE_TEST_PID_DIR has recorded,
// in no particular order.
func workerPIDs(t *testing.T, dir string) []int {
	t.Helper()
	files, err := filepath.Glob(filepath.Join(dir, "proc-*"))
	if err != nil {
		t.Fatal(err)
	}
	var pids []int
	for _, f := range files {
		pid, err := strconv.Atoi(strings.TrimPrefix(filepath.Base(f), "proc-"))
		if err != nil {
			t.Fatalf("pid file %s: %v", f, err)
		}
		pids = append(pids, pid)
	}
	return pids
}

// assertProcsGone requires the recorded processes to number spawns and
// to be gone — exited and reaped, not lingering as children.
func assertProcsGone(t *testing.T, dir string, spawns int64) {
	t.Helper()
	pids := workerPIDs(t, dir)
	if int64(len(pids)) != spawns {
		t.Fatalf("%d worker processes recorded, fleet counted %d spawns", len(pids), spawns)
	}
	for _, pid := range pids {
		if err := syscall.Kill(pid, 0); err != syscall.ESRCH {
			t.Fatalf("worker %d still exists (kill 0: %v)", pid, err)
		}
	}
}

// runBatchDone submits specs and requires every member to resolve done,
// freshly computed, in one attempt.
func runBatchDone(t *testing.T, s *server, specs ...schema.JobSpec) schema.BatchResponse {
	t.Helper()
	resp, rr := submit(t, s, specs...)
	if rr.Code != http.StatusCreated {
		t.Fatalf("submit: %d: %s", rr.Code, rr.Body.String())
	}
	final := waitBatch(t, s, resp.Batch, 60*time.Second)
	for _, j := range final.Jobs {
		if j.State != schema.JobDone || j.Cached || j.Attempts != 1 {
			t.Fatalf("job %s: %s, cached %v, %d attempts (%s); want done, fresh, 1 attempt",
				j.Name, j.State, j.Cached, j.Attempts, j.Error)
		}
	}
	return final
}

// TestFleetWarmCrashStrikesOnlyThatJob kills a warm worker on the third
// job it takes: that job alone is charged — it crash-loops to poison in
// fresh processes — while the jobs the same process served before it,
// and a new one served after it, complete in one attempt each.
func TestFleetWarmCrashStrikesOnlyThatJob(t *testing.T) {
	specs := tinySpecs(0)[:5]
	crash := specs[2].Name
	cfg := fleetTestConfig(t.TempDir(), keyEnv(t, "CCSERVE_TEST_CRASH_KEY", specs[2]))
	cfg.workers = 1 // one runner: the jobs reach its worker in submission order
	s, err := newServer(cfg)
	if err != nil {
		t.Fatalf("fleet boot: %v", err)
	}
	defer s.Drain()

	resp, rr := submit(t, s, specs...)
	if rr.Code != http.StatusCreated {
		t.Fatalf("submit: %d: %s", rr.Code, rr.Body.String())
	}
	for _, j := range waitBatch(t, s, resp.Batch, 60*time.Second).Jobs {
		if j.Name == crash {
			if j.State != schema.JobPoisoned {
				t.Fatalf("crashing job is %s (%s), want poisoned", j.State, j.Error)
			}
			continue
		}
		if j.State != schema.JobDone || j.Attempts != 1 {
			t.Fatalf("neighbour %s is %s after %d attempts (%s), want done in 1", j.Name, j.State, j.Attempts, j.Error)
		}
	}
	// Three strikes, all the crash job's: two restarts and a poison. Four
	// processes: the warm one that served two jobs and died on the third,
	// the two that died on its retries, and the one that served the rest.
	h := getHealth(t, s)
	if h.Fleet.Restarts != 2 || h.Fleet.Poisoned != 1 || h.Fleet.Spawns != 4 {
		t.Fatalf("fleet counters: restarts=%d poisoned=%d spawns=%d, want 2, 1, 4",
			h.Fleet.Restarts, h.Fleet.Poisoned, h.Fleet.Spawns)
	}
}

// TestFleetIdleWorkerDeathCostsNoStrike SIGKILLs a warm worker between
// jobs: no job was in it, so the next job simply gets a new worker —
// one attempt, no restart charged.
func TestFleetIdleWorkerDeathCostsNoStrike(t *testing.T) {
	procs := t.TempDir()
	cfg := fleetTestConfig(t.TempDir(), "CCSERVE_TEST_PID_DIR="+procs)
	cfg.workers = 1
	s, err := newServer(cfg)
	if err != nil {
		t.Fatalf("fleet boot: %v", err)
	}
	defer s.Drain()

	specs := chaosSpecs()
	runBatchDone(t, s, specs[0])
	pids := workerPIDs(t, procs)
	if len(pids) != 1 {
		t.Fatalf("one job spawned %d workers, want 1", len(pids))
	}
	if err := syscall.Kill(pids[0], syscall.SIGKILL); err != nil {
		t.Fatalf("SIGKILL idle worker: %v", err)
	}
	deadline := time.Now().Add(10 * time.Second)
	for getHealth(t, s).Fleet.Exits < 1 {
		if time.Now().After(deadline) {
			t.Fatal("killed worker never reaped")
		}
		time.Sleep(2 * time.Millisecond)
	}
	runBatchDone(t, s, specs[1])
	if h := getHealth(t, s); h.Fleet.Restarts != 0 || h.Fleet.Spawns != 2 {
		t.Fatalf("after an idle death: restarts=%d spawns=%d, want 0 and 2", h.Fleet.Restarts, h.Fleet.Spawns)
	}
}

// TestFleetJobAboveWarmBoundRunsAlone prices a job past the warm bound:
// it runs in a process of its own, under its own ceiling, which has
// exited by the time the job resolves — while the runner's warm worker
// lives on.
func TestFleetJobAboveWarmBoundRunsAlone(t *testing.T) {
	big := schema.JobSpec{
		// A 512 MiB buffer prices (and preallocates) a packet ring past
		// the warm bound; the run itself is a quarter virtual second.
		Name: "big-ring", Seed: 5, RateMbps: 5, BufferBytes: 512 << 20, DurationS: 0.25,
		Flows: []schema.FlowGroup{{CCA: "reno", RTTMs: 20, Count: 1}},
	}
	if heap := mustBuildJob(t, big).fp.HeapBytes; heap <= warmHeapBytes {
		t.Fatalf("big job prices %d heap bytes, not above the %d warm bound", heap, warmHeapBytes)
	}
	procs := t.TempDir()
	cfg := fleetTestConfig(t.TempDir(), "CCSERVE_TEST_PID_DIR="+procs)
	cfg.workers = 1
	s, err := newServer(cfg)
	if err != nil {
		t.Fatalf("fleet boot: %v", err)
	}
	defer s.Drain()

	runBatchDone(t, s, chaosSpecs()[0])
	warm := workerPIDs(t, procs)
	if len(warm) != 1 {
		t.Fatalf("one warm job spawned %d workers, want 1", len(warm))
	}
	runBatchDone(t, s, big)
	if h := getHealth(t, s); h.Fleet.Spawns != 2 || h.Fleet.Exits != 1 {
		t.Fatalf("after the big job: spawns=%d exits=%d, want 2 and 1", h.Fleet.Spawns, h.Fleet.Exits)
	}
	for _, pid := range workerPIDs(t, procs) {
		err := syscall.Kill(pid, 0)
		switch {
		case pid == warm[0] && err != nil:
			t.Fatalf("warm worker %d is gone (%v)", pid, err)
		case pid != warm[0] && err != syscall.ESRCH:
			t.Fatalf("big job's worker %d still exists after the job resolved (kill 0: %v)", pid, err)
		}
	}
}

// TestWorkerLoopLeaksNothingAcrossJobs feeds one in-process workerRun
// 200 payloads through a pipe. Goroutines and open fds after the last
// job must not exceed those after the first — no KeepAlive goroutine,
// lease or store handle outlives its job — and no lease file is left.
func TestWorkerLoopLeaksNothingAcrossJobs(t *testing.T) {
	dir := t.TempDir()
	inR, inW := io.Pipe()
	outR, outW := io.Pipe()
	code := make(chan int, 1)
	go func() {
		code <- workerRun(store.OSFS(), inR, outW, io.Discard, nil)
		outW.Close()
	}()
	enc := json.NewEncoder(inW)
	out := bufio.NewReader(outR)
	runOne := func(i int) {
		spec := testSpec(fmt.Sprintf("leak-%d", i), uint64(i+1))
		// No MemLimitBytes: an RLIMIT_AS would cap the test process.
		if err := enc.Encode(workerPayload(t, dir, fmt.Sprintf("leak-w%d", i), spec)); err != nil {
			t.Fatalf("job %d: writing payload: %v", i, err)
		}
		line, err := out.ReadBytes('\n')
		if err != nil {
			t.Fatalf("job %d: reading outcome: %v", i, err)
		}
		if o := parseOutcome(line); o == nil || o.State != schema.WorkerDone || o.Cached {
			t.Fatalf("job %d: outcome %s", i, line)
		}
	}

	runOne(0)
	g0, fd0 := runtime.NumGoroutine(), openFDs(t)
	for i := 1; i < 200; i++ {
		runOne(i)
	}
	if g, fd := runtime.NumGoroutine(), openFDs(t); g > g0 || fd > fd0 {
		t.Fatalf("after 200 jobs: %d goroutines, %d fds; after the first: %d, %d", g, fd, g0, fd0)
	}
	inW.Close()
	if c := <-code; c != 0 {
		t.Fatalf("worker exited %d at end of stdin, want 0", c)
	}
	if left, _ := filepath.Glob(filepath.Join(dir, "leases", "*")); len(left) != 0 {
		t.Fatalf("leases left behind: %v", left)
	}
}

// TestWorkerRefusesKeyMismatch: a payload whose config does not hash to
// its key is refused as a failure — running it would commit a run
// under another run's address.
func TestWorkerRefusesKeyMismatch(t *testing.T) {
	dir := t.TempDir()
	wj := workerPayload(t, dir, "skew", testSpec("skew", 1))
	wj.Key = mustBuildJob(t, testSpec("skew", 2)).key
	payload, err := json.Marshal(wj)
	if err != nil {
		t.Fatal(err)
	}
	var out bytes.Buffer
	if code := workerRun(store.OSFS(), bytes.NewReader(payload), &out, io.Discard, nil); code != 0 {
		t.Fatalf("worker exited %d", code)
	}
	if o := parseOutcome(out.Bytes()); o == nil || o.State != schema.WorkerFailed || !strings.Contains(o.Error, "key mismatch") {
		t.Fatalf("outcome %s, want a key-mismatch failure", out.String())
	}
	if keys, _ := filepath.Glob(filepath.Join(dir, "store", "*")); len(keys) != 0 {
		t.Fatalf("refused payload wrote %v", keys)
	}
}

// openFDs counts this process's open file descriptors.
func openFDs(t *testing.T) int {
	t.Helper()
	ents, err := os.ReadDir("/proc/self/fd")
	if err != nil {
		t.Skipf("no /proc/self/fd: %v", err)
	}
	return len(ents)
}

// TestFleetCrashLoopPoisons drives one config's worker into a crash
// loop (exit 7 before doing any work) and pins the poison protocol:
// three strikes with backoff, each in the poison record, then a
// structured poisoned terminal and refusal — in this server, across
// resubmission, and across a reboot — while the healthy config in the
// same batch is untouched.
func TestFleetCrashLoopPoisons(t *testing.T) {
	dir := t.TempDir()
	s, err := newServer(fleetTestConfig(dir, keyEnv(t, "CCSERVE_TEST_CRASH_KEY", chaosSpecs()[0])))
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
			if !strings.Contains(j.Error, "poisoned after 3 strikes") {
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

	// The poison survives reboot: the record is read at every submit.
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
// job checkpointed as pending whose config was poisoned before the
// reboot must resolve to poisoned at boot — not re-queue every boot
// forever — with the pool ledger balanced. The drained crash loop keeps
// the strike it took.
func TestFleetBootResolvesPoisonedBacklog(t *testing.T) {
	dir := t.TempDir()
	cfg := fleetTestConfig(dir, keyEnv(t, "CCSERVE_TEST_CRASH_KEY", chaosSpecs()[0]))
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

	poisons, err := store.OpenPoisonsFS(store.OSFS(), dir)
	if err != nil {
		t.Fatal(err)
	}
	if rec, ok := poisons.Get(key); !ok || rec.Strikes != 1 {
		t.Fatalf("drained crash loop's strike record: %+v (ok=%v), want 1 strike kept", rec, ok)
	}
	// Poison arrives between the two lives (an operator marking it, or
	// a sibling server's strikes).
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
	if d := s2.pool.Depth(); d != 0 {
		t.Fatalf("boot-resolved poison holds %d pool slots, want 0", d)
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

// TestFleetSIGKILLMidJobRestarts delivers a real SIGKILL to a live
// worker mid-job and proves fleet-level exactly-once: the supervisor
// restarts, the batch completes, the store matches an uninterrupted
// run byte for byte, and each run key holds one result record.
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
	assertOneRecordPerRun(t, dir, chaosSpecs())
}

// TestFleetDrainCheckpointsRunningWorker drains while a worker is deep
// in a long simulation: the worker must answer the SIGTERM with a
// checkpoint outcome, and the supervisor must return the job to queued
// with its spec record standing — not fail it, not count a strike.
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
	assertPending(t, dir, long)
	if _, ok := s.poisons.Get(key); ok {
		t.Fatal("drain charged the checkpointed job a strike")
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
// store byte-identical to an uninterrupted run, one result record per
// run key.
func TestFleetChaosKillEveryWorkerBoundary(t *testing.T) {
	if testing.Short() {
		t.Skip("exhaustive kill sweep")
	}
	// Probe: run one worker in-process over a chaos FS that never kills,
	// counting mutations.
	payload, err := json.Marshal(workerPayload(t, t.TempDir(), "probe", chaosSpecs()[0]))
	if err != nil {
		t.Fatal(err)
	}
	chaos := chaostest.Wrap(store.OSFS(), chaostest.Plan{})
	var out bytes.Buffer
	if code := workerRun(chaos, bytes.NewReader(payload), &out, os.Stderr, nil); code != 0 {
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
			assertOneRecordPerRun(t, dir, chaosSpecs())
		})
	}
}
