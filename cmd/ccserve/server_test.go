package main

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"ccatscale/internal/attempt"
	"ccatscale/internal/budget"
	"ccatscale/internal/core"
	"ccatscale/internal/schema"
	"ccatscale/internal/store"
)

// testSpec is a scenario small enough that a full run takes
// milliseconds: one flow, half a virtual second, 10 Mbps.
func testSpec(name string, seed uint64) schema.JobSpec {
	return schema.JobSpec{
		Name:        name,
		Seed:        seed,
		RateMbps:    10,
		BufferBytes: 32768,
		DurationS:   0.5,
		Flows:       []schema.FlowGroup{{CCA: "reno", RTTMs: 20, Count: 1}},
	}
}

// mustBuildJob compiles a spec the test knows is valid.
func mustBuildJob(t testing.TB, spec schema.JobSpec) *job {
	t.Helper()
	j, err := buildJob(spec)
	if err != nil {
		t.Fatalf("buildJob(%s): %v", spec.Name, err)
	}
	return j
}

func testServerConfig(t *testing.T, workers int) serverConfig {
	t.Helper()
	return serverConfig{
		out:            t.TempDir(),
		workers:        workers,
		slots:          8,
		leaseTTL:       time.Second,
		leaseHeartbeat: 100 * time.Millisecond,
		minDeadline:    30 * time.Second,
		drainTimeout:   5 * time.Second,
		stderr:         testWriter{t},
	}
}

type testWriter struct{ t *testing.T }

func (w testWriter) Write(p []byte) (int, error) {
	w.t.Logf("%s", bytes.TrimRight(p, "\n"))
	return len(p), nil
}

func startServer(t *testing.T, cfg serverConfig) *server {
	t.Helper()
	s, err := newServer(cfg)
	if err != nil {
		t.Fatalf("newServer: %v", err)
	}
	return s
}

// do runs one request through the server's full mux (so path wildcards
// and telemetry middleware are exercised) and decodes the JSON reply.
func do(t testing.TB, s *server, method, path string, body, out any) *httptest.ResponseRecorder {
	t.Helper()
	var rd *bytes.Reader
	if body != nil {
		data, err := json.Marshal(body)
		if err != nil {
			t.Fatalf("marshal request: %v", err)
		}
		rd = bytes.NewReader(data)
	} else {
		rd = bytes.NewReader(nil)
	}
	req := httptest.NewRequest(method, path, rd)
	rr := httptest.NewRecorder()
	s.Handler().ServeHTTP(rr, req)
	if out != nil && rr.Body.Len() > 0 {
		if err := json.Unmarshal(rr.Body.Bytes(), out); err != nil {
			t.Fatalf("decode %s %s response (%d): %v\n%s", method, path, rr.Code, err, rr.Body.String())
		}
	}
	return rr
}

func submit(t testing.TB, s *server, specs ...schema.JobSpec) (schema.BatchResponse, *httptest.ResponseRecorder) {
	t.Helper()
	var resp schema.BatchResponse
	rr := do(t, s, "POST", "/v1/batches", schema.BatchRequest{SchemaVersion: schema.Version, Jobs: specs}, &resp)
	return resp, rr
}

// waitBatch polls a batch until every member is terminal.
func waitBatch(t testing.TB, s *server, batch string, timeout time.Duration) schema.BatchResponse {
	t.Helper()
	deadline := time.Now().Add(timeout)
	for {
		var resp schema.BatchResponse
		rr := do(t, s, "GET", "/v1/batches/"+batch, nil, &resp)
		if rr.Code != http.StatusOK {
			t.Fatalf("GET batch %s: %d: %s", batch, rr.Code, rr.Body.String())
		}
		alive := 0
		for _, j := range resp.Jobs {
			if !schema.JobTerminal(j.State) {
				alive++
			}
		}
		if alive == 0 {
			return resp
		}
		if time.Now().After(deadline) {
			t.Fatalf("batch %s not terminal after %v: %+v", batch, timeout, resp.Jobs)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

func TestSubmitRunsAndDedupes(t *testing.T) {
	cfg := testServerConfig(t, 2)
	s := startServer(t, cfg)
	defer s.Drain()

	resp, rr := submit(t, s, testSpec("a", 1), testSpec("b", 2))
	if rr.Code != http.StatusCreated {
		t.Fatalf("submit: %d: %s", rr.Code, rr.Body.String())
	}
	if len(resp.Jobs) != 2 || resp.Batch == "" {
		t.Fatalf("unexpected batch response: %+v", resp)
	}
	final := waitBatch(t, s, resp.Batch, 30*time.Second)
	for _, j := range final.Jobs {
		if j.State != schema.JobDone {
			t.Fatalf("job %s finished %s (%s), want done", j.Name, j.State, j.Error)
		}
	}

	// The results are in the content-addressed store.
	st, err := store.OpenFS(filepath.Join(cfg.out, "store"), store.OSFS())
	if err != nil {
		t.Fatal(err)
	}
	for _, j := range final.Jobs {
		if !st.Has(j.Key) {
			t.Fatalf("store is missing result %s", j.Key)
		}
	}

	// Resubmitting the identical batch computes nothing: same batch id,
	// every member immediately terminal.
	again, rr := submit(t, s, testSpec("a", 1), testSpec("b", 2))
	if rr.Code != http.StatusCreated {
		t.Fatalf("resubmit: %d: %s", rr.Code, rr.Body.String())
	}
	if again.Batch != resp.Batch {
		t.Fatalf("same scenarios produced batch %s, want %s", again.Batch, resp.Batch)
	}
	for _, j := range again.Jobs {
		if j.State != schema.JobDone {
			t.Fatalf("resubmitted job %s is %s, want immediately done", j.Name, j.State)
		}
	}

	// A single-job view agrees.
	var one schema.JobStatus
	if rr := do(t, s, "GET", "/v1/jobs/"+final.Jobs[0].Key, nil, &one); rr.Code != http.StatusOK {
		t.Fatalf("GET job: %d", rr.Code)
	}
	if one.State != schema.JobDone {
		t.Fatalf("job view state %s, want done", one.State)
	}
}

func TestBackpressure429(t *testing.T) {
	cfg := testServerConfig(t, 0) // no workers: admitted jobs stay queued
	cfg.slots = 2
	s := startServer(t, cfg)
	defer s.Drain()

	// A batch larger than the queue bounces whole: all-or-nothing.
	var errResp schema.ErrorResponse
	rr := do(t, s, "POST", "/v1/batches",
		schema.BatchRequest{SchemaVersion: schema.Version, Jobs: []schema.JobSpec{
			testSpec("a", 1), testSpec("b", 2), testSpec("c", 3),
		}}, &errResp)
	if rr.Code != http.StatusTooManyRequests {
		t.Fatalf("oversized batch: %d, want 429: %s", rr.Code, rr.Body.String())
	}
	ra, err := strconv.Atoi(rr.Header().Get("Retry-After"))
	if err != nil || ra < 1 {
		t.Fatalf("Retry-After %q, want a positive integer", rr.Header().Get("Retry-After"))
	}
	if errResp.RetryAfterS < 1 || !strings.Contains(errResp.Error, "queue") {
		t.Fatalf("error body should mirror the header and name the queue: %+v", errResp)
	}

	// Nothing from the bounced batch leaked into the pool: a batch that
	// fits is admitted in full...
	if _, rr := submit(t, s, testSpec("a", 1), testSpec("b", 2)); rr.Code != http.StatusCreated {
		t.Fatalf("fitting batch: %d: %s", rr.Code, rr.Body.String())
	}
	// ...and now the queue is full, so one more job bounces.
	if _, rr := submit(t, s, testSpec("d", 4)); rr.Code != http.StatusTooManyRequests {
		t.Fatalf("submit to full queue: %d, want 429", rr.Code)
	}
	// Duplicates of queued work dedupe instead of consuming slots.
	if _, rr := submit(t, s, testSpec("a", 1)); rr.Code != http.StatusCreated {
		t.Fatalf("duplicate of queued job: %d, want 201 dedupe", rr.Code)
	}
}

func TestBackpressureBudget(t *testing.T) {
	cfg := testServerConfig(t, 0)
	cfg.queueBudget = &budget.Budget{HeapBytes: 1} // nothing fits
	s := startServer(t, cfg)
	defer s.Drain()

	rr := do(t, s, "POST", "/v1/batches",
		schema.BatchRequest{SchemaVersion: schema.Version, Jobs: []schema.JobSpec{testSpec("a", 1)}}, nil)
	if rr.Code != http.StatusTooManyRequests {
		t.Fatalf("over-budget batch: %d, want 429: %s", rr.Code, rr.Body.String())
	}
	if rr.Header().Get("Retry-After") == "" {
		t.Fatal("budget rejection carries no Retry-After")
	}
}

func TestSubmitRejectsBadInput(t *testing.T) {
	s := startServer(t, testServerConfig(t, 0))
	defer s.Drain()

	bad := testSpec("a", 1)
	bad.RateMbps = -1
	if _, rr := submit(t, s, bad); rr.Code != http.StatusBadRequest {
		t.Fatalf("invalid spec: %d, want 400", rr.Code)
	}
	if _, rr := submit(t, s); rr.Code != http.StatusBadRequest {
		t.Fatalf("empty batch: %d, want 400", rr.Code)
	}
	rr := do(t, s, "POST", "/v1/batches",
		schema.BatchRequest{SchemaVersion: "99.0", Jobs: []schema.JobSpec{testSpec("a", 1)}}, nil)
	if rr.Code != http.StatusBadRequest {
		t.Fatalf("wrong schema version: %d, want 400", rr.Code)
	}
	if rr := do(t, s, "GET", "/v1/jobs/nope", nil, nil); rr.Code != http.StatusNotFound {
		t.Fatalf("unknown job: %d, want 404", rr.Code)
	}
	if rr := do(t, s, "GET", "/v1/batches/nope", nil, nil); rr.Code != http.StatusNotFound {
		t.Fatalf("unknown batch: %d, want 404", rr.Code)
	}
}

func TestDrainRefusesSubmitsAndFlipsHealth(t *testing.T) {
	cfg := testServerConfig(t, 0)
	cfg.drainTimeout = 50 * time.Millisecond
	s := startServer(t, cfg)

	resp, rr := submit(t, s, testSpec("a", 1))
	if rr.Code != http.StatusCreated {
		t.Fatalf("submit: %d", rr.Code)
	}
	var health schema.HealthResponse
	if rr := do(t, s, "GET", "/healthz", nil, &health); rr.Code != http.StatusOK || health.State != schema.ServerReady {
		t.Fatalf("healthz before drain: %d %+v", rr.Code, health)
	}
	if health.Queued != 1 {
		t.Fatalf("healthz queued = %d, want 1", health.Queued)
	}

	s.Drain()

	if rr := do(t, s, "GET", "/healthz", nil, &health); rr.Code != http.StatusServiceUnavailable || health.State != schema.ServerDraining {
		t.Fatalf("healthz after drain: %d %+v, want 503 draining", rr.Code, health)
	}
	if _, rr := submit(t, s, testSpec("b", 2)); rr.Code != http.StatusServiceUnavailable {
		t.Fatalf("submit while draining: %d, want 503", rr.Code)
	}

	// The checkpointed job survives the restart: a new server over the
	// same directory recovers it from its spec record and runs it.
	cfg2 := cfg
	cfg2.workers = 2
	s2 := startServer(t, cfg2)
	defer s2.Drain()
	final := waitBatch(t, s2, resp.Batch, 30*time.Second)
	if len(final.Jobs) != 1 || final.Jobs[0].State != schema.JobDone {
		t.Fatalf("recovered job after restart: %+v, want done", final.Jobs)
	}
}

func TestSecondBootServesFromStore(t *testing.T) {
	cfg := testServerConfig(t, 2)
	s := startServer(t, cfg)
	resp, rr := submit(t, s, testSpec("a", 1), testSpec("b", 2))
	if rr.Code != http.StatusCreated {
		t.Fatalf("submit: %d", rr.Code)
	}
	waitBatch(t, s, resp.Batch, 30*time.Second)
	s.Drain()

	s2 := startServer(t, cfg)
	defer s2.Drain()
	// The store carries the results across the boot...
	again, rr := submit(t, s2, testSpec("a", 1), testSpec("b", 2))
	if rr.Code != http.StatusCreated {
		t.Fatalf("resubmit after reboot: %d: %s", rr.Code, rr.Body.String())
	}
	for _, j := range again.Jobs {
		if j.State != schema.JobDone {
			t.Fatalf("job %s after reboot is %s, want done without recomputation", j.Name, j.State)
		}
	}
}

// TestQuarantineAfterRepeatedFailures: failed runs are strikes in the
// config's poison record, the same ledger worker crashes feed. A failure
// below the threshold is retryable by resubmission; the -poison-after-th
// strike poisons the config, which is then refused — resubmission and
// reboot included — with its replayable failure record parked.
func TestQuarantineAfterRepeatedFailures(t *testing.T) {
	cfg := testServerConfig(t, 1)
	cfg.poisonAfter = 2
	// A deadline far below any real run forces a wall-clock failure on
	// every attempt without burning test time.
	cfg.minDeadline = time.Millisecond
	cfg.deadlineFactor = 1e-9
	s := startServer(t, cfg)
	defer s.Drain()

	spec := testSpec("doomed", 1)
	spec.DurationS = 600 // big enough that 1ms of wall clock cannot finish it
	resp, rr := submit(t, s, spec)
	if rr.Code != http.StatusCreated {
		t.Fatalf("submit: %d", rr.Code)
	}
	final := waitBatch(t, s, resp.Batch, 30*time.Second)
	if final.Jobs[0].State != schema.JobFailed {
		t.Fatalf("first attempt: %s (%s), want failed", final.Jobs[0].State, final.Jobs[0].Error)
	}

	// The client retries; the second strike poisons the config.
	resp, rr = submit(t, s, spec)
	if rr.Code != http.StatusCreated {
		t.Fatalf("retry submit: %d", rr.Code)
	}
	final = waitBatch(t, s, resp.Batch, 30*time.Second)
	j := final.Jobs[0]
	if j.State != schema.JobPoisoned {
		t.Fatalf("second failure: %s, want poisoned", j.State)
	}
	if !strings.Contains(j.Error, "poisoned after 2 strikes") {
		t.Fatalf("poison error %q should count the strikes", j.Error)
	}

	// A poisoned config refuses further runs: resubmit dedupes to the
	// poisoned status instead of executing.
	resp, rr = submit(t, s, spec)
	if rr.Code != http.StatusCreated {
		t.Fatalf("post-poison submit: %d", rr.Code)
	}
	if resp.Jobs[0].State != schema.JobPoisoned {
		t.Fatalf("post-poison state %s, want poisoned", resp.Jobs[0].State)
	}

	// The failure record is parked beside the store for offline replay.
	if _, err := os.Stat(filepath.Join(cfg.out, j.Key+".failed.json")); err != nil {
		t.Fatalf("poisoning should leave a replayable failure record: %v", err)
	}

	// ...and the refusal survives a reboot: the poison record holds the
	// strikes, so the next server refuses the config too.
	s.Drain()
	s2 := startServer(t, cfg)
	defer s2.Drain()
	resp, rr = submit(t, s2, spec)
	if rr.Code != http.StatusCreated {
		t.Fatalf("post-reboot submit: %d", rr.Code)
	}
	if resp.Jobs[0].State != schema.JobPoisoned {
		t.Fatalf("post-reboot state %s, want poisoned to survive restart", resp.Jobs[0].State)
	}
}

func TestBootRecoveryWithFewerSlotsThanBacklog(t *testing.T) {
	cfg := testServerConfig(t, 0) // no workers: admitted jobs stay queued
	s := startServer(t, cfg)
	resp, rr := submit(t, s, testSpec("a", 1), testSpec("b", 2), testSpec("c", 3), testSpec("d", 4))
	if rr.Code != http.StatusCreated {
		t.Fatalf("submit: %d: %s", rr.Code, rr.Body.String())
	}
	s.Drain()

	// Restart with a single slot. The queue must still hold the whole
	// recovered backlog before any worker starts, or newServer blocks
	// forever on its own channel while holding the singleton lease.
	cfg2 := cfg
	cfg2.slots = 1
	cfg2.workers = 2
	booted := make(chan *server, 1)
	bootErr := make(chan error, 1)
	go func() {
		s2, err := newServer(cfg2)
		if err != nil {
			bootErr <- err
			return
		}
		booted <- s2
	}()
	select {
	case err := <-bootErr:
		t.Fatalf("reboot with slots=1: %v", err)
	case s2 := <-booted:
		defer s2.Drain()
		final := waitBatch(t, s2, resp.Batch, 30*time.Second)
		for _, j := range final.Jobs {
			if j.State != schema.JobDone {
				t.Fatalf("recovered job %s ended %s (%s), want done", j.Name, j.State, j.Error)
			}
		}
	case <-time.After(30 * time.Second):
		t.Fatal("newServer deadlocked recovering a backlog larger than -slots")
	}
}

func TestResubmitFailedJobAfterRebootRunsRealSpec(t *testing.T) {
	spec := testSpec("phoenix", 5)

	// Reference: the spec's true result bytes from an undisturbed server.
	refCfg := testServerConfig(t, 2)
	ref := startServer(t, refCfg)
	resp, rr := submit(t, ref, spec)
	if rr.Code != http.StatusCreated {
		t.Fatalf("reference submit: %d: %s", rr.Code, rr.Body.String())
	}
	if final := waitBatch(t, ref, resp.Batch, 30*time.Second); final.Jobs[0].State != schema.JobDone {
		t.Fatalf("reference run: %s (%s)", final.Jobs[0].State, final.Jobs[0].Error)
	}
	ref.Drain()
	reference := storeFingerprint(t, refCfg.out)

	// Boot one: an impossible deadline fails the job, parking its
	// failure record.
	cfg := testServerConfig(t, 1)
	cfg.minDeadline = time.Nanosecond
	cfg.deadlineFactor = 1e-9
	s1 := startServer(t, cfg)
	resp, rr = submit(t, s1, spec)
	if rr.Code != http.StatusCreated {
		t.Fatalf("doomed submit: %d: %s", rr.Code, rr.Body.String())
	}
	if final := waitBatch(t, s1, resp.Batch, 30*time.Second); final.Jobs[0].State != schema.JobFailed {
		t.Fatalf("doomed run: %s, want failed", final.Jobs[0].State)
	}
	s1.Drain()

	// Boot two rebuilds the job from its spec record as failed (its
	// failure record is parked). The resubmission retires the failure
	// and re-runs the real scenario, committing the same bytes as the
	// undisturbed run.
	cfg2 := cfg
	cfg2.minDeadline = 30 * time.Second
	cfg2.deadlineFactor = 4
	s2 := startServer(t, cfg2)
	defer s2.Drain()
	resp, rr = submit(t, s2, spec)
	if rr.Code != http.StatusCreated {
		t.Fatalf("resubmit after reboot: %d: %s", rr.Code, rr.Body.String())
	}
	if final := waitBatch(t, s2, resp.Batch, 60*time.Second); final.Jobs[0].State != schema.JobDone {
		t.Fatalf("resubmitted run: %s (%s), want done", final.Jobs[0].State, final.Jobs[0].Error)
	}
	if got := storeFingerprint(t, cfg.out); got != reference {
		t.Errorf("resubmitted job committed %s, want the clean run's %s", got, reference)
	}
	// The failure was a strike; the delivered result cleared it.
	if rec, ok := s2.poisons.Get(mustBuildJob(t, spec).key); ok {
		t.Errorf("strike record outlived the delivered result: %+v", rec)
	}
}

// TestResubmittedFailureSurvivesCrash: resubmitting a failed job
// retires its failure record before the submit is answered, so a server
// that dies right after re-runs the job at its next boot instead of
// reporting the old failure.
func TestResubmittedFailureSurvivesCrash(t *testing.T) {
	spec := testSpec("lazarus", 6)
	cfg := testServerConfig(t, 1)
	cfg.minDeadline = time.Nanosecond
	cfg.deadlineFactor = 1e-9
	s1 := startServer(t, cfg)
	resp, rr := submit(t, s1, spec)
	if rr.Code != http.StatusCreated {
		t.Fatalf("doomed submit: %d: %s", rr.Code, rr.Body.String())
	}
	if final := waitBatch(t, s1, resp.Batch, 30*time.Second); final.Jobs[0].State != schema.JobFailed {
		t.Fatalf("doomed run: %s, want failed", final.Jobs[0].State)
	}
	s1.Drain()

	// Boot two has no workers: the resubmission is accepted, then the
	// server goes away before anything runs it.
	cfg2 := cfg
	cfg2.workers = 0
	s2 := startServer(t, cfg2)
	resp, rr = submit(t, s2, spec)
	if rr.Code != http.StatusCreated || resp.Jobs[0].State != schema.JobQueued {
		t.Fatalf("resubmit: %d %+v, want 201 queued", rr.Code, resp.Jobs)
	}
	s2.Drain()

	cfg3 := cfg
	cfg3.minDeadline, cfg3.deadlineFactor = 30*time.Second, 4
	s3 := startServer(t, cfg3)
	defer s3.Drain()
	if final := waitBatch(t, s3, resp.Batch, 30*time.Second); final.Jobs[0].State != schema.JobDone {
		t.Fatalf("after reboot the resubmitted job is %s (%s), want re-run and done", final.Jobs[0].State, final.Jobs[0].Error)
	}
}

// TestBootRefusesJournalSegments: a directory an older ccserve kept a
// write-ahead journal in holds queued work only those segments know
// about; boot refuses it rather than silently dropping that work.
func TestBootRefusesJournalSegments(t *testing.T) {
	cfg := testServerConfig(t, 0)
	if err := os.WriteFile(filepath.Join(cfg.out, "journal-host_1.jsonl"), []byte("{}\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := newServer(cfg); err == nil || !strings.Contains(err.Error(), "drain it with that binary") {
		t.Fatalf("boot over journal segments: %v, want a refusal naming the way out", err)
	}
}

// TestNameStaysOutOfTheKey: the key is the compiled run's, so two
// submissions that differ only in name are one run — the second is
// served without starting a simulation.
func TestNameStaysOutOfTheKey(t *testing.T) {
	s := startServer(t, testServerConfig(t, 1))
	defer s.Drain()
	first := runsDone(t, s, testSpec("alpha", 3))
	started := s.reg.Counter("runs_started").Load()
	second := runsDone(t, s, testSpec("beta", 3))
	if first.Key != second.Key {
		t.Fatalf("renamed spec keyed %s, want %s", second.Key, first.Key)
	}
	if got := s.reg.Counter("runs_started").Load(); got != started {
		t.Fatalf("renamed spec started %d runs, want none", got-started)
	}

	// Two names for one run in one batch: one job, one run.
	resp, rr := submit(t, s, testSpec("gamma", 5), testSpec("delta", 5))
	if rr.Code != http.StatusCreated {
		t.Fatalf("submit: %d: %s", rr.Code, rr.Body.String())
	}
	final := waitBatch(t, s, resp.Batch, 30*time.Second)
	if len(final.Jobs) != 1 || final.Jobs[0].State != schema.JobDone {
		t.Fatalf("batch of two names for one run: %+v, want one job done", final.Jobs)
	}
	if got := s.reg.Counter("runs_started").Load(); got != started+1 {
		t.Fatalf("two names for one run started %d runs, want 1", got-started)
	}
}

// TestConcurrentSubmitsOfOneRun: clients submitting one run at once
// admit it once, and each is answered only once its spec record is
// durable — whichever submit wrote it.
func TestConcurrentSubmitsOfOneRun(t *testing.T) {
	s := startServer(t, testServerConfig(t, 0))
	defer s.Drain()
	body, err := json.Marshal(schema.BatchRequest{SchemaVersion: schema.Version, Jobs: []schema.JobSpec{testSpec("dup", 1)}})
	if err != nil {
		t.Fatal(err)
	}
	key := mustBuildJob(t, testSpec("dup", 1)).key
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			rr := httptest.NewRecorder()
			s.Handler().ServeHTTP(rr, httptest.NewRequest("POST", "/v1/batches", bytes.NewReader(body)))
			if rr.Code != http.StatusCreated {
				t.Errorf("submit: %d: %s", rr.Code, rr.Body.String())
			} else if !s.Store.Has(key + specSuffix) {
				t.Error("answered 201 before the spec record was durable")
			}
		}()
	}
	wg.Wait()
	if d := s.pool.Depth(); d != 1 {
		t.Fatalf("one run submitted 8 times holds %d pool slots, want 1", d)
	}
}

// runsDone submits one spec and waits for it to resolve done.
func runsDone(t *testing.T, s *server, spec schema.JobSpec) schema.JobStatus {
	t.Helper()
	resp, rr := submit(t, s, spec)
	if rr.Code != http.StatusCreated {
		t.Fatalf("submit %s: %d: %s", spec.Name, rr.Code, rr.Body.String())
	}
	st := waitBatch(t, s, resp.Batch, 30*time.Second).Jobs[0]
	if st.State != schema.JobDone {
		t.Fatalf("job %s is %s (%s), want done", spec.Name, st.State, st.Error)
	}
	return st
}

// TestLeaseHeldByForeignOwnerServesItsCommit: a served job leases its
// run key, the same lease a reproduce run of the config takes. While a
// foreign owner holds it the job waits; once the owner commits and
// lets go, the job reports the run as served from the store.
func TestLeaseHeldByForeignOwnerServesItsCommit(t *testing.T) {
	cfg := testServerConfig(t, 1)
	cfg.leaseTTL = time.Minute // the holder stays live without heartbeating
	spec := testSpec("shared", 4)
	j := mustBuildJob(t, spec)
	other, err := store.NewLeases(cfg.out, "other-host-999", cfg.leaseTTL)
	if err != nil {
		t.Fatal(err)
	}
	held, err := other.Acquire(j.key)
	if err != nil {
		t.Fatal(err)
	}

	s := startServer(t, cfg)
	defer s.Drain()
	resp, rr := submit(t, s, spec)
	if rr.Code != http.StatusCreated {
		t.Fatalf("submit: %d: %s", rr.Code, rr.Body.String())
	}
	waitState(t, s, j.key, schema.JobRunning)

	// The holder computes and commits, then lets go.
	res, err := core.Run(j.cfg)
	if err != nil {
		t.Fatal(err)
	}
	payload, err := attempt.Record(res)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Store.Put(j.key, payload); err != nil {
		t.Fatal(err)
	}
	held.Release()

	st := waitBatch(t, s, resp.Batch, 30*time.Second).Jobs[0]
	if st.State != schema.JobDone || !st.Cached {
		t.Fatalf("job behind a foreign lease: %s cached=%v (%s), want done from the holder's commit", st.State, st.Cached, st.Error)
	}
	if n := s.reg.Counter("runs_started").Load(); n != 0 {
		t.Fatalf("job behind a foreign lease started %d runs, want 0", n)
	}
}

// waitState polls until the job keyed key reaches state.
func waitState(t *testing.T, s *server, key, state string) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for {
		s.mu.Lock()
		got := ""
		if j, ok := s.jobs[key]; ok {
			got = j.status.State
		}
		s.mu.Unlock()
		if got == state {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("job %s is %q, never %s", key, got, state)
		}
		time.Sleep(2 * time.Millisecond)
	}
}

func TestEventsStreamDeliversTerminalStatus(t *testing.T) {
	cfg := testServerConfig(t, 0)
	s := startServer(t, cfg)

	resp, rr := submit(t, s, testSpec("a", 1))
	if rr.Code != http.StatusCreated {
		t.Fatalf("submit: %d", rr.Code)
	}
	key := resp.Jobs[0].Key

	// Subscribe while queued, then let a late-started worker finish the
	// job; the stream must deliver the done transition and end.
	req := httptest.NewRequest("GET", "/v1/jobs/"+key+"/events", nil)
	rr2 := httptest.NewRecorder()
	streamDone := make(chan struct{})
	go func() {
		defer close(streamDone)
		s.Handler().ServeHTTP(rr2, req)
	}()
	time.Sleep(20 * time.Millisecond) // let the subscription register

	s.wg.Add(1)
	go s.workerLoop()

	select {
	case <-streamDone:
	case <-time.After(30 * time.Second):
		t.Fatal("event stream never terminated")
	}
	lines := bytes.Split(bytes.TrimSpace(rr2.Body.Bytes()), []byte("\n"))
	if len(lines) < 2 {
		t.Fatalf("stream delivered %d lines, want at least queued+done", len(lines))
	}
	var last struct {
		Type string           `json:"type"`
		Data schema.JobStatus `json:"data"`
	}
	sawRunning := false
	for _, ln := range lines {
		var ev struct {
			Type string          `json:"type"`
			Data json.RawMessage `json:"data"`
		}
		if err := json.Unmarshal(ln, &ev); err != nil {
			t.Fatalf("bad stream line %q: %v", ln, err)
		}
		if ev.Type != "status" {
			continue
		}
		if err := json.Unmarshal(ln, &last); err != nil {
			t.Fatalf("bad status line %q: %v", ln, err)
		}
		if last.Data.State == schema.JobRunning {
			sawRunning = true
		}
	}
	if last.Data.State != schema.JobDone {
		t.Fatalf("final streamed state %s, want done", last.Data.State)
	}
	if !sawRunning {
		t.Fatal("stream skipped the running transition")
	}
	s.Drain()
}

func TestMetricsCountRequests(t *testing.T) {
	s := startServer(t, testServerConfig(t, 0))
	defer s.Drain()

	do(t, s, "GET", "/healthz", nil, nil)
	do(t, s, "GET", "/healthz", nil, nil)
	var snap struct {
		Counters map[string]int64 `json:"counters"`
	}
	if rr := do(t, s, "GET", "/metricsz", nil, &snap); rr.Code != http.StatusOK {
		t.Fatalf("metricsz: %d", rr.Code)
	}
	if got := snap.Counters["http_requests_total/GET /healthz"]; got != 2 {
		t.Fatalf("healthz request counter = %d, want 2 (snapshot: %v)", got, snap.Counters)
	}
}

func TestHeartbeatValidationAtBoot(t *testing.T) {
	cfg := testServerConfig(t, 0)
	cfg.leaseTTL = 9 * time.Second
	cfg.leaseHeartbeat = 3 * time.Second
	if _, err := newServer(cfg); err == nil || !strings.Contains(err.Error(), "heartbeat") {
		t.Fatalf("newServer accepted heartbeat=ttl/3: %v", err)
	}
}

func TestSingletonLeaseRefusesSecondServer(t *testing.T) {
	cfg := testServerConfig(t, 0)
	cfg.leaseTTL = 500 * time.Millisecond
	cfg.leaseHeartbeat = 50 * time.Millisecond
	s := startServer(t, cfg)
	defer s.Drain()

	if _, err := newServer(cfg); err == nil || !strings.Contains(err.Error(), "already served") {
		t.Fatalf("second server on a live directory should refuse: %v", err)
	}
}

// TestDrainDuringLeaseWaitCheckpoints pins what an interrupted lease
// wait is: a checkpoint. The job's lease is held by another live owner
// when the server claims it, and the drain lands while the attempt is
// still polling — nothing ran, so nothing may be recorded as failed or
// charged as a strike, and the next boot runs the job.
func TestDrainDuringLeaseWaitCheckpoints(t *testing.T) {
	cfg := testServerConfig(t, 1)
	cfg.leaseTTL = time.Minute // the other owner stays live without heartbeating
	cfg.drainTimeout = 50 * time.Millisecond
	spec := testSpec("x", 1)
	key := mustBuildJob(t, spec).key

	other, err := store.NewLeases(cfg.out, "someone-else", cfg.leaseTTL)
	if err != nil {
		t.Fatal(err)
	}
	held, err := other.Acquire(key)
	if err != nil {
		t.Fatal(err)
	}

	s := startServer(t, cfg)
	resp, rr := submit(t, s, spec)
	if rr.Code != http.StatusCreated {
		t.Fatalf("submit: %d: %s", rr.Code, rr.Body.String())
	}
	// Running is the last transition before the lease wait.
	waitState(t, s, key, schema.JobRunning)
	s.Drain()

	if s.failureParked(key) {
		t.Fatal("a job interrupted while waiting for its lease parked a failure record")
	}
	if rec, ok := s.poisons.Get(key); ok {
		t.Fatalf("an interrupted lease wait was charged a strike: %+v", rec)
	}

	if err := held.Release(); err != nil {
		t.Fatal(err)
	}
	s2 := startServer(t, cfg)
	defer s2.Drain()
	final := waitBatch(t, s2, resp.Batch, 30*time.Second)
	if len(final.Jobs) != 1 || final.Jobs[0].State != schema.JobDone {
		t.Fatalf("after reboot with the lease free: %+v, want done", final.Jobs)
	}
}
