package main

import (
	"cmp"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"os"
	"path/filepath"
	"runtime/debug"
	"slices"
	"strconv"
	"strings"
	"sync"
	"time"

	"ccatscale/internal/attempt"
	"ccatscale/internal/budget"
	"ccatscale/internal/schema"
	"ccatscale/internal/store"
	"ccatscale/internal/telemetry"
)

// serverConfig is everything a server needs besides its output
// directory's current contents. Tests construct it directly; main fills
// it from flags.
type serverConfig struct {
	out     string
	workers int
	// slots bounds the admission pool: queued-plus-running jobs, and
	// therefore the channel capacity.
	slots int
	// queueBudget optionally bounds the aggregate *estimated* footprint
	// of admitted work (backpressure, not enforcement).
	queueBudget    *budget.Budget
	leaseTTL       time.Duration
	leaseHeartbeat time.Duration
	// deadlineFactor × estimated wall (floored at minDeadline) is each
	// job's wall-clock allowance.
	deadlineFactor float64
	minDeadline    time.Duration
	// poisonAfter is the strike count — attempts that ended without a
	// result, by a failed simulation or a dead worker — at which a
	// config is refused, across resubmissions and reboots, until an
	// operator removes its poison record.
	poisonAfter int
	// drainTimeout bounds how long SIGTERM waits for in-flight jobs
	// before cancelling their contexts and checkpointing them as queued.
	drainTimeout time.Duration
	// fleet selects process-isolated execution (see fleetConfig); nil
	// runs each attempt on the worker-loop goroutine itself.
	fleet *fleetConfig
	// bootCtx, when set, lets a shutdown signal interrupt boot recovery:
	// newServer checkpoints between boot phases and returns
	// errBootCanceled with the singleton released — the spec records
	// already hold every admitted job, so "checkpoint" is simply leaving
	// them for the next boot.
	bootCtx context.Context
	// bootHook is a test seam invoked after recovery and before the
	// worker pool starts — the window the startup/drain race lives in.
	bootHook func()
	fsys     store.FS
	stderr   io.Writer
}

// withDefaults fills unset fields. workers may be explicitly zero — an
// accept-and-record-only server, which tests use to hold jobs queued.
func (c *serverConfig) withDefaults() {
	if c.workers < 0 {
		c.workers = 0
	}
	if c.slots < 1 {
		c.slots = 64
	}
	if c.leaseTTL <= 0 {
		c.leaseTTL = 30 * time.Second
	}
	if c.leaseHeartbeat <= 0 {
		c.leaseHeartbeat = store.DefaultHeartbeat(c.leaseTTL)
	}
	if c.deadlineFactor <= 0 {
		c.deadlineFactor = 4
	}
	if c.minDeadline <= 0 {
		c.minDeadline = 15 * time.Second
	}
	if c.poisonAfter < 1 {
		c.poisonAfter = 3
	}
	if c.drainTimeout <= 0 {
		c.drainTimeout = 30 * time.Second
	}
	if c.fsys == nil {
		c.fsys = store.OSFS()
	}
	if c.stderr == nil {
		c.stderr = os.Stderr
	}
}

// singletonJob is the lease name that makes one server the exclusive
// owner of an output directory. Exclusivity is what lets boot read the
// store's spec records as the whole queue, with no other server adding
// to it or draining it meanwhile.
const singletonJob = "ccserve-singleton"

// errBootCanceled reports a boot interrupted by the shutdown signal:
// nothing was lost — the spec records are the checkpoint — and the
// process should exit 0.
var errBootCanceled = errors.New("ccserve: boot interrupted by shutdown signal; admitted jobs stay recorded in the store")

// server is the simulation-as-a-service process state.
type server struct {
	cfg serverConfig
	// Env is the server's own store and lease handles — what admission
	// consults, and what an -inprocess attempt runs on.
	attempt.Env
	// poisons is the strike ledger: one record per config with attempts
	// that ended without a result.
	poisons *store.Poisons
	lease   *store.Lease // the singleton
	pool    *budget.Pool
	reg     *telemetry.Registry
	owner   string
	fleet   *fleetState // nil in in-process mode

	mu       sync.Mutex
	jobs     map[string]*job     // by run key
	batches  map[string][]string // batch id → member keys, submission order
	draining bool

	queue     chan *job
	drainOnce sync.Once
	drainCh   chan struct{} // closed at drain: workers stop picking up work
	runCtx    context.Context
	cancel    context.CancelFunc // cancels in-flight runs past the drain grace
	wg        sync.WaitGroup     // worker loops
	// stopBeat ends the singleton lease's keep-alive (a no-op until boot
	// has come far enough to start it).
	stopBeat func()
}

// newServer opens the output directory, rebuilds the job table from the
// store's spec records, re-queues unfinished work, and starts the worker
// pool. The returned server is ready to have its handler attached to a
// listener.
func newServer(cfg serverConfig) (*server, error) {
	cfg.withDefaults()
	if err := store.ValidateHeartbeat(cfg.leaseHeartbeat, cfg.leaseTTL); err != nil {
		return nil, err
	}
	fsys := cfg.fsys
	st, err := store.OpenFS(filepath.Join(cfg.out, "store"), fsys)
	if err != nil {
		return nil, err
	}
	if err := refuseJournal(fsys, cfg.out); err != nil {
		return nil, err
	}
	owner := store.ProcessOwner()
	leases, err := store.NewLeasesFS(fsys, cfg.out, owner, cfg.leaseTTL)
	if err != nil {
		return nil, err
	}
	// Become the directory's only server. A predecessor that crashed
	// holds a lease that goes stale within one TTL; wait it out rather
	// than failing a restart-after-crash, but refuse a live holder.
	single, err := acquireSingleton(leases, cfg.leaseTTL, cfg.bootCtx)
	if err != nil {
		return nil, err
	}

	s := &server{
		cfg: cfg,
		Env: attempt.Env{
			Out: cfg.out, FS: fsys, Leases: leases, Store: st, Stderr: cfg.stderr,
			Heartbeat: cfg.leaseHeartbeat,
		},
		lease:    single,
		pool:     budget.NewPool(cfg.queueBudget, cfg.slots, cfg.workers),
		reg:      telemetry.NewRegistry(),
		owner:    owner,
		jobs:     map[string]*job{},
		batches:  map[string][]string{},
		drainCh:  make(chan struct{}),
		stopBeat: func() {},
	}
	s.runCtx, s.cancel = context.WithCancel(context.Background())
	// bootCanceled checks the shutdown signal between boot phases: a
	// SIGTERM during recovery must checkpoint and exit cleanly, not
	// plow on into starting workers (the startup/drain race).
	bootCanceled := func() bool { return cfg.bootCtx != nil && cfg.bootCtx.Err() != nil }
	if bootCanceled() {
		s.releaseSingleton()
		return nil, errBootCanceled
	}
	if s.poisons, err = store.OpenPoisonsFS(fsys, cfg.out); err != nil {
		s.releaseSingleton()
		return nil, err
	}
	if cfg.fleet != nil {
		fc := *cfg.fleet
		if err := fc.withDefaults(); err != nil {
			s.releaseSingleton()
			return nil, err
		}
		s.fleet = &fleetState{cfg: fc, workers: map[int]schema.WorkerHealth{}}
	}

	recovered, err := s.recoverJobs()
	if err != nil {
		s.releaseSingleton()
		return nil, fmt.Errorf("ccserve: reading spec records: %w", err)
	}
	// The queue is created only now, sized to hold every recovered job:
	// no worker is running yet, so a channel smaller than the recovered
	// backlog (a restart with fewer -slots than the dead process had in
	// flight) would deadlock boot while holding the singleton lease.
	s.queue = make(chan *job, max(cfg.slots, len(recovered)))
	for _, j := range recovered {
		// Force, not Admit: the previous process already promised to
		// run these. Bouncing them at reboot would turn a crash into
		// silently dropped work.
		s.pool.Force(j.fp)
		s.queue <- j
	}
	if len(recovered) > 0 {
		fmt.Fprintf(cfg.stderr, "ccserve: recovered %d unfinished jobs from the store\n", len(recovered))
	}

	if cfg.bootHook != nil {
		cfg.bootHook()
	}
	// Last checkpoint before anything starts running: a SIGTERM that
	// landed anywhere during recovery exits here with the re-queued
	// work still recorded — the next boot recovers it identically.
	if bootCanceled() {
		s.releaseSingleton()
		return nil, errBootCanceled
	}

	// Keep the singleton alive for the server's lifetime. Losing the
	// directory (or the disk) stops new work; in-flight jobs commit
	// through the idempotent store, which stays safe under a usurper.
	s.stopBeat = single.KeepAlive(cfg.leaseHeartbeat, s.setDraining)

	for w := 0; w < cfg.workers; w++ {
		s.wg.Add(1)
		go s.workerLoop()
	}
	return s, nil
}

// refuseJournal refuses an output directory an older ccserve kept a
// write-ahead journal in: its queued work lives only in those segments,
// and serving the directory without them would silently drop it.
func refuseJournal(fsys store.FS, out string) error {
	ents, err := fsys.ReadDir(out)
	if err != nil {
		return err
	}
	for _, e := range ents {
		if name := e.Name(); strings.HasPrefix(name, "journal") && strings.HasSuffix(name, ".jsonl") {
			return fmt.Errorf("ccserve: %s holds write-ahead journal segments (%s) from an older ccserve: drain it with that binary, then remove them", out, name)
		}
	}
	return nil
}

// acquireSingleton claims the server lease, waiting out a stale
// predecessor for up to ttl plus a margin. A shutdown signal during
// the wait aborts boot cleanly instead of finishing the claim.
func acquireSingleton(leases *store.Leases, ttl time.Duration, bootCtx context.Context) (*store.Lease, error) {
	if bootCtx == nil {
		bootCtx = context.Background()
	}
	ctx, cancel := context.WithTimeout(bootCtx, ttl+2*time.Second)
	defer cancel()
	l, err := leases.AcquireWait(ctx, singletonJob, 200*time.Millisecond)
	if err == nil || !errors.Is(err, store.ErrLeaseHeld) {
		return l, err
	}
	if bootCtx.Err() != nil {
		return nil, errBootCanceled
	}
	return nil, fmt.Errorf("ccserve: output directory already served: %w", err)
}

// releaseSingleton gives the directory up; idempotent.
func (s *server) releaseSingleton() {
	s.stopBeat()
	s.lease.Release()
}

// recoverJobs rebuilds the job table from the store's spec records,
// with the frontier rule cmd/reproduce uses: a job whose run is stored
// is done, one whose config has used up its strikes is poisoned, one
// with a parked failure record failed, and the rest — admitted work no
// attempt finished — is returned to be re-queued.
func (s *server) recoverJobs() ([]*job, error) {
	keys, err := s.Store.Keys()
	if err != nil {
		return nil, err
	}
	var queued []*job
	for _, k := range keys {
		key, ok := strings.CutSuffix(k, specSuffix)
		if !ok {
			continue
		}
		var rec specRecord
		data, err := s.Store.Get(k)
		if err == nil {
			err = json.Unmarshal(data, &rec)
		}
		var j *job
		if err == nil {
			j, err = buildJob(rec.Spec)
		}
		if err == nil && j.key != key {
			err = fmt.Errorf("its spec compiles to run %s", j.key)
		}
		if err != nil {
			fmt.Fprintf(s.cfg.stderr, "ccserve: skipping spec record %s: %v\n", k, err)
			continue
		}
		s.jobs[key] = j
		s.addToBatch(rec.Batch, key)
		refused := s.refusal(key)
		switch {
		case s.Store.Has(key):
			j.status.State, j.status.Cached = schema.JobDone, true
		case refused != "":
			j.status.State, j.status.Error = schema.JobPoisoned, refused
		case s.failureParked(key):
			j.status.State = schema.JobFailed
			j.status.Error = "failed before a restart; replay " + attempt.FailureFile(key)
		default:
			queued = append(queued, j)
		}
	}
	return queued, nil
}

// refusal says why key's config is refused — its poison record holds
// -poison-after strikes — or "" when it may run.
func (s *server) refusal(key string) string {
	rec, ok := s.poisons.Get(key)
	if !ok || rec.Strikes < s.cfg.poisonAfter {
		return ""
	}
	return poisonMsg(rec.Strikes, rec.Reason)
}

func poisonMsg(strikes int, reason string) string {
	return fmt.Sprintf("poisoned after %d strikes: %s", strikes, reason)
}

// failureParked reports whether an attempt parked a failure record for
// key that no resubmission has retired.
func (s *server) failureParked(key string) bool {
	_, err := s.FS.Stat(filepath.Join(s.cfg.out, attempt.FailureFile(key)))
	return err == nil
}

func (s *server) addToBatch(batch, key string) {
	for _, k := range s.batches[batch] {
		if k == key {
			return
		}
	}
	s.batches[batch] = append(s.batches[batch], key)
}

// Handler returns the server's HTTP surface, instrumented per route
// into the registry that /metricsz snapshots.
func (s *server) Handler() http.Handler {
	mux := http.NewServeMux()
	route := func(pattern string, h http.HandlerFunc) {
		mux.Handle(pattern, telemetry.HTTPMetrics(s.reg, pattern, h))
	}
	route("POST /v1/batches", s.handleSubmit)
	route("GET /v1/batches/{id}", s.handleBatch)
	route("GET /v1/jobs/{key}", s.handleJob)
	route("GET /v1/jobs/{key}/events", s.handleEvents)
	route("GET /healthz", s.handleHealth)
	route("GET /metricsz", s.handleMetrics)
	return mux
}

func writeJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	enc.Encode(v) //nolint:errcheck // client went away
}

func writeError(w http.ResponseWriter, code int, msg string) {
	writeJSON(w, code, schema.ErrorResponse{SchemaVersion: schema.Version, Error: msg})
}

// handleSubmit admits a batch of scenarios. Admission is all-or-nothing
// against the pool: a full queue bounces the whole batch with 429 and
// an honest Retry-After instead of queueing unboundedly or admitting a
// torso of the batch.
func (s *server) handleSubmit(w http.ResponseWriter, r *http.Request) {
	var req schema.BatchRequest
	body := http.MaxBytesReader(w, r.Body, 4<<20)
	if err := json.NewDecoder(body).Decode(&req); err != nil {
		writeError(w, http.StatusBadRequest, "decoding request: "+err.Error())
		return
	}
	if err := schema.Check(req.SchemaVersion); err != nil {
		writeError(w, http.StatusBadRequest, err.Error())
		return
	}
	if len(req.Jobs) == 0 {
		writeError(w, http.StatusBadRequest, "batch has no jobs")
		return
	}
	built := make([]*job, len(req.Jobs))
	keys := make([]string, len(req.Jobs))
	for i := range req.Jobs {
		j, err := buildJob(req.Jobs[i])
		if err != nil {
			writeError(w, http.StatusBadRequest, err.Error())
			return
		}
		built[i] = j
		keys[i] = j.key
	}
	batch := batchID(keys)

	rec := &recording{done: make(chan struct{})}
	promised, pending, ok := s.admitBatch(w, built, batch, rec)
	if !ok {
		return
	}
	// The promise, outside the lock: the queued members' first attempts
	// are already under way while their spec records become durable, and
	// the answer waits for both these records and those of members another
	// submit is still recording.
	for _, j := range promised {
		spec, _ := json.Marshal(specRecord{Spec: j.spec, Batch: batch}) // plain data: cannot fail
		if err := s.Store.Put(j.key+specSuffix, spec); err != nil {
			rec.err = cmp.Or(rec.err, fmt.Errorf("spec record: %w", err))
		}
	}
	close(rec.done)
	err := rec.err
	for _, other := range pending {
		<-other.done
		err = cmp.Or(err, other.err)
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if err != nil {
		// Nothing more can be promised durably. Members whose record
		// failed still run while this process lives.
		writeError(w, http.StatusInternalServerError, err.Error())
		return
	}
	writeJSON(w, http.StatusCreated, s.batchResponseLocked(batch))
}

// recording is one submit's spec records in flight: done is closed once
// they are written, err holding the first failure.
type recording struct {
	done chan struct{}
	err  error
}

// admitBatch decides every member's disposition under the lock — all
// or nothing against the pool — and queues the batch's new work at
// once. It returns the members new to this process, queued or served
// from the store, whose spec records the caller writes under rec, and
// the recordings of members another submit is still recording; on
// false it has answered the request.
func (s *server) admitBatch(w http.ResponseWriter, built []*job, batch string, rec *recording) (promised []*job, pending []*recording, ok bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.draining {
		writeError(w, http.StatusServiceUnavailable, "server is draining")
		return nil, nil, false
	}

	// Two passes: decide every member's disposition, reserving pool
	// capacity as needed; only once the whole batch fits does anything
	// touch the store or the queue.
	const (
		dispQueue  = iota // new work, or a failed job's retry: queue + spec record
		dispCached        // result already in the store
		dispDedupe        // existing job (queued, running or terminal): no new work
		dispPoison        // config used up its strikes: structured refusal, no admission
	)
	disp := make([]int, len(built))
	refused := make([]string, len(built))
	var admitted []budget.Footprint
	// Nothing is queued before the last way to refuse the batch, so a
	// refusal releases every footprint admitted; a queued job releases
	// its own at completion.
	rollback := func() {
		for _, fp := range admitted {
			s.pool.Release(fp)
		}
	}
	seen := make(map[string]bool, len(built))
	for i, b := range built {
		// A failed job resubmitted is an explicit retry; anything else
		// already known — or earlier in this batch under another name —
		// is the same job.
		if ex, ok := s.jobs[b.key]; seen[b.key] || ok && ex.status.State != schema.JobFailed {
			disp[i] = dispDedupe
			continue
		}
		seen[b.key] = true
		// A refused config is turned away before any capacity is
		// reserved: resubmission does not clear its strikes.
		if msg := s.refusal(b.key); msg != "" {
			disp[i], refused[i] = dispPoison, msg
			continue
		}
		if s.Store.Has(b.key) {
			disp[i] = dispCached
			continue
		}
		if err := s.pool.Admit(b.fp); err != nil {
			rollback()
			s.reject(w, err)
			return nil, nil, false
		}
		admitted = append(admitted, b.fp)
		disp[i] = dispQueue
	}
	// A failed job resubmitted has its failure record retired before
	// anything can run it again, so that a crash after the answer re-runs
	// the job instead of reporting the old failure, and a new failure is
	// never the one retired.
	for i, b := range built {
		if _, retry := s.jobs[b.key]; retry && disp[i] == dispQueue {
			if err := s.retireFailure(b.key); err != nil {
				rollback()
				writeError(w, http.StatusInternalServerError, err.Error())
				return nil, nil, false
			}
		}
	}

	for i, b := range built {
		switch disp[i] {
		case dispQueue:
			j := b
			if ex := s.jobs[b.key]; ex != nil {
				// The retry's footprint must be the one just admitted, so
				// that the Release at completion balances.
				ex.fp, ex.attempts = b.fp, 0
				s.transition(ex, schema.JobQueued, "")
				j = ex
			}
			s.jobs[b.key] = j
			j.rec = rec
			s.queue <- j
			promised = append(promised, j)
		case dispDedupe:
			if r := s.jobs[b.key].rec; r != nil && r != rec && !slices.Contains(pending, r) {
				pending = append(pending, r)
			}
		case dispCached:
			b.status.State, b.status.Cached = schema.JobDone, true
			s.jobs[b.key] = b
			b.rec = rec
			promised = append(promised, b)
		case dispPoison:
			b.status.State, b.status.Error = schema.JobPoisoned, refused[i]
			s.jobs[b.key] = b
		}
		s.addToBatch(batch, b.key)
	}
	return promised, pending, true
}

// retireFailure removes key's parked failure record, if it has one.
func (s *server) retireFailure(key string) error {
	err := s.FS.Remove(filepath.Join(s.cfg.out, attempt.FailureFile(key)))
	if os.IsNotExist(err) {
		return nil
	}
	if err != nil {
		return fmt.Errorf("retiring failure record: %w", err)
	}
	return s.FS.SyncDir(s.cfg.out)
}

// reject writes the 429 for a pool rejection (or a 500 for anything
// else); the caller holds s.mu.
func (s *server) reject(w http.ResponseWriter, err error) {
	var qe *budget.QueueError
	if !errors.As(err, &qe) {
		writeError(w, http.StatusInternalServerError, err.Error())
		return
	}
	retry := int(qe.RetryAfter.Round(time.Second).Seconds())
	if retry < 1 {
		retry = 1
	}
	w.Header().Set("Retry-After", strconv.Itoa(retry))
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(http.StatusTooManyRequests)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	enc.Encode(schema.ErrorResponse{ //nolint:errcheck
		SchemaVersion: schema.Version,
		Error:         qe.Error(),
		RetryAfterS:   float64(retry),
	})
}

// batchResponseLocked renders a batch's members; the caller holds s.mu.
func (s *server) batchResponseLocked(batch string) schema.BatchResponse {
	resp := schema.BatchResponse{SchemaVersion: schema.Version, Batch: batch}
	for _, k := range s.batches[batch] {
		if j, ok := s.jobs[k]; ok {
			resp.Jobs = append(resp.Jobs, j.status)
		}
	}
	return resp
}

func (s *server) handleBatch(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	s.mu.Lock()
	defer s.mu.Unlock()
	if _, ok := s.batches[id]; !ok {
		writeError(w, http.StatusNotFound, "no such batch")
		return
	}
	writeJSON(w, http.StatusOK, s.batchResponseLocked(id))
}

func (s *server) handleJob(w http.ResponseWriter, r *http.Request) {
	key := r.PathValue("key")
	s.mu.Lock()
	j, ok := s.jobs[key]
	if !ok {
		s.mu.Unlock()
		writeError(w, http.StatusNotFound, "no such job")
		return
	}
	st := j.status
	s.mu.Unlock()
	writeJSON(w, http.StatusOK, st)
}

// handleEvents streams a job's progress as JSONL: one line per status
// transition (plus selected run telemetry), until the job is terminal
// or the client goes away. Subscriber channels are bounded; a slow
// client drops intermediate telemetry, never blocks the worker.
func (s *server) handleEvents(w http.ResponseWriter, r *http.Request) {
	key := r.PathValue("key")
	s.mu.Lock()
	j, ok := s.jobs[key]
	if !ok {
		s.mu.Unlock()
		writeError(w, http.StatusNotFound, "no such job")
		return
	}
	first := eventLine("status", j.status)
	var ch chan []byte
	terminal := schema.JobTerminal(j.status.State)
	if !terminal {
		ch = make(chan []byte, 64)
		j.subs = append(j.subs, ch)
	}
	s.mu.Unlock()

	w.Header().Set("Content-Type", "application/x-ndjson")
	w.WriteHeader(http.StatusOK)
	w.Write(first) //nolint:errcheck
	flush(w)
	if terminal {
		return
	}
	defer s.unsubscribe(key, ch)
	for {
		select {
		case <-r.Context().Done():
			return
		case <-s.runCtx.Done():
			return
		case line, open := <-ch:
			if !open {
				return
			}
			if _, err := w.Write(line); err != nil {
				return
			}
			flush(w)
		}
	}
}

func flush(w http.ResponseWriter) {
	if f, ok := w.(http.Flusher); ok {
		f.Flush()
	}
}

func eventLine(typ string, v any) []byte {
	line, err := json.Marshal(struct {
		Type string `json:"type"`
		Data any    `json:"data"`
	}{typ, v})
	if err != nil {
		return nil
	}
	return append(line, '\n')
}

func (s *server) unsubscribe(key string, ch chan []byte) {
	s.mu.Lock()
	defer s.mu.Unlock()
	j, ok := s.jobs[key]
	if !ok {
		return
	}
	for i, c := range j.subs {
		if c == ch {
			j.subs = append(j.subs[:i], j.subs[i+1:]...)
			return
		}
	}
}

// publish sends one event line to a job's subscribers, dropping for
// slow ones; the caller holds s.mu.
func (s *server) publish(j *job, line []byte) {
	if line == nil {
		return
	}
	for _, ch := range j.subs {
		select {
		case ch <- line:
		default: // slow subscriber: drop rather than block the worker
		}
	}
}

// transition moves a job to a new state and notifies subscribers,
// closing their streams on terminal states; the caller holds s.mu.
func (s *server) transition(j *job, state, errMsg string) {
	j.status.State = state
	j.status.Error = errMsg
	j.status.Attempts = j.attempts
	s.publish(j, eventLine("status", j.status))
	if schema.JobTerminal(state) {
		for _, ch := range j.subs {
			close(ch)
		}
		j.subs = nil
	}
}

// handleHealth answers both probe questions. Readiness (the default)
// mirrors the server state in the HTTP code: 200 ready, 503 draining.
// Liveness (?probe=live) answers 200 whenever the process responds at
// all — a draining server is alive and mid-checkpoint; restarting it
// because a readiness-shaped probe said 503 would be the supervisor
// loop sabotaging the drain protocol.
func (s *server) handleHealth(w http.ResponseWriter, r *http.Request) {
	s.mu.Lock()
	resp := schema.HealthResponse{SchemaVersion: schema.Version, State: schema.ServerReady, Live: true}
	if s.draining {
		resp.State = schema.ServerDraining
	}
	resp.Ready = resp.State == schema.ServerReady
	for _, j := range s.jobs {
		switch j.status.State {
		case schema.JobQueued:
			resp.Queued++
		case schema.JobRunning:
			resp.Running++
		}
	}
	s.mu.Unlock()
	if s.fleet != nil {
		resp.Workers = s.fleet.list()
		resp.Fleet = s.fleetCounters()
	}
	code := http.StatusOK
	if !resp.Ready && r.URL.Query().Get("probe") != "live" {
		code = http.StatusServiceUnavailable
	}
	writeJSON(w, code, resp)
}

func (s *server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, s.reg.Snapshot())
}

// workerLoop claims queued jobs until drain. In fleet mode it is a
// runner: the warm worker it keeps between jobs is reaped when it
// returns, so a drain leaves no worker process behind.
func (s *server) workerLoop() {
	defer s.wg.Done()
	var r runner
	defer r.close()
	for {
		select {
		case <-s.drainCh:
			return
		case j := <-s.queue:
			select {
			case <-s.drainCh:
				// Drained between dequeue and start: the job keeps its
				// spec record and runs at next boot.
				return
			default:
			}
			s.runJob(&r, j)
		}
	}
}

// runJob executes one claimed job end to end, the same way in both
// modes: refusal and cache checks, then attempts until one delivers a
// verdict. An attempt is a dispatch to a supervised worker subprocess —
// r's warm worker, or one of its own — when a fleet is configured, and a
// direct call otherwise; either way it leases the run key itself, so a
// ccserve attempt and a reproduce run of one config see each other's
// claim. Every attempt that ends without a result is a strike in the
// config's poison record: a failed simulation resolves the job failed, a
// dead worker (only a subprocess can die without a verdict) is retried
// under crash-loop backoff, and the -poison-after-th strike poisons the
// config. Its panic net mirrors cmd/reproduce's — the simulation
// supervisor catches simulation panics, this catches everything around
// them.
func (s *server) runJob(r *runner, j *job) {
	defer func() {
		if r := recover(); r != nil {
			fmt.Fprintf(s.cfg.stderr, "ccserve: job %s: panic outside supervisor: %v\n%s", j.spec.Name, r, debug.Stack())
			s.mu.Lock()
			s.resolve(j, schema.JobFailed, fmt.Sprintf("panic outside supervisor: %v", r))
			s.mu.Unlock()
		}
	}()
	f := s.fleet

	// A config that used up its strikes never runs (nor spawns a
	// process) again.
	rec, _ := s.poisons.Get(j.key)
	if rec.Strikes >= s.cfg.poisonAfter {
		s.mu.Lock()
		s.resolve(j, schema.JobPoisoned, poisonMsg(rec.Strikes, rec.Reason))
		s.mu.Unlock()
		return
	}
	strikes := rec.Strikes

	// Serve from the store before computing: a previous process, or a
	// reproduce run of the same config, may have committed the run.
	if s.Store.Has(j.key) {
		s.deliver(j, schema.WorkerOutcome{Cached: true}, strikes)
		return
	}

	s.mu.Lock()
	j.attempts++
	s.transition(j, schema.JobRunning, "")
	s.mu.Unlock()

	deadline := j.deadline(s.cfg.deadlineFactor, s.cfg.minDeadline)
	// A drain (or server-wide cancel) interrupting the job is a
	// checkpoint, not a failure: no strike, its spec record stands, and
	// the next boot re-runs the job. The store stayed untouched, so the
	// re-run commits the same bytes the uninterrupted run would have.
	checkpoint := func() {
		s.mu.Lock()
		j.status.State = schema.JobQueued
		s.mu.Unlock()
	}

	for {
		var res spawnRes
		if f != nil {
			res = s.fleetAttempt(r, j, deadline)
		} else {
			cfg := j.cfg
			cfg.Collector = telemetry.Multi(s.reg.Instrument(), s.subscriberCollector(j))
			o, _ := attempt.Run(s.runCtx, s.Env, j.key, cfg, deadline)
			res.outcome = &o
		}
		reason, failed := "worker crashed", false
		if o := res.outcome; o != nil {
			switch o.State {
			case schema.WorkerDone:
				s.deliver(j, *o, strikes)
				return
			case schema.WorkerCheckpoint:
				if s.isDraining() || s.runCtx.Err() != nil {
					checkpoint()
					return
				}
				// A checkpoint outside a drain means something external
				// terminated the worker (or the hang guard fired). The run
				// committed nothing; treat it as a crash and respawn.
				res.err = errors.New("worker checkpointed outside a drain")
			default:
				reason, failed = o.Error, true
			}
		}
		if res.err != nil {
			reason = res.err.Error()
		}

		strikes++
		if err := s.poisons.Mark(store.PoisonRecord{Key: j.key, Job: j.spec.Name, Reason: reason, Strikes: strikes}); err != nil {
			fmt.Fprintf(s.cfg.stderr, "ccserve: recording strike %d of %s: %v\n", strikes, j.key, err)
		}
		switch {
		case strikes >= s.cfg.poisonAfter:
			s.reg.Counter("fleet_poisoned").Inc()
			s.mu.Lock()
			s.resolve(j, schema.JobPoisoned, poisonMsg(strikes, reason))
			s.mu.Unlock()
			return
		case failed:
			s.mu.Lock()
			s.resolve(j, schema.JobFailed, reason)
			s.mu.Unlock()
			return
		}
		s.reg.Counter("fleet_restarts").Inc()
		fmt.Fprintf(s.cfg.stderr, "ccserve: job %s: %s (strike %d/%d), backing off\n",
			j.spec.Name, reason, strikes, s.cfg.poisonAfter)
		wait := f.cfg.backoffBase << (strikes - 1)
		if wait <= 0 || wait > f.cfg.backoffMax {
			wait = f.cfg.backoffMax
		}
		select {
		case <-s.drainCh:
			checkpoint()
			return
		case <-s.runCtx.Done():
			checkpoint()
			return
		case <-time.After(wait):
		}
	}
}

// resolve moves a job to a terminal state: release pool capacity,
// notify. What the job's spec record resolves to after a restart —
// done, failed or poisoned — is already in the store, the failure
// record and the poison record. The caller holds s.mu.
func (s *server) resolve(j *job, state, msg string) {
	s.pool.Release(j.fp)
	s.transition(j, state, msg)
}

// deliver resolves j done — computed by the attempt that reported o, or
// found already in the store — and clears the strikes its config held:
// a delivered result proves the config runs.
func (s *server) deliver(j *job, o schema.WorkerOutcome, strikes int) {
	if strikes > 0 {
		if err := s.poisons.Clear(j.key); err != nil {
			fmt.Fprintf(s.cfg.stderr, "ccserve: clearing the strikes of %s: %v\n", j.key, err)
		}
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	j.status.WallMs, j.status.Cached = o.WallMs, o.Cached
	s.resolve(j, schema.JobDone, "")
}

// subscriberCollector forwards a thin slice of run telemetry to the
// job's event-stream subscribers: run lifecycle and link outages, not
// the per-packet firehose.
func (s *server) subscriberCollector(j *job) telemetry.Collector {
	return telemetry.CollectorFunc(func(ev telemetry.Event) {
		switch ev.Kind {
		case telemetry.KindRunStart, telemetry.KindRunEnd,
			telemetry.KindLinkDown, telemetry.KindLinkUp:
		default:
			return
		}
		line := eventLine("telemetry", map[string]any{
			"kind":  ev.Kind.String(),
			"label": ev.Label,
			"a":     ev.A,
			"b":     ev.B,
		})
		s.mu.Lock()
		s.publish(j, line)
		s.mu.Unlock()
	})
}

// setDraining flips the server to draining (healthz 503, submits 503).
func (s *server) setDraining() {
	s.mu.Lock()
	s.draining = true
	s.mu.Unlock()
}

// Drain performs the graceful-shutdown protocol: stop admitting, let
// workers finish within the grace period, then cancel what remains —
// cancelled jobs keep their spec records and re-run at next boot. Idempotent; calls after the first return immediately.
func (s *server) Drain() {
	s.drainOnce.Do(s.drain)
}

func (s *server) drain() {
	s.setDraining()
	close(s.drainCh)
	done := make(chan struct{})
	go func() {
		s.wg.Wait()
		close(done)
	}()
	select {
	case <-done:
	case <-time.After(s.cfg.drainTimeout):
		s.cancel()
		<-done
	}
	s.cancel()
	s.releaseSingleton()
}
