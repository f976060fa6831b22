package main

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"os"
	"path/filepath"
	"runtime/debug"
	"strconv"
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
	// therefore the channel capacity and the journal growth per boot.
	slots int
	// queueBudget optionally bounds the aggregate *estimated* footprint
	// of admitted work (backpressure, not enforcement).
	queueBudget *budget.Budget
	// retries is the reduced-fidelity retry allowance per execution
	// attempt (the degradation ladder inside one RunManyCtx call).
	retries        int
	leaseTTL       time.Duration
	leaseHeartbeat time.Duration
	// deadlineFactor × estimated wall (floored at minDeadline) is each
	// job's wall-clock allowance.
	deadlineFactor float64
	minDeadline    time.Duration
	// breakerAfter is the consecutive-failure count that quarantines a
	// config hash.
	breakerAfter int
	// drainTimeout bounds how long SIGTERM waits for in-flight jobs
	// before cancelling their contexts and checkpointing them as queued.
	drainTimeout time.Duration
	// fleet selects process-isolated execution (see fleetConfig); nil
	// runs each attempt on the worker-loop goroutine itself.
	fleet *fleetConfig
	// bootCtx, when set, lets a shutdown signal interrupt boot recovery:
	// newServer checkpoints between boot phases and returns
	// errBootCanceled with the singleton released and the journal closed
	// — the WAL-first design means "checkpoint" is simply leaving the
	// pending records for the next boot.
	bootCtx context.Context
	// bootHook is a test seam invoked after recovery and before the
	// worker pool starts — the window the startup/drain race lives in.
	bootHook func()
	fsys     store.FS
	stderr   io.Writer
}

// withDefaults fills unset fields. workers may be explicitly zero — an
// accept-and-journal-only server, which tests use to hold jobs queued.
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
	if c.breakerAfter < 1 {
		c.breakerAfter = 3
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
// owner of an output directory. Exclusivity is what makes boot-time
// journal compaction safe and the ≤1-OpDone-per-key invariant local
// reasoning instead of a distributed-systems problem.
const singletonJob = "ccserve-singleton"

// errBootCanceled reports a boot interrupted by the shutdown signal:
// nothing was lost — the journal's pending records are the checkpoint —
// and the process should exit 0.
var errBootCanceled = errors.New("ccserve: boot interrupted by shutdown signal; state checkpointed in the journal")

// server is the simulation-as-a-service process state.
type server struct {
	cfg serverConfig
	// Env is the server's own store and lease handles — what admission
	// consults, and what an -inprocess attempt runs on.
	attempt.Env
	jnl   *store.Journal
	lease *store.Lease // the singleton
	pool  *budget.Pool
	reg   *telemetry.Registry
	owner string
	fleet *fleetState // nil in in-process mode

	mu       sync.Mutex
	jobs     map[string]*job     // by result key
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

// newServer opens the output directory, compacts and replays the
// journal, re-admits unfinished work, and starts the worker pool. The
// returned server is ready to have its handler attached to a listener.
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
			Retries: cfg.retries, Heartbeat: cfg.leaseHeartbeat,
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

	if cfg.fleet != nil {
		fc := *cfg.fleet
		if err := fc.withDefaults(); err != nil {
			s.releaseSingleton()
			return nil, err
		}
		poisons, err := store.OpenPoisonsFS(fsys, cfg.out)
		if err != nil {
			s.releaseSingleton()
			return nil, err
		}
		s.fleet = &fleetState{cfg: fc, poisons: poisons, workers: map[int]schema.WorkerHealth{}}
	}

	// With exclusive ownership established, bound the WAL: segments
	// whose work is all resolved shrink to their outcome frontier, so a
	// server that has served a million requests replays thousands of
	// records, not millions.
	if dropped, err := store.CompactJournalSet(fsys, cfg.out); err != nil {
		s.releaseSingleton()
		return nil, fmt.Errorf("ccserve: compacting journal: %w", err)
	} else if dropped > 0 {
		fmt.Fprintf(cfg.stderr, "ccserve: journal compaction dropped %d resolved records\n", dropped)
	}

	// Replay the WAL: rebuild every job's last known state, then
	// re-admit whatever was queued or claimed when the last process
	// died. Segments replay in lexicographic — not chronological —
	// order, so replay derives state commutatively from generations,
	// as OpenJournalSet's contract requires.
	jnl, _, err := store.OpenJournalSet(fsys, cfg.out, owner, s.replay)
	if err != nil {
		s.releaseSingleton()
		return nil, err
	}
	s.jnl = jnl
	var recovered []*job
	for _, j := range s.jobs {
		if schema.JobTerminal(j.status.State) {
			continue
		}
		// A recovered job whose config was poisoned (worker deaths in a
		// previous life) must not re-run: resolve it now so the WAL
		// frontier closes instead of re-queueing it every boot. The
		// Force/Release pair keeps the pool ledger balanced — jobPoisoned
		// releases what normal recovery would have forced.
		if s.fleet != nil {
			if rec, ok := s.fleet.poisons.Get(j.key); ok {
				s.pool.Force(j.fp)
				s.jobPoisoned(j, fmt.Sprintf("config poisoned after %d worker crashes: %s", rec.Strikes, rec.Reason))
				continue
			}
		}
		j.status.State = schema.JobQueued
		recovered = append(recovered, j)
	}
	// The queue is created only now, sized to hold every recovered job:
	// no worker is running yet, so a channel smaller than the recovered
	// backlog (a restart with fewer -slots than the dead process had in
	// flight) would deadlock boot while holding the singleton lease.
	qcap := cfg.slots
	if len(recovered) > qcap {
		qcap = len(recovered)
	}
	s.queue = make(chan *job, qcap)
	for _, j := range recovered {
		// Force, not Admit: the previous process already promised to
		// run these. Bouncing them at reboot would turn a crash into
		// silently dropped work.
		s.pool.Force(j.fp)
		s.queue <- j
	}
	if len(recovered) > 0 {
		fmt.Fprintf(cfg.stderr, "ccserve: recovered %d unfinished jobs from the journal\n", len(recovered))
	}

	if cfg.bootHook != nil {
		cfg.bootHook()
	}
	// Last checkpoint before anything starts running: a SIGTERM that
	// landed anywhere during recovery exits here with the re-queued
	// work still journaled — the next boot recovers it identically.
	if bootCanceled() {
		s.releaseSingleton()
		if err := jnl.Close(); err != nil {
			fmt.Fprintf(cfg.stderr, "ccserve: closing journal: %v\n", err)
		}
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

// replay folds one journal record into the boot state. Pending ops
// (queued/claimed) carry the spec so the job can be rebuilt; terminal
// ops carry the final status. Failed terminals also feed the circuit
// breaker so a crash cannot reset a poisoned config's strike count.
//
// Records apply by generation, not arrival order — OpenJournalSet
// replays segments lexicographically, so an older boot's record can
// arrive after a newer one's. A pending record reopens a job only if
// it starts a generation no terminal has resolved; a terminal record
// never downgrades a newer generation's state.
func (s *server) replay(rec store.JournalRecord) error {
	switch rec.Op {
	case store.OpQueued, store.OpClaimed:
		var d queuedDetail
		if err := json.Unmarshal(rec.Detail, &d); err != nil || d.Spec.Name == "" {
			return nil // old or foreign record shape; ignore
		}
		j, ok := s.jobs[rec.Key]
		if !ok {
			j, err := buildJob(d.Spec)
			if err != nil {
				return nil // journaled by an older build; cannot re-run it
			}
			j.gen = rec.Gen
			s.jobs[j.key] = j
			s.addToBatch(d.Batch, rec.Key)
			return nil
		}
		// A job first seen through a terminal record is a spec-less
		// stub; the pending record carries the full spec, so restore it
		// before the job can ever be re-run.
		if j.setting.Name == "" {
			if nb, err := buildJob(d.Spec); err == nil {
				j.spec, j.setting, j.flows, j.fp = nb.spec, nb.setting, nb.flows, nb.fp
			}
		}
		if rec.Gen > j.gen || (rec.Gen == j.gen && !schema.JobTerminal(j.status.State)) {
			j.gen = rec.Gen
			j.status.State = schema.JobQueued
			j.status.Error = ""
			j.status.Cached = false
		}
		s.addToBatch(d.Batch, rec.Key)
	case store.OpDone, store.OpFailed, store.OpRejected, store.OpCached, store.OpQuarantined, store.OpPoisoned:
		var d terminalDetail
		if err := json.Unmarshal(rec.Detail, &d); err != nil {
			return nil
		}
		j, ok := s.jobs[rec.Key]
		if !ok {
			// Terminal with no surviving pending record (compaction
			// dropped it). The status itself is the state.
			j = &job{key: rec.Key, spec: schema.JobSpec{Name: rec.Job}}
			s.jobs[rec.Key] = j
		}
		if rec.Op == store.OpFailed {
			// Strikes are monotone across generations: a failure that
			// was later retried still happened, and the breaker must
			// not forget it on reboot.
			j.failures++
			j.attempts++
		}
		if !ok || rec.Gen >= j.gen {
			j.gen = rec.Gen
			if d.Status.Key != "" {
				j.status = d.Status
			} else {
				j.status = schema.JobStatus{Name: rec.Job, Key: rec.Key, State: schema.JobDone}
			}
		}
		s.addToBatch(d.Batch, rec.Key)
	}
	return nil
}

func (s *server) addToBatch(batch, key string) {
	if batch == "" {
		return
	}
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
		if err := req.Jobs[i].Validate(); err != nil {
			writeError(w, http.StatusBadRequest, err.Error())
			return
		}
		j, err := buildJob(req.Jobs[i])
		if err != nil {
			writeError(w, http.StatusBadRequest, err.Error())
			return
		}
		built[i] = j
		keys[i] = j.key
	}
	batch := batchID(keys)

	s.mu.Lock()
	defer s.mu.Unlock()
	if s.draining {
		writeError(w, http.StatusServiceUnavailable, "server is draining")
		return
	}

	// Two passes: decide every member's disposition, reserving pool
	// capacity as needed; only once the whole batch fits does anything
	// touch the journal or the queue.
	const (
		dispQueue  = iota // new work: journal OpQueued + enqueue
		dispCached        // result already in the store: journal OpCached
		dispDedupe        // existing job (running or terminal): no new work
		dispPoison        // config poisoned: structured refusal, no admission
	)
	disp := make([]int, len(built))
	poisonMsg := make([]string, len(built))
	var admitted []budget.Footprint
	// committed counts admitted members that have been journaled and
	// queued; rollback releases only the rest — a committed job runs and
	// releases its own footprint at completion, so releasing it here too
	// would double-release and let the pool over-admit.
	committed := 0
	rollback := func() {
		for _, fp := range admitted[committed:] {
			s.pool.Release(fp)
		}
	}
	for i, b := range built {
		if ex, ok := s.jobs[b.key]; ok {
			if ex.status.State == schema.JobFailed {
				// A failed job resubmitted is an explicit retry: it
				// re-enters the queue (and the breaker's ledger).
				if err := s.admit(b.fp); err != nil {
					rollback()
					s.reject(w, err)
					return
				}
				admitted = append(admitted, b.fp)
				disp[i] = dispQueue
				continue
			}
			disp[i] = dispDedupe
			continue
		}
		// A poisoned config is refused before any capacity is reserved:
		// its workers died repeatedly, and unlike a quarantine a
		// resubmission does not clear it.
		if s.fleet != nil {
			if rec, ok := s.fleet.poisons.Get(b.key); ok {
				disp[i] = dispPoison
				poisonMsg[i] = fmt.Sprintf("config poisoned after %d worker crashes: %s", rec.Strikes, rec.Reason)
				continue
			}
		}
		if s.Store.Has(b.key) {
			disp[i] = dispCached
			continue
		}
		if err := s.admit(b.fp); err != nil {
			rollback()
			s.reject(w, err)
			return
		}
		admitted = append(admitted, b.fp)
		disp[i] = dispQueue
	}

	// Commit: journal first (the promise), then queue (the work).
	for i, b := range built {
		switch disp[i] {
		case dispQueue:
			// A resubmitted failure opens a new generation of the same
			// identity; the journaled Gen is what lets compaction and
			// replay tell this fresh promise from the failure it retries.
			ex := s.jobs[b.key]
			gen := uint64(0)
			if ex != nil {
				gen = ex.gen + 1
			}
			detail, _ := json.Marshal(queuedDetail{Spec: b.spec, Batch: batch})
			if err := s.jnl.Append(store.JournalRecord{
				Op: store.OpQueued, Job: b.spec.Name, Key: b.key,
				Owner: s.owner, Gen: gen, Detail: detail,
			}); err != nil {
				// The journal is sticky-failed: nothing further can be
				// promised durably. Refuse the batch; already-journaled
				// members will be recovered as queued at next boot.
				rollback()
				writeError(w, http.StatusInternalServerError, "journal: "+err.Error())
				return
			}
			committed++
			if ex != nil {
				// Replay may have rebuilt ex as a spec-less stub from a
				// terminal-only journal frontier; and its footprint must
				// match the one just admitted so the Release at completion
				// balances. Refresh it all from the freshly built job.
				ex.spec, ex.setting, ex.flows, ex.fp = b.spec, b.setting, b.flows, b.fp
				ex.gen = gen
				ex.attempts = 0 // fresh cycle for a resubmitted failure
				s.transition(ex, schema.JobQueued, "")
				s.queue <- ex
			} else {
				s.jobs[b.key] = b
				s.queue <- b
			}
		case dispCached:
			b.status.State = schema.JobDone
			b.status.Cached = true
			s.jobs[b.key] = b
			st := b.status
			detail, _ := json.Marshal(terminalDetail{Status: st, Batch: batch})
			if err := s.jnl.Append(store.JournalRecord{
				Op: store.OpCached, Job: b.spec.Name, Key: b.key,
				Owner: s.owner, Detail: detail,
			}); err != nil {
				fmt.Fprintf(s.cfg.stderr, "ccserve: journal: %v\n", err)
			}
		case dispPoison:
			b.status.State = schema.JobPoisoned
			b.status.Error = poisonMsg[i]
			s.jobs[b.key] = b
			detail, _ := json.Marshal(terminalDetail{Status: b.status, Batch: batch})
			if err := s.jnl.Append(store.JournalRecord{
				Op: store.OpPoisoned, Job: b.spec.Name, Key: b.key,
				Owner: s.owner, Detail: detail,
			}); err != nil {
				fmt.Fprintf(s.cfg.stderr, "ccserve: journal: %v\n", err)
			}
		}
		s.addToBatch(batch, b.key)
	}
	writeJSON(w, http.StatusCreated, s.batchResponseLocked(batch))
}

// admit runs pool admission; the caller holds s.mu.
func (s *server) admit(fp budget.Footprint) error {
	return s.pool.Admit(fp)
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
				// journaled OpQueued and runs at next boot.
				return
			default:
			}
			s.runJob(&r, j)
		}
	}
}

// runJob executes one claimed job end to end, the same way in both
// modes: poison and cache checks, the claimed record, then attempts
// until one delivers a verdict. An attempt is a dispatch to a
// supervised worker subprocess — r's warm worker, or one of its own —
// hedged against stragglers when a fleet is configured, and a direct
// call otherwise; only a subprocess can die without a verdict, and that
// failure domain feeds crash-loop backoff and, past the strike limit,
// poison quarantine. Its panic net mirrors cmd/reproduce's — the
// simulation supervisor catches simulation panics, this catches
// everything around them.
func (s *server) runJob(r *runner, j *job) {
	defer func() {
		if r := recover(); r != nil {
			fmt.Fprintf(s.cfg.stderr, "ccserve: job %s: panic outside supervisor: %v\n%s", j.spec.Name, r, debug.Stack())
			s.mu.Lock()
			s.jobFailed(j, fmt.Sprintf("panic outside supervisor: %v", r))
			s.mu.Unlock()
		}
	}()
	f := s.fleet

	// A poisoned config never spawns a process — the strikes already
	// cost three of them.
	if f != nil {
		if rec, ok := f.poisons.Get(j.key); ok {
			s.mu.Lock()
			s.jobPoisoned(j, fmt.Sprintf("config poisoned after %d worker crashes: %s", rec.Strikes, rec.Reason))
			s.mu.Unlock()
			return
		}
	}

	// Serve from the store before computing: after a crash between
	// store commit and journal commit, the recomputation would be
	// wasted work and a duplicate OpDone. This check is what keeps
	// "at most one OpDone per key" an invariant instead of a hope.
	if s.Store.Has(j.key) {
		s.mu.Lock()
		s.jobDone(j, schema.WorkerOutcome{Cached: true})
		s.mu.Unlock()
		return
	}

	s.mu.Lock()
	j.attempts++
	detail, _ := json.Marshal(queuedDetail{Spec: j.spec})
	if err := s.jnl.Append(store.JournalRecord{
		Op: store.OpClaimed, Job: j.spec.Name, Key: j.key,
		Owner: s.owner, Gen: j.gen, Detail: detail,
	}); err != nil {
		s.jobFailed(j, "journal: "+err.Error())
		s.mu.Unlock()
		return
	}
	s.transition(j, schema.JobRunning, "")
	s.mu.Unlock()

	deadline := j.deadline(s.cfg.deadlineFactor, s.cfg.minDeadline)
	// A drain (or server-wide cancel) interrupting the job is a
	// checkpoint, not a failure: the journaled OpQueued/OpClaimed stands,
	// no terminal is written, and the next boot re-runs the job. The
	// store stayed untouched, so the re-run commits the same bytes the
	// uninterrupted run would have.
	checkpoint := func() {
		s.mu.Lock()
		j.status.State = schema.JobQueued
		s.mu.Unlock()
	}

	for crashes := 1; ; crashes++ {
		var res spawnRes
		if f != nil {
			res = s.fleetAttempt(r, j, deadline)
		} else {
			o := runAttempt(s.runCtx, s.Env, j, 0, deadline,
				telemetry.Multi(s.reg.Instrument(), s.subscriberCollector(j)))
			res.outcome = &o
		}
		if o := res.outcome; o != nil {
			switch o.State {
			case schema.WorkerDone:
				s.mu.Lock()
				s.jobDone(j, *o)
				s.mu.Unlock()
				return
			case schema.WorkerCheckpoint:
				if s.isDraining() || s.runCtx.Err() != nil {
					checkpoint()
					return
				}
				// A checkpoint outside a drain means something external
				// terminated the worker (or the hang guard fired). The run
				// committed nothing; treat it as a crash and respawn.
				res.err = fmt.Errorf("worker checkpointed outside a drain")
			default:
				s.mu.Lock()
				s.jobFailed(j, o.Error)
				s.mu.Unlock()
				return
			}
		}

		reason := "worker crashed"
		if res.err != nil {
			reason = res.err.Error()
		}
		if crashes >= f.cfg.poisonAfter {
			rec := store.PoisonRecord{Key: j.key, Job: j.spec.Name, Reason: reason, Strikes: crashes}
			if err := f.poisons.Mark(rec); err != nil {
				fmt.Fprintf(s.cfg.stderr, "ccserve: marking poison %s: %v\n", j.key, err)
			}
			s.reg.Counter("fleet_poisoned").Inc()
			s.mu.Lock()
			s.jobPoisoned(j, fmt.Sprintf("poisoned after %d worker crashes: %s", crashes, reason))
			s.mu.Unlock()
			return
		}
		s.reg.Counter("fleet_restarts").Inc()
		fmt.Fprintf(s.cfg.stderr, "ccserve: job %s: %s (strike %d/%d), backing off\n",
			j.spec.Name, reason, crashes, f.cfg.poisonAfter)
		wait := f.cfg.backoffBase << (crashes - 1)
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

// resolve moves a job to a terminal state: journal the record, release
// pool capacity, notify. A journal error is logged, not fatal: the
// in-memory state and the idempotent store still advance, and the next
// boot re-derives whatever the journal missed. The caller holds s.mu.
func (s *server) resolve(j *job, op, state, msg string) {
	st := j.status
	st.State, st.Error, st.Attempts = state, msg, j.attempts
	detail, _ := json.Marshal(terminalDetail{Status: st})
	if err := s.jnl.Append(store.JournalRecord{
		Op: op, Job: j.spec.Name, Key: j.key, Owner: s.owner, Gen: j.gen, Detail: detail,
	}); err != nil {
		fmt.Fprintf(s.cfg.stderr, "ccserve: journal %s %s: %v\n", op, j.key, err)
	}
	s.pool.Release(j.fp)
	s.transition(j, state, msg)
}

// jobDone records a delivered result — computed by the attempt that
// reported o, or found already in the store; the caller holds s.mu.
func (s *server) jobDone(j *job, o schema.WorkerOutcome) {
	j.failures = 0
	j.status.WallMs = o.WallMs
	j.status.Cached = o.Cached
	op := store.OpDone
	if o.Cached {
		op = store.OpCached
	}
	s.resolve(j, op, schema.JobDone, "")
}

// jobFailed records a failure and trips the breaker past the
// threshold; the caller holds s.mu.
func (s *server) jobFailed(j *job, msg string) {
	j.failures++
	op, state := store.OpFailed, schema.JobFailed
	if j.failures >= s.cfg.breakerAfter {
		op, state = store.OpQuarantined, schema.JobQuarantined
		msg = fmt.Sprintf("quarantined after %d failures: %s", j.failures, msg)
	}
	s.resolve(j, op, state, msg)
}

// jobPoisoned records the poison terminal; the caller holds s.mu and
// has already persisted the poison record when one is owed.
func (s *server) jobPoisoned(j *job, msg string) {
	s.resolve(j, store.OpPoisoned, schema.JobPoisoned, msg)
}

// subscriberCollector forwards a thin slice of run telemetry to the
// job's event-stream subscribers: lifecycle and degradation, not the
// per-packet firehose.
func (s *server) subscriberCollector(j *job) telemetry.Collector {
	return telemetry.CollectorFunc(func(ev telemetry.Event) {
		switch ev.Kind {
		case telemetry.KindRunStart, telemetry.KindRunEnd, telemetry.KindDegraded,
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
// cancelled jobs keep their journaled pending records and re-run at
// next boot. Idempotent; calls after the first return immediately.
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
	if err := s.jnl.Close(); err != nil {
		fmt.Fprintf(s.cfg.stderr, "ccserve: closing journal: %v\n", err)
	}
}
