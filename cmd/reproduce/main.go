// Command reproduce regenerates every table and figure of the paper in
// one invocation, writing one text file per result into an output
// directory (default ./results). It is the driver behind
// EXPERIMENTS.md.
//
//	reproduce [-out DIR] [-scale N] [-seed N] [-quick] [-resume] [-only RE] [-audit strict]
//	          [-scenario file.json] [-mem-budget 512M] [-event-budget N] [-retries N]
//	          [-progress] [-telemetry out.jsonl] [-pprof localhost:6060]
//
// -quick shrinks windows and flow counts for a minutes-long smoke pass;
// the default tier is EdgeScale plus CoreScale/N (1 Gbps at N=10).
// Each job is a catalog entry (internal/experiments) bound to a regime
// under the name its result is filed by; the entry declares how long it
// runs relative to the tier's window, so the committed results/ are this
// command at -scale 25 (results/regenerate.sh) and paper scale (10 Gbps,
// 5000 flows) is the same command at -scale 1: minutes per table, hours
// for the whole paper on two cores.
//
// Three observation surfaces are opt-in and never perturb results:
// -progress prints a live status line (jobs done/running, estimator
// ETA, fidelity tier) to stderr; -telemetry streams every run's
// lifecycle events as JSONL (summarize with `tracestat -telemetry`,
// validate with `fprint -check`); -pprof serves net/http/pprof plus a
// /metricsz JSON snapshot of the telemetry registry. Each table is
// also written as a versioned .json document beside its .txt form.
//
// The sweep is fail-safe: a job that errors (or panics) is recorded in
// the output directory's manifest.json — with a replayable
// <job>.failed.json when the failure is a core.RunError — and the
// remaining jobs still run. A later invocation with -resume re-executes
// only the jobs that have not completed.
//
// The sweep is also crash-safe. Every job's outcome is committed to an
// fsync-per-record write-ahead journal (journal-<owner>.jsonl) and its
// result table to a content-addressed store (store/<job>-<seed>-<hash>.rec,
// CRC-framed, written tmp→fsync→rename→dirsync) before the manifest — a
// derived view — is updated. A sweep killed at any instant, kill -9
// included, resumes to its exact pre-crash frontier: committed jobs are
// served from the store without recomputation, the one in flight
// re-runs, and duplicate commits after a worker race are no-ops because
// the simulations are deterministic and the store is idempotent. Jobs
// are claimed through heartbeat leases (-lease-ttl), so several
// `reproduce -resume` processes pointed at one -out directory shard the
// sweep between them, and -workers runs that many claim loops inside
// one process. A worker that loses its lease to takeover has its job's
// context cancelled mid-run.
//
// -mem-budget and -event-budget bound every run's footprint: a job the
// estimator prices over budget is recorded as "rejected" (not failed —
// the sweep still exits zero) and a later -resume retries it one
// fidelity tier lower. -retries lets admission degrade a config in the
// same invocation instead. Per-job peak resource usage is recorded in
// manifest.json, and reduced-fidelity output is marked both there and
// in the table itself.
package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"regexp"
	"runtime"
	"runtime/debug"
	"runtime/pprof"
	"strconv"
	"strings"
	"sync"
	"time"

	"ccatscale/internal/budget"
	"ccatscale/internal/core"
	"ccatscale/internal/experiments"
	"ccatscale/internal/report"
	"ccatscale/internal/sim"
	"ccatscale/internal/store"
	"ccatscale/internal/telemetry"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// job is one table of the sweep: a catalog entry bound to a regime under
// the name its result is filed by. Each job carries its own Setting copy
// so per-job overrides (the -panicjob fault drill) cannot leak into
// other jobs.
type job struct {
	name    string
	setting core.Setting
	entry   experiments.Entry
	args    experiments.Args
}

// sweep is one invocation: what the flags asked for, the durable state
// under the output directory, the observation surfaces, and what the
// claim loops share. run drives it phase by phase: buildJobs →
// openState → observe → claimAll → summary.
type sweep struct {
	stdout, stderr io.Writer

	// The flags more than one phase reads.
	out            string
	scale          int
	seed           uint64
	quick          bool
	parallel       int
	resume         bool
	force          bool
	panicJob       string
	telemetryOut   string
	leaseTTL       time.Duration
	leaseHeartbeat time.Duration

	jobs []job
	// keys holds every job's content address in the store.
	keys map[string]string

	// Durable state. All of it — manifest, journal, store, leases — goes
	// through one FS seam so the chaos build can crash the process at
	// any syscall boundary of the protocol.
	fsys   store.FS
	owner  string
	st     *store.Store
	jnl    *store.Journal
	leases *store.Leases
	man    *manifest

	// Observation surfaces; each nil when its flag is off.
	stream     *telemetry.Stream
	streamFile *os.File
	regColl    telemetry.Collector
	pt         *progressTracker

	// mu guards everything the claim loops share: the manifest, the
	// journal (single writer per segment), the counters below, and the
	// output writers.
	mu       sync.Mutex
	injected bool
	failed   []string
	rejected []string
	held     []string
	ran      int
	fatalErr error
}

func run(argv []string, stdout, stderr io.Writer) int {
	sw := &sweep{stdout: stdout, stderr: stderr}
	fs := flag.NewFlagSet("reproduce", flag.ContinueOnError)
	fs.SetOutput(stderr)
	fs.StringVar(&sw.out, "out", "results", "output directory")
	fs.IntVar(&sw.scale, "scale", 10, "CoreScale divisor")
	fs.Uint64Var(&sw.seed, "seed", 7, "experiment seed")
	fs.BoolVar(&sw.quick, "quick", false, "shrink windows and flow counts for a fast pass")
	fs.IntVar(&sw.parallel, "parallel", runtime.GOMAXPROCS(0), "concurrent runs")
	fs.BoolVar(&sw.resume, "resume", false, "skip jobs already completed per the output directory's manifest")
	only := fs.String("only", "", "regexp restricting which jobs run")
	scenarioPath := fs.String("scenario", "", "run one scenario document (versioned JSON; see DESIGN.md) instead of the paper sweep")
	fs.StringVar(&sw.panicJob, "panicjob", "", "inject a mid-run panic into the named job (supervisor drill)")
	wallLimit := fs.Duration("runwall", 0, "wall-clock limit per simulation run (0 = unlimited)")
	auditPol := fs.String("audit", "", "invariant auditing for every run: off (default), warn, or strict")
	memBudget := fs.String("mem-budget", "", "per-run heap budget, e.g. 512M or 2G (empty = unlimited)")
	eventBudget := fs.Int64("event-budget", 0, "per-run event-object budget (0 = unlimited)")
	retries := fs.Int("retries", 0, "reduced-fidelity retries for over-budget runs")
	fs.BoolVar(&sw.force, "force", false, "resume even when the manifest's job set no longer matches")
	cpuProfile := fs.String("cpuprofile", "", "write a CPU profile of the sweep to this file (go tool pprof)")
	memProfile := fs.String("memprofile", "", "write a heap profile at sweep end to this file (go tool pprof)")
	progress := fs.Bool("progress", false, "print a live sweep status line to stderr (jobs done/running/rejected, estimator ETA, fidelity tier)")
	fs.StringVar(&sw.telemetryOut, "telemetry", "", "write a telemetry JSONL stream of every run to this file (analyze with tracestat -telemetry)")
	pprofAddr := fs.String("pprof", "", "serve net/http/pprof and a /metricsz telemetry snapshot on this address (e.g. localhost:6060)")
	workers := fs.Int("workers", 1, "concurrent lease-claiming worker loops in this process (start more `reproduce -resume` processes on the same -out to shard across processes)")
	fs.DurationVar(&sw.leaseTTL, "lease-ttl", 30*time.Second, "job lease staleness deadline: a claim whose heartbeat is older may be taken over by another worker")
	fs.DurationVar(&sw.leaseHeartbeat, "lease-heartbeat", 0, "lease refresh interval (0 = ttl/6); must be under a third of -lease-ttl")
	if err := fs.Parse(argv); err != nil {
		return 2
	}
	fail := func(code int, msg any) int {
		fmt.Fprintln(stderr, "reproduce:", msg)
		return code
	}
	if *workers < 1 {
		return fail(2, "-workers must be at least 1")
	}
	if sw.scale < 1 {
		return fail(2, "-scale must be at least 1")
	}
	if sw.leaseTTL <= 0 {
		return fail(2, "-lease-ttl must be positive")
	}
	if sw.leaseHeartbeat == 0 {
		sw.leaseHeartbeat = store.DefaultHeartbeat(sw.leaseTTL)
	}
	if err := store.ValidateHeartbeat(sw.leaseHeartbeat, sw.leaseTTL); err != nil {
		return fail(2, err)
	}

	if *cpuProfile != "" {
		f, err := os.Create(*cpuProfile)
		if err != nil {
			return fail(1, err)
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			f.Close()
			return fail(1, err)
		}
		defer func() {
			pprof.StopCPUProfile()
			f.Close()
		}()
	}
	if *memProfile != "" {
		defer func() {
			f, err := os.Create(*memProfile)
			if err != nil {
				fmt.Fprintln(stderr, "reproduce:", err)
				return
			}
			defer f.Close()
			runtime.GC() // settle the heap so the profile shows retained allocations
			if err := pprof.WriteHeapProfile(f); err != nil {
				fmt.Fprintln(stderr, "reproduce:", err)
			}
		}()
	}

	var onlyRE *regexp.Regexp
	if *only != "" {
		re, err := regexp.Compile(*only)
		if err != nil {
			return fail(2, fmt.Sprintf("bad -only pattern: %v", err))
		}
		onlyRE = re
	}

	sw.fsys = sweepFS()
	if err := sw.fsys.MkdirAll(sw.out, 0o755); err != nil {
		return fail(1, err)
	}
	man, err := loadManifestFS(sw.fsys, sw.out)
	if err != nil {
		return fail(1, err)
	}

	// The governance flags every job's Setting is overlaid with.
	govern := core.Setting{WallLimit: *wallLimit, Audit: *auditPol, Retries: *retries}
	if *memBudget != "" || *eventBudget > 0 {
		heapBytes := int64(0)
		if *memBudget != "" {
			heapBytes, err = parseByteSize(*memBudget)
			if err != nil {
				return fail(2, fmt.Sprintf("bad -mem-budget: %v", err))
			}
		}
		govern.Budget = &budget.Budget{HeapBytes: heapBytes, Events: *eventBudget}
	}

	if err := sw.buildJobs(govern, *scenarioPath); err != nil {
		return fail(2, err)
	}
	err = sw.openState(man)
	if sw.jnl != nil {
		defer sw.jnl.Close()
	}
	if err != nil {
		return fail(1, err)
	}
	toRun := make([]job, 0, len(sw.jobs))
	for _, j := range sw.jobs {
		if onlyRE == nil || onlyRE.MatchString(j.name) {
			toRun = append(toRun, j)
		}
	}
	stopObserving, err := sw.observe(toRun, *pprofAddr, *progress)
	if err != nil {
		return fail(1, err)
	}
	defer stopObserving()
	sw.claimAll(toRun, *workers)
	return sw.summary()
}

// buildJobs fills sw.jobs: the paper's tables over the two regimes, or
// the one -scenario document. A scenario also sets the sweep's seed —
// keys, the manifest, and table footers all record what actually ran.
func (sw *sweep) buildJobs(govern core.Setting, scenarioPath string) error {
	// Governance flags overlay a scenario document like any other job;
	// the document's own audit policy stands unless -audit is given.
	overlay := func(s *core.Setting) {
		s.WallLimit, s.Budget, s.Retries = govern.WallLimit, govern.Budget, govern.Retries
		if govern.Audit != "" {
			s.Audit = govern.Audit
		}
	}
	if scenarioPath != "" {
		sj, scnSeed, err := loadScenarioJob(scenarioPath)
		if err != nil {
			return err
		}
		overlay(&sj.setting)
		sw.jobs = []job{sj}
		sw.seed = scnSeed
		return nil
	}
	edge := core.EdgeScale()
	corePaper := core.CoreScaleScaled(sw.scale)
	if sw.quick {
		edge.Warmup, edge.Duration, edge.Stagger = 5*sim.Second, 20*sim.Second, 2*sim.Second
		corePaper = core.CoreScaleScaled(sw.scale * 5)
		corePaper.Warmup, corePaper.Duration, corePaper.Stagger = 5*sim.Second, 20*sim.Second, 2*sim.Second
	}
	overlay(&edge)
	overlay(&corePaper)
	sw.jobs = paperJobs(edge, corePaper, sw.seed)
	return nil
}

// paperJobs binds the catalog's entries to the two regimes: every table
// and figure of the paper, plus the extensions. A job's name is the file
// name of its result, so this list is the index of results/; its setting
// carries the window its entry declares, so a run length is part of the
// job's key.
func paperJobs(edge, corePaper core.Setting, seed uint64) []job {
	bind := func(name string, s core.Setting, entry string, a experiments.Args) job {
		e, ok := experiments.Lookup(entry)
		if !ok {
			panic("reproduce: no catalog entry " + entry)
		}
		a.Seed = seed
		s, a = e.Bind(s, a)
		return job{name, s, e, a}
	}
	return []job{
		bind("mathis_edge", edge, "mathis", experiments.Args{}),
		bind("mathis_core", corePaper, "mathis", experiments.Args{}),
		bind("intra_reno_core", corePaper, "intra", experiments.Args{CCA: "reno"}),
		bind("intra_cubic_core", corePaper, "intra", experiments.Args{CCA: "cubic"}),
		bind("fig4_edge", edge, "fig4", experiments.Args{}),
		bind("fig4_core", corePaper, "fig4", experiments.Args{}),
		bind("fig5_core", corePaper, "fig5", experiments.Args{}),
		bind("fig6_core", corePaper, "fig6", experiments.Args{}),
		bind("fig7_core", corePaper, "fig7", experiments.Args{}),
		bind("fig8_reno_core", corePaper, "fig8", experiments.Args{Vs: "reno"}),
		bind("fig8_cubic_core", corePaper, "fig8", experiments.Args{Vs: "cubic"}),
		bind("ext_rttmix_reno_core", corePaper, "rttmix", experiments.Args{CCA: "reno"}),
		bind("ext_burstloss_core", corePaper, "burstloss", experiments.Args{}),
		bind("ext_outage_core", corePaper, "outage", experiments.Args{}),
		bind("ext_churn_core", corePaper, "churn", experiments.Args{CCA: "reno"}),
	}
}

// openState opens the sweep's durable state and reconciles it with the
// manifest loaded from the output directory. The journal is the record:
// replaying every segment rebuilds the per-job frontier exactly as it
// was before any crash, and the manifest becomes a derived view of it.
// Outcome records are admitted only when their content key matches
// this binary's job definitions, so leftovers from an older experiment
// in the same directory cannot masquerade as progress.
func (sw *sweep) openState(man *manifest) error {
	hash := configHash(sw.seed, sw.scale, sw.quick, sw.jobs)
	sw.keys = make(map[string]string, len(sw.jobs))
	for _, j := range sw.jobs {
		key, err := core.ResultKey(j.name, sw.seed, j.setting)
		if err != nil {
			return err
		}
		sw.keys[j.name] = key
	}

	sw.owner = store.ProcessOwner()
	var err error
	if sw.st, err = store.OpenFS(filepath.Join(sw.out, "store"), sw.fsys); err != nil {
		return err
	}
	derived := map[string]*jobRecord{}
	var lastBegin *beginDetail
	sw.jnl, _, err = store.OpenJournalSet(sw.fsys, sw.out, sw.owner, func(r store.JournalRecord) error {
		switch r.Op {
		case store.OpBegin:
			var bd beginDetail
			if json.Unmarshal(r.Detail, &bd) == nil {
				lastBegin = &bd
			}
		case store.OpDone, store.OpCached, store.OpFailed, store.OpRejected:
			if sw.keys[r.Job] == "" || r.Key != sw.keys[r.Job] {
				return nil
			}
			var rec jobRecord
			if json.Unmarshal(r.Detail, &rec) != nil || rec.Status == "" {
				return nil
			}
			if better(derived[r.Job], &rec) {
				derived[r.Job] = &rec
			}
		}
		return nil
	})
	if err != nil {
		return err
	}
	if sw.leases, err = store.NewLeasesFS(sw.fsys, sw.out, sw.owner, sw.leaseTTL); err != nil {
		return err
	}

	if sw.resume && man == nil && lastBegin != nil {
		// The manifest was lost or quarantined as corrupt: rebuild the
		// view from the journal's begin record and replayed outcomes.
		man = newManifest(lastBegin.Seed, lastBegin.Scale, lastBegin.Quick, lastBegin.ConfigHash)
	}
	if sw.resume && man != nil {
		if err := man.compatible(sw.seed, sw.scale, sw.quick, hash); err != nil {
			if !sw.force {
				return err
			}
			fmt.Fprintf(sw.stderr, "reproduce: -force: resuming anyway (%v)\n", err)
			man.Version = manifestVersion
			man.ConfigHash = hash
		}
	}
	if !sw.resume || man == nil {
		man = newManifest(sw.seed, sw.scale, sw.quick, hash)
	}
	if sw.resume {
		// The journal outlives any manifest write: overlay its frontier.
		for name, rec := range derived {
			man.Jobs[name] = rec
		}
	}
	sw.man = man

	bd, _ := json.Marshal(beginDetail{Seed: sw.seed, Scale: sw.scale, Quick: sw.quick, ConfigHash: hash})
	return sw.jnl.Append(store.JournalRecord{Op: store.OpBegin, Owner: sw.owner, Detail: bd})
}

// observe attaches the live telemetry surfaces: a JSONL stream file, a
// metrics registry behind -pprof's /metricsz, and the -progress status
// line. All are observation-only — runs stay bit-identical with them
// attached. The returned stop ends the progress line and the debug
// server; the stream is flushed by summary, which reports its errors.
func (sw *sweep) observe(toRun []job, pprofAddr string, progress bool) (stop func(), err error) {
	if sw.telemetryOut != "" {
		f, err := os.Create(sw.telemetryOut)
		if err != nil {
			return nil, err
		}
		sw.stream, err = telemetry.NewStream(f, "reproduce seed="+strconv.FormatUint(sw.seed, 10))
		if err != nil {
			f.Close()
			return nil, err
		}
		sw.streamFile = f
	}
	stopDebug := func() {}
	if pprofAddr != "" {
		reg := telemetry.NewRegistry()
		sw.regColl = reg.Instrument()
		addr, stop, err := startDebugServer(pprofAddr, reg)
		if err != nil {
			return nil, err
		}
		stopDebug = stop
		fmt.Fprintf(sw.stderr, "reproduce: debug server on http://%s (/debug/pprof/, /metricsz)\n", addr)
	}
	if progress {
		sw.pt = newProgressTracker(sw.stderr, toRun)
	}
	return func() {
		if sw.pt != nil {
			sw.pt.finish()
		}
		stopDebug()
	}, nil
}

// claimAll runs the claim loops over toRun and returns when every job
// has been run, served, skipped, or found held by another worker.
func (sw *sweep) claimAll(toRun []job, workers int) {
	jobCh := make(chan job)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := range jobCh {
				sw.doJob(j)
			}
		}()
	}
	for _, j := range toRun {
		jobCh <- j
	}
	close(jobCh)
	wg.Wait()
}

// doJob takes one job through the protocol: skip or serve what is
// already committed, claim it, execute it under the lease, and record
// the outcome.
func (sw *sweep) doJob(j job) {
	if !sw.prepare(&j) {
		return
	}
	key := sw.keys[j.name]
	if sw.serveFromStore(j.name, key) {
		return
	}
	lease := sw.claim(&j, key)
	if lease == nil {
		return
	}
	defer lease.Release()
	start := time.Now()
	tab, usage, err := sw.execute(&j, lease)
	if err == nil {
		err = sw.commitResult(j.name, key, tab, usage, start)
	}
	sw.record(j, key, usage, time.Since(start), err)
}

// prepare decides whether the job runs at all in this invocation and
// applies the per-job overrides; false means it is already done (or the
// sweep is dead).
func (sw *sweep) prepare(j *job) bool {
	sw.mu.Lock()
	defer sw.mu.Unlock()
	if sw.fatalErr != nil {
		return false
	}
	if sw.resume && sw.man.done(sw.out, j.name) {
		fmt.Fprintf(sw.stdout, "%-24s %8s  (already done, skipped)\n", j.name, "resume")
		if sw.pt != nil {
			sw.pt.jobEnded(j.name, "done")
		}
		return false
	}
	if sw.resume {
		// A rejected job resumes one fidelity tier lower: less
		// retained state, a shorter window from tier 2 — the
		// degraded estimate may now fit the same budget.
		if prev, ok := sw.man.Jobs[j.name]; ok && prev.Status == "rejected" {
			j.setting.Fidelity = prev.Fidelity + 1
			fmt.Fprintf(sw.stdout, "%-24s retrying at reduced fidelity tier %d\n",
				j.name, j.setting.Fidelity)
		}
	}
	if sw.panicJob == j.name {
		// Fire inside the warm-up of every run of this job: early
		// enough to fail fast, late enough that the simulation is
		// genuinely under way when the supervisor catches it.
		j.setting.FaultPanicAt = sim.Second
		sw.injected = true
	}
	return true
}

// serveFromStore serves a committed result from the content-addressed
// store instead of recomputing it: the stored payload is the canonical
// JSON table, written back verbatim as the .json view and re-rendered
// as the .txt view. The simulations are deterministic, so these are the
// bytes a rerun would produce — which is what makes a crashed sweep's
// resume converge on the uninterrupted sweep's exact outputs. Any error
// (the record turned out corrupt and was quarantined, a view failed to
// write) reports false and sends the caller on to honest recomputation.
func (sw *sweep) serveFromStore(name, key string) bool {
	if !sw.resume || sw.panicJob == name || !sw.st.Has(key) {
		return false
	}
	start := time.Now()
	payload, err := sw.st.Get(key)
	if err != nil {
		return false
	}
	tab, err := report.ReadJSON(bytes.NewReader(payload))
	if err != nil {
		return false
	}
	degraded := false
	for _, n := range tab.Notes {
		if strings.Contains(n, "reduced fidelity") {
			degraded = true
		}
	}
	rec := &jobRecord{Status: "done", File: name + ".txt", JSON: name + ".json", Cached: true, Degraded: degraded}
	if store.WriteFileAtomicFS(sw.fsys, filepath.Join(sw.out, rec.JSON), payload) != nil ||
		writeTable(filepath.Join(sw.out, rec.File), tab, sw.seed, start, degraded) != nil {
		return false
	}
	rec.Wall = time.Since(start).Round(time.Millisecond).String()

	sw.mu.Lock()
	defer sw.mu.Unlock()
	sw.commit(name, key, store.OpCached, rec)
	fmt.Fprintf(sw.stdout, "%-24s %8s  → %s  (cached)\n",
		name, "store", filepath.Join(sw.out, rec.File))
	if sw.pt != nil {
		sw.pt.jobEnded(name, "done")
	}
	return true
}

// claim takes the job's lease and journals the intent to run it. nil
// means the job is not ours: another worker holds it, or the sweep just
// died.
func (sw *sweep) claim(j *job, key string) *store.Lease {
	lease, err := sw.leases.Acquire(j.name)
	sw.mu.Lock()
	defer sw.mu.Unlock()
	if errors.Is(err, store.ErrLeaseHeld) {
		sw.held = append(sw.held, j.name)
		fmt.Fprintf(sw.stdout, "%-24s %8s  (%v)\n", j.name, "lease", err)
		if sw.pt != nil {
			sw.pt.jobEnded(j.name, "held")
		}
		return nil
	}
	if err == nil {
		if err = sw.jnl.Append(store.JournalRecord{Op: store.OpIntent, Job: j.name, Key: key, Owner: sw.owner}); err != nil {
			lease.Release()
		}
	}
	if err != nil {
		if sw.fatalErr == nil {
			sw.fatalErr = err
		}
		return nil
	}
	if sw.pt != nil {
		sw.pt.jobStarted(j.name, j.setting.Fidelity)
	}
	sw.ran++
	return lease
}

// execute runs the job's plan with its lease kept alive; losing the
// lease (this process stalled past the TTL and another worker took the
// job) cancels the plan's context, which skips its queued configs and
// stops the running ones. The plan's runs emit to the sweep's observation
// surfaces under the job's name.
func (sw *sweep) execute(j *job, lease *store.Lease) (*report.Table, budget.Usage, error) {
	jobCtx, cancelJob := context.WithCancel(context.Background())
	defer cancelJob()
	stopBeat := lease.KeepAlive(sw.leaseHeartbeat, cancelJob)
	defer stopBeat()

	var streamColl telemetry.Collector
	if sw.stream != nil {
		streamColl = sw.stream.Collector(j.name)
	}
	return runJob(jobCtx, *j, core.SweepOptions{
		Parallelism: sw.parallel,
		Retries:     j.setting.Retries,
		Collector:   telemetry.Multi(streamColl, sw.regColl),
	})
}

// commitResult makes a finished table durable. Commit order is the
// durability contract: the canonical JSON result enters the
// content-addressed store first (idempotent — a duplicate worker's
// commit is a no-op), then the derived views (.json verbatim, .txt
// rendered with its volatile wall footer); journal outcome and manifest
// follow in record.
func (sw *sweep) commitResult(name, key string, tab *report.Table, usage budget.Usage, start time.Time) error {
	if usage.Degraded() {
		tab.AddNote("reduced fidelity: tier %d, series decimation %d× (budget governance)",
			usage.MaxFidelity, usage.MaxDecimation)
	}
	var buf bytes.Buffer
	if err := tab.WriteJSON(&buf); err != nil {
		return err
	}
	if err := sw.st.Put(key, buf.Bytes()); err != nil {
		return err
	}
	if err := store.WriteFileAtomicFS(sw.fsys, filepath.Join(sw.out, name+".json"), buf.Bytes()); err != nil {
		return err
	}
	return writeTable(filepath.Join(sw.out, name+".txt"), tab, sw.seed, start, usage.Degraded())
}

// record classifies the job's outcome — done, rejected at admission, or
// failed — reports it, and commits it to journal and manifest.
func (sw *sweep) record(j job, key string, usage budget.Usage, wall time.Duration, err error) {
	rec := &jobRecord{Wall: wall.Round(time.Millisecond).String()}
	if usage.Runs > 0 {
		rec.Usage = &usage
		rec.Degraded = usage.Degraded()
		rec.Fidelity = usage.MaxFidelity
	}
	op := store.OpDone
	var be *budget.BudgetError
	sw.mu.Lock()
	defer sw.mu.Unlock()
	switch {
	case err != nil && errors.As(err, &be) && be.Stage == budget.StageAdmission:
		// Admission control refused the job's predicted footprint:
		// nothing ran, siblings continue, and the sweep still exits
		// zero — a rejection is governance working, not a failure.
		op = store.OpRejected
		rec.Status = "rejected"
		rec.Error = err.Error()
		rec.Fidelity = j.setting.Fidelity
		sw.rejected = append(sw.rejected, j.name)
		fmt.Fprintf(sw.stdout, "%-24s %8s  REJECTED (over budget): %v\n",
			j.name, wall.Round(time.Second), be)
	case err != nil:
		op = store.OpFailed
		rec.Status = "failed"
		rec.Error = err.Error()
		var re *core.RunError
		if errors.As(err, &re) {
			ff := j.name + ".failed.json"
			if werr := writeFailure(filepath.Join(sw.out, ff), re); werr != nil {
				fmt.Fprintf(sw.stderr, "reproduce: %s: writing failure record: %v\n", j.name, werr)
			} else {
				rec.FailureFile = ff
			}
		}
		sw.failed = append(sw.failed, j.name)
		fmt.Fprintf(sw.stderr, "reproduce: %-24s FAILED after %s: %v\n",
			j.name, wall.Round(time.Second), err)
	default:
		rec.Status = "done"
		rec.File = j.name + ".txt"
		rec.JSON = j.name + ".json"
		marker := ""
		if rec.Degraded {
			marker = "  (degraded)"
		}
		fmt.Fprintf(sw.stdout, "%-24s %8s  → %s%s\n",
			j.name, wall.Round(time.Second), filepath.Join(sw.out, rec.File), marker)
	}
	if sw.pt != nil {
		sw.pt.jobEnded(j.name, rec.Status)
	}
	sw.commit(j.name, key, op, rec)
}

// commit appends a job's outcome to the journal, then refreshes the
// manifest view; the caller holds sw.mu.
func (sw *sweep) commit(name, key, op string, rec *jobRecord) {
	detail, _ := json.Marshal(rec)
	if err := sw.jnl.Append(store.JournalRecord{Op: op, Job: name, Key: key, Owner: sw.owner, Detail: detail}); err != nil && sw.fatalErr == nil {
		sw.fatalErr = err
	}
	sw.man.Jobs[name] = rec
	if err := sw.man.saveFS(sw.fsys, sw.out); err != nil && sw.fatalErr == nil {
		sw.fatalErr = err
	}
}

// summary closes the telemetry stream, prints the sweep's closing lines
// and decides the exit code.
func (sw *sweep) summary() int {
	if sw.fatalErr != nil {
		fmt.Fprintln(sw.stderr, "reproduce:", sw.fatalErr)
		return 1
	}
	if sw.stream != nil {
		err := sw.stream.Flush()
		if cerr := sw.streamFile.Close(); err == nil {
			err = cerr
		}
		if err != nil {
			fmt.Fprintf(sw.stderr, "reproduce: telemetry stream: %v\n", err)
			return 1
		}
		fmt.Fprintf(sw.stderr, "reproduce: telemetry written to %s\n", sw.telemetryOut)
	}
	if sw.panicJob != "" && !sw.injected {
		fmt.Fprintf(sw.stderr, "reproduce: -panicjob %q matched no job that ran\n", sw.panicJob)
		return 2
	}
	if len(sw.held) > 0 {
		fmt.Fprintf(sw.stdout, "reproduce: %d jobs claimed by other workers: %s\n",
			len(sw.held), strings.Join(sw.held, ", "))
	}
	if len(sw.rejected) > 0 {
		fmt.Fprintf(sw.stdout, "reproduce: %d of %d jobs rejected over budget: %s\n",
			len(sw.rejected), sw.ran, strings.Join(sw.rejected, ", "))
		fmt.Fprintf(sw.stdout, "reproduce: rerun with -out %s -resume to retry them at reduced fidelity\n", sw.out)
	}
	if len(sw.failed) > 0 {
		fmt.Fprintf(sw.stderr, "reproduce: %d of %d jobs failed: %s\n",
			len(sw.failed), sw.ran, strings.Join(sw.failed, ", "))
		fmt.Fprintf(sw.stderr, "reproduce: retry just those with -out %s -resume\n", sw.out)
		return 1
	}
	return 0
}

// parseByteSize parses "512M"-style sizes (K/M/G suffixes, powers of
// 1024; a bare number is bytes).
func parseByteSize(s string) (int64, error) {
	mult := int64(1)
	num := s
	if n := len(s); n > 0 {
		switch s[n-1] {
		case 'k', 'K':
			mult, num = 1<<10, s[:n-1]
		case 'm', 'M':
			mult, num = 1<<20, s[:n-1]
		case 'g', 'G':
			mult, num = 1<<30, s[:n-1]
		}
	}
	v, err := strconv.ParseInt(strings.TrimSpace(num), 10, 64)
	if err != nil || v <= 0 {
		return 0, fmt.Errorf("%q is not a positive size (use e.g. 512M, 2G)", s)
	}
	return v * mult, nil
}

// runJob runs one job's plan and renders its table, and returns what the
// plan's runs consumed — the successful ones' even when a sibling config
// failed. It has a panic net of its own: core.Run already converts
// simulation panics into *core.RunError; this backstop covers the plan-
// and table-building code outside the supervisor, so no single job can
// take down the sweep.
func runJob(ctx context.Context, j job, opt core.SweepOptions) (tab *report.Table, usage budget.Usage, err error) {
	defer func() {
		if r := recover(); r != nil {
			tab, err = nil, fmt.Errorf("panic outside supervisor: %v\n%s", r, debug.Stack())
		}
	}()
	results, err := core.RunManyCtx(ctx, j.entry.Configs(j.setting, j.args), opt)
	for _, res := range results {
		// A failed config's slot is the zero RunResult, which Merge
		// would count as a run.
		if res.Usage.Runs > 0 {
			usage.Merge(res.Usage)
		}
	}
	if err != nil {
		return nil, usage, fmt.Errorf("%s: %w", j.name, err)
	}
	return j.entry.Table(j.setting, j.args, results), usage, nil
}

// writeTable writes one result file, checking every step — a partially
// written table is removed rather than left for -resume to trust.
func writeTable(path string, tab *report.Table, seed uint64, start time.Time, degraded bool) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	err = tab.WriteText(f)
	if err == nil {
		marker := ""
		if degraded {
			marker = ", degraded"
		}
		_, err = fmt.Fprintf(f, "\n[seed %d, wall %s%s]\n", seed,
			time.Since(start).Round(time.Millisecond), marker)
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		os.Remove(path)
		return fmt.Errorf("writing %s: %w", path, err)
	}
	return nil
}

// better reports whether cand should replace cur in the journal-derived
// job frontier. Outcomes rank done > rejected > failed — a job that
// eventually committed stays committed no matter what earlier attempts
// (possibly in other workers' segments, replayed in arbitrary relative
// order) recorded — and within a rank the later record wins.
func better(cur, cand *jobRecord) bool {
	if cur == nil {
		return true
	}
	rank := func(s string) int {
		switch s {
		case "done":
			return 3
		case "rejected":
			return 2
		default:
			return 1
		}
	}
	return rank(cand.Status) >= rank(cur.Status)
}

// writeFailure serializes a RunError next to the results so the failed
// run can be replayed with `ccatscale replay -in <file>`.
func writeFailure(path string, re *core.RunError) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	err = re.WriteJSON(f)
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		os.Remove(path)
	}
	return err
}
