// Command reproduce regenerates every table and figure of the paper in
// one invocation, writing one text file per result into an output
// directory (default ./results). It is the one front end of the
// experiment catalog and the driver behind EXPERIMENTS.md.
//
//	reproduce [-out DIR] [-scale N] [-seed N] [-quick] [-only RE] [-audit strict]
//	          [-mem-budget 512M] [-event-budget N] [-retries N]
//	          [-progress] [-telemetry out.jsonl] [-pprof localhost:6060]
//	reproduce -scenario file.json [-out DIR] [-audit strict] [...]
//	reproduce -replay DIR/<key>.failed.json
//
// -quick shrinks windows and flow counts for a minutes-long smoke pass;
// the default tier is EdgeScale plus CoreScale/N (1 Gbps at N=10).
// Each job is a catalog entry (internal/experiments) bound to a regime
// under the name its result is filed by; the entry declares how long it
// runs relative to the tier's window, so the committed results/ are this
// command at -scale 25 (results/regenerate.sh) and paper scale (10 Gbps,
// 5000 flows) is the same command at -scale 1: minutes per table, hours
// for the whole paper on two cores. -only '^fig4_core$' runs one table.
//
// -scenario runs one versioned JSON document (flows, network, run
// lengths, seed) instead of the paper sweep, as a one-run job; the
// document fixes the seed and the size, so -seed, -scale and -quick
// beside it are usage errors. -replay re-runs the config of a failure
// record: a failure that recurs is printed and exits 1, a run that now
// completes prints its per-flow table.
//
// Three observation surfaces are opt-in and never perturb results:
// -progress prints a live status line (jobs done/running, estimator
// ETA, fidelity tier) to stderr; -telemetry streams every run's
// lifecycle events as JSONL (summarize with `tracestat -telemetry`,
// validate with `fprint -check`); -pprof serves net/http/pprof plus a
// /metricsz JSON snapshot of the telemetry registry. Each table is
// also written as a versioned .json document beside its .txt form.
//
// The unit of work is one run, not one table. Every config of a job's
// plan goes through the shared attempt (internal/attempt): lease the
// run's key, serve it when the content-addressed store already holds
// it, otherwise run it and commit its core.RunResult as JSON under
// core.RunKey. Each table (.json and .txt) and manifest.json are views
// rendered from the stored runs on every invocation. The store is the
// frontier, so a sweep killed at any instant, kill -9 included, is
// resumed by running the same command again: committed runs are served,
// only the ones in flight recompute. Several processes pointed at one
// -out share the work: a run whose lease another process holds is
// waited on and then served, so each of them ends with every table. A
// run whose lease is taken over (-lease-ttl) is cancelled mid-run. A
// changed simulator computes different bytes under the same keys: give
// it a fresh -out.
//
// The sweep is fail-safe: a run that errors (or panics) fails its job,
// recorded in manifest.json with a <key>.failed.json that -replay takes
// when the failure is a core.RunError, and the remaining runs still run.
// -mem-budget and -event-budget bound every run's footprint: a job with
// a run the estimator prices over budget is recorded as "rejected" (not
// failed — the sweep still exits zero); -retries lets admission degrade
// such a run one fidelity tier at a time instead. Per-job resource
// usage is recorded in manifest.json, and reduced-fidelity output is
// marked both there and in the table itself.
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

	"ccatscale/internal/attempt"
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

// sweep is one invocation: what the flags asked for, the store and
// leases under the output directory, and the observation surfaces. run
// drives it phase by phase: buildJobs → open → plan → observe →
// runJobs → summary.
type sweep struct {
	stdout, stderr io.Writer

	// The flags more than one phase reads.
	out            string
	scale          int
	seed           uint64
	quick          bool
	parallel       int
	panicJob       string
	telemetryOut   string
	leaseTTL       time.Duration
	leaseHeartbeat time.Duration
	retries        int

	jobs []job

	// fsys is the seam every durable write goes through, so the chaos
	// build can crash the process at any syscall boundary; env holds the
	// store and leases opened on it.
	fsys store.FS
	env  attempt.Env
	man  *manifest

	// Observation surfaces; each nil when its flag is off.
	stream     *telemetry.Stream
	streamFile *os.File
	regColl    telemetry.Collector
	pt         *progressTracker

	// mu guards the manifest, the counters below and the output writers.
	mu       sync.Mutex
	injected bool
	failed   []string
	rejected []string
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
	only := fs.String("only", "", "regexp restricting which jobs run")
	scenarioPath := fs.String("scenario", "", "run one scenario document (versioned JSON; see DESIGN.md) instead of the paper sweep")
	replayPath := fs.String("replay", "", "re-run the failed run a <key>.failed.json record holds (exit 1 if the failure recurs)")
	fs.StringVar(&sw.panicJob, "panicjob", "", "inject a mid-run panic into the named job (supervisor drill)")
	wallLimit := fs.Duration("runwall", 0, "wall-clock limit per simulation run (0 = unlimited)")
	auditPol := fs.String("audit", "", "invariant auditing for every run: off (default), warn, or strict")
	memBudget := fs.String("mem-budget", "", "per-run heap budget, e.g. 512M or 2G (empty = unlimited)")
	eventBudget := fs.Int64("event-budget", 0, "per-run event-object budget (0 = unlimited)")
	fs.IntVar(&sw.retries, "retries", 0, "reduced-fidelity retries for over-budget runs")
	cpuProfile := fs.String("cpuprofile", "", "write a CPU profile of the sweep to this file (go tool pprof)")
	memProfile := fs.String("memprofile", "", "write a heap profile at sweep end to this file (go tool pprof)")
	progress := fs.Bool("progress", false, "print a live sweep status line to stderr (jobs done/running/rejected, estimator ETA, fidelity tier)")
	fs.StringVar(&sw.telemetryOut, "telemetry", "", "write a telemetry JSONL stream of every run to this file (analyze with tracestat -telemetry)")
	pprofAddr := fs.String("pprof", "", "serve net/http/pprof and a /metricsz telemetry snapshot on this address (e.g. localhost:6060)")
	fs.DurationVar(&sw.leaseTTL, "lease-ttl", 30*time.Second, "run lease staleness deadline: a claim whose heartbeat is older may be taken over by another process")
	fs.DurationVar(&sw.leaseHeartbeat, "lease-heartbeat", 0, "lease refresh interval (0 = ttl/6); must be under a third of -lease-ttl")
	if err := fs.Parse(argv); err != nil {
		return 2
	}
	fail := func(code int, msg any) int {
		fmt.Fprintln(stderr, "reproduce:", msg)
		return code
	}
	set := map[string]bool{}
	fs.Visit(func(f *flag.Flag) { set[f.Name] = true })
	for _, c := range []struct {
		mode     string
		excludes []string
	}{
		{"replay", []string{"scenario", "only", "panicjob"}},
		{"scenario", []string{"seed", "scale", "quick"}}, // the document sets them
	} {
		for _, other := range c.excludes {
			if set[c.mode] && set[other] {
				return fail(2, fmt.Sprintf("-%s and -%s do not combine", c.mode, other))
			}
		}
	}
	if *replayPath != "" {
		return replay(*replayPath, stdout, stderr)
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

	// The governance flags every job's Setting is overlaid with.
	govern := core.Setting{WallLimit: *wallLimit, Audit: *auditPol, Retries: sw.retries}
	if *memBudget != "" || *eventBudget > 0 {
		heapBytes := int64(0)
		if *memBudget != "" {
			var err error
			if heapBytes, err = parseByteSize(*memBudget); err != nil {
				return fail(2, fmt.Sprintf("bad -mem-budget: %v", err))
			}
		}
		govern.Budget = &budget.Budget{HeapBytes: heapBytes, Events: *eventBudget}
	}

	if err := sw.buildJobs(govern, *scenarioPath); err != nil {
		return fail(2, err)
	}
	if err := sw.open(sweepFS()); err != nil {
		return fail(1, err)
	}
	var plans []plan
	for _, j := range sw.jobs {
		if onlyRE == nil || onlyRE.MatchString(j.name) {
			plans = append(plans, sw.plan(j))
		}
	}
	stopObserving, err := sw.observe(plans, *pprofAddr, *progress)
	if err != nil {
		return fail(1, err)
	}
	defer stopObserving()
	sw.runJobs(plans)
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

// open opens the store and lease space under the output directory on
// fsys and starts the manifest this invocation writes.
func (sw *sweep) open(fsys store.FS) error {
	sw.fsys = fsys
	if err := fsys.MkdirAll(sw.out, 0o755); err != nil {
		return err
	}
	st, err := store.OpenFS(filepath.Join(sw.out, "store"), fsys)
	if err != nil {
		return err
	}
	leases, err := store.NewLeasesFS(fsys, sw.out, store.ProcessOwner(), sw.leaseTTL)
	if err != nil {
		return err
	}
	sw.env = attempt.Env{
		Out: sw.out, FS: fsys, Leases: leases, Store: st, Stderr: sw.stderr,
		Retries: sw.retries, Heartbeat: sw.leaseHeartbeat,
	}
	sw.man = newManifest(sw.seed, sw.scale, sw.quick)
	return nil
}

// plan is one job's runs: its entry's configs, each with its key and
// whether the store already holds it when the sweep starts.
type plan struct {
	job
	cfgs   []core.RunConfig
	keys   []string
	stored []bool
	err    error // the plan could not be built; nothing runs
}

// plan builds the job's runs, applying the -panicjob drill first. Plan-
// building code runs outside the simulation supervisor, so it has a
// panic net of its own: no single job can take down the sweep.
func (sw *sweep) plan(j job) (p plan) {
	if sw.panicJob == j.name {
		// Fire inside the warm-up of every run of this job: early enough
		// to fail fast, late enough that the simulation is genuinely under
		// way when the supervisor catches it.
		j.setting.FaultPanicAt = sim.Second
		sw.injected = true
	}
	p.job = j
	defer func() {
		if r := recover(); r != nil {
			p.err = fmt.Errorf("panic outside supervisor: %v\n%s", r, debug.Stack())
		}
	}()
	p.cfgs = j.entry.Configs(j.setting, j.args)
	for _, cfg := range p.cfgs {
		key, err := core.RunKey(cfg)
		if err != nil {
			p.err = err
			return p
		}
		p.keys = append(p.keys, key)
		p.stored = append(p.stored, sw.env.Store.Has(key))
	}
	return p
}

// runJobs takes every run of every plan through the shared attempt, at
// most -parallel at a time in plan order, and records each job as soon
// as its last run resolves.
func (sw *sweep) runJobs(plans []plan) {
	sem := make(chan struct{}, max(sw.parallel, 1))
	var wg sync.WaitGroup
	for _, p := range plans {
		start := time.Now()
		if p.err != nil {
			sw.record(p, start, 0, []error{p.err})
			continue
		}
		var coll telemetry.Collector
		if sw.stream != nil {
			coll = sw.stream.Collector(p.name)
		}
		coll = telemetry.Multi(coll, sw.regColl)
		var (
			mu     sync.Mutex
			left   = len(p.cfgs)
			cached int
			errs   = make([]error, len(p.cfgs))
		)
		for i := range p.cfgs {
			sem <- struct{}{}
			wg.Add(1)
			go func() {
				defer wg.Done()
				defer func() { <-sem }()
				cfg := p.cfgs[i]
				cfg.Collector = coll
				served, err := sw.runOne(p, i, cfg)
				mu.Lock()
				if served {
					cached++
				}
				if err != nil {
					errs[i] = fmt.Errorf("config %d: %w", i, err)
				}
				left--
				last := left == 0
				mu.Unlock()
				if last {
					sw.record(p, start, cached, errs)
				}
			}()
		}
	}
	wg.Wait()
}

// runOne resolves run i of p: served when the store held it at plan time,
// otherwise one attempt, which may still find it committed by another
// process.
func (sw *sweep) runOne(p plan, i int, cfg core.RunConfig) (served bool, err error) {
	if sw.pt != nil {
		defer func() { sw.pt.runEnded(p.name, i, served) }()
	}
	if p.stored[i] {
		return true, nil
	}
	if sw.pt != nil {
		sw.pt.runStarted(p.name, cfg.Fidelity)
	}
	o, err := attempt.Run(context.Background(), sw.env, p.keys[i], p.keys[i], cfg, 0)
	return o.Cached, err
}

// record renders a finished job's views from its stored runs — or
// classifies why it has none: rejected at admission, or failed — reports
// it, and writes the manifest. errs holds each run's error.
func (sw *sweep) record(p plan, start time.Time, cached int, errs []error) {
	rec := &jobRecord{Runs: p.keys, Cached: cached}
	err := errors.Join(errs...)
	results, usage, lerr := sw.loadRuns(p.keys)
	if err == nil {
		err = lerr
	}
	if err == nil {
		err = sw.render(p, results, usage, start)
	}
	wall := time.Since(start)
	rec.Wall = wall.Round(time.Millisecond).String()
	if usage.Runs > 0 {
		rec.Usage = &usage
		rec.Degraded = usage.Degraded()
		rec.Fidelity = usage.MaxFidelity
	}
	var be *budget.BudgetError
	sw.mu.Lock()
	defer sw.mu.Unlock()
	switch {
	case err != nil && errors.As(err, &be) && be.Stage == budget.StageAdmission:
		// Admission control refused a run's predicted footprint: it never
		// ran, siblings continue, and the sweep still exits zero — a
		// rejection is governance working, not a failure.
		rec.Status = "rejected"
		rec.Error = err.Error()
		sw.rejected = append(sw.rejected, p.name)
		fmt.Fprintf(sw.stdout, "%-24s %8s  REJECTED (over budget): %v\n",
			p.name, wall.Round(time.Second), be)
	case err != nil:
		rec.Status = "failed"
		rec.Error = fmt.Sprintf("%s: %v", p.name, err)
		var re *core.RunError
		for i, rerr := range errs {
			if errors.As(rerr, &re) {
				rec.FailureFile = attempt.FailureFile(p.keys[i])
				break
			}
		}
		sw.failed = append(sw.failed, p.name)
		fmt.Fprintf(sw.stderr, "reproduce: %-24s FAILED after %s: %v\n",
			p.name, wall.Round(time.Second), err)
	default:
		rec.Status = "done"
		rec.File = p.name + ".txt"
		rec.JSON = p.name + ".json"
		note := ""
		if rec.Degraded {
			note = "  (degraded)"
		}
		if cached > 0 {
			note += fmt.Sprintf("  (%d of %d runs from store)", cached, len(p.keys))
		}
		fmt.Fprintf(sw.stdout, "%-24s %8s  → %s%s\n",
			p.name, wall.Round(time.Second), filepath.Join(sw.out, rec.File), note)
	}
	if sw.pt != nil {
		sw.pt.jobEnded(p.name, rec.Status)
	}
	sw.man.Jobs[p.name] = rec
	if err := sw.man.save(sw.fsys, sw.out); err != nil && sw.fatalErr == nil {
		sw.fatalErr = err
	}
}

// render writes the job's table views from its stored runs: the JSON
// table, then its text rendering with the volatile wall footer, both
// committed atomically.
func (sw *sweep) render(p plan, results []core.RunResult, usage budget.Usage, start time.Time) (err error) {
	defer func() {
		if r := recover(); r != nil {
			err = fmt.Errorf("panic outside supervisor: %v\n%s", r, debug.Stack())
		}
	}()
	tab := p.entry.Table(p.setting, p.args, results)
	if usage.Degraded() {
		tab.AddNote("reduced fidelity: tier %d, series decimation %d× (budget governance)",
			usage.MaxFidelity, usage.MaxDecimation)
	}
	var buf bytes.Buffer
	if err := tab.WriteJSON(&buf); err != nil {
		return err
	}
	if err := store.WriteFileAtomicFS(sw.fsys, filepath.Join(sw.out, p.name+".json"), buf.Bytes()); err != nil {
		return err
	}
	return writeTable(sw.fsys, filepath.Join(sw.out, p.name+".txt"), tab, sw.seed, start, usage.Degraded())
}

// loadRuns reads and decodes the stored runs under keys, in order, and
// merges the usage of every one it could read: a failed job still
// reports what its successful runs consumed. err is the first run that
// could not be read.
func (sw *sweep) loadRuns(keys []string) (results []core.RunResult, usage budget.Usage, err error) {
	results = make([]core.RunResult, len(keys))
	for i, key := range keys {
		payload, rerr := sw.env.Store.Get(key)
		if rerr == nil {
			rerr = json.Unmarshal(payload, &results[i])
		}
		if rerr == nil {
			usage.Merge(results[i].Usage)
		} else if err == nil {
			err = fmt.Errorf("run %s: %w", key, rerr)
		}
	}
	return results, usage, err
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
	if len(sw.rejected) > 0 {
		fmt.Fprintf(sw.stdout, "reproduce: %d jobs rejected over budget: %s\n",
			len(sw.rejected), strings.Join(sw.rejected, ", "))
		fmt.Fprintf(sw.stdout, "reproduce: rerun with -retries 1 to admit their runs one fidelity tier lower\n")
	}
	if len(sw.failed) > 0 {
		fmt.Fprintf(sw.stderr, "reproduce: %d jobs failed: %s\n",
			len(sw.failed), strings.Join(sw.failed, ", "))
		fmt.Fprintf(sw.stderr, "reproduce: rerun the same command to retry them; stored runs are served\n")
		return 1
	}
	return 0
}

// observe attaches the live telemetry surfaces: a JSONL stream file, a
// metrics registry behind -pprof's /metricsz, and the -progress status
// line. All are observation-only — runs stay bit-identical with them
// attached. The returned stop ends the progress line and the debug
// server; the stream is flushed by summary, which reports its errors.
func (sw *sweep) observe(plans []plan, pprofAddr string, progress bool) (stop func(), err error) {
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
		sw.pt = newProgressTracker(sw.stderr, plans)
	}
	return func() {
		if sw.pt != nil {
			sw.pt.finish()
		}
		stopDebug()
	}, nil
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

// writeTable commits one text view atomically through fsys: the table,
// then the volatile "[seed N, wall …]" footer.
func writeTable(fsys store.FS, path string, tab *report.Table, seed uint64, start time.Time, degraded bool) error {
	var buf bytes.Buffer
	if err := tab.WriteText(&buf); err != nil {
		return err
	}
	marker := ""
	if degraded {
		marker = ", degraded"
	}
	fmt.Fprintf(&buf, "\n[seed %d, wall %s%s]\n", seed, time.Since(start).Round(time.Millisecond), marker)
	if err := store.WriteFileAtomicFS(fsys, path, buf.Bytes()); err != nil {
		return fmt.Errorf("writing %s: %w", path, err)
	}
	return nil
}
