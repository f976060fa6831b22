package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"strings"
	"sync"
	"testing"
	"time"

	"ccatscale/internal/budget"
	"ccatscale/internal/core"
	"ccatscale/internal/experiments"
	"ccatscale/internal/report"
	"ccatscale/internal/sim"
	"ccatscale/internal/store"
	"ccatscale/internal/telemetry"
	"ccatscale/internal/units"
)

var update = flag.Bool("update", false, "rewrite testdata/jobkeys.golden with the job names and keys the sweep has now")

// testSetting is a deliberately tiny regime so the regression tests
// stay in the seconds range.
func testSetting() core.Setting {
	return core.Setting{
		Name:       "ReproduceTest",
		Rate:       20 * units.MbitPerSec,
		Buffer:     256 * units.KB,
		FlowCounts: []int{2},
		Warmup:     sim.Second,
		Duration:   3 * sim.Second,
		Stagger:    100 * sim.Millisecond,
	}
}

// testJob binds a catalog entry to testSetting under the entry's name.
func testJob(entry string, a experiments.Args) job {
	e, ok := experiments.Lookup(entry)
	if !ok {
		panic("no catalog entry " + entry)
	}
	return job{name: entry, setting: testSetting(), entry: e, args: a}
}

// TestMathisTableDeterministic is the repeatability regression: the
// same seed must yield byte-identical table text, or every "reproduce"
// claim in EXPERIMENTS.md is void. Each sweep computes its runs into a
// store of its own.
func TestMathisTableDeterministic(t *testing.T) {
	render := func() string {
		dir := t.TempDir()
		sw := newTestSweep(t, dir, store.OSFS())
		sw.parallel = 2
		runTestJobs(sw, testJob("mathis", experiments.Args{Seed: 17}))
		return tableBody(t, filepath.Join(dir, "mathis.txt"))
	}
	a, b := render(), render()
	if a != b {
		t.Fatalf("same seed, different table text:\n--- first\n%s--- second\n%s", a, b)
	}
	if !strings.Contains(a, "ReproduceTest") {
		t.Fatalf("table text missing setting name:\n%s", a)
	}
}

func TestManifestRoundTrip(t *testing.T) {
	dir := t.TempDir()
	m := newManifest(7, 10, true)
	m.Jobs["fig4_edge"] = &jobRecord{Status: "done", File: "fig4_edge.txt", Wall: "1s", Runs: []string{"run1-aa", "run1-bb"}, Cached: 1}
	m.Jobs["fig5_core"] = &jobRecord{Status: "failed", Error: "boom", FailureFile: "run1-cc.failed.json"}
	if err := m.save(store.OSFS(), dir); err != nil {
		t.Fatal(err)
	}
	got := loadManifest(t, dir)
	if got.Version != manifestVersion || got.Seed != 7 || got.Scale != 10 || !got.Quick {
		t.Fatalf("parameters did not round-trip: %+v", got)
	}
	if rec := got.Jobs["fig5_core"]; rec == nil || rec.Status != "failed" || rec.Error != "boom" || rec.FailureFile != "run1-cc.failed.json" {
		t.Fatalf("failed job record did not round-trip: %+v", rec)
	}
	if rec := got.Jobs["fig4_edge"]; rec == nil || !slices.Equal(rec.Runs, []string{"run1-aa", "run1-bb"}) || rec.Cached != 1 {
		t.Fatalf("done job record did not round-trip: %+v", rec)
	}
}

// TestManifestAbsent: the manifest is a view of the jobs an invocation
// ran; one that ran none writes none.
func TestManifestAbsent(t *testing.T) {
	dir := t.TempDir()
	var stdout, stderr bytes.Buffer
	if code := run([]string{"-out", dir, "-only", "^none$"}, &stdout, &stderr); code != 0 {
		t.Fatalf("exit = %d\nstderr:\n%s", code, &stderr)
	}
	if _, err := os.Stat(filepath.Join(dir, manifestFile)); !os.IsNotExist(err) {
		t.Fatalf("a sweep that ran nothing wrote a manifest (%v)", err)
	}
}

// TestTablesFollowTheirEntry: tables are rendered from the stored runs on
// every invocation, so a changed header row — or any other change to an
// entry's table — shows at once, with the runs served, not computed.
func TestTablesFollowTheirEntry(t *testing.T) {
	dir := t.TempDir()
	j := testJob("mathis", experiments.Args{Seed: 7})
	runTestJobs(newTestSweep(t, dir, store.OSFS()), j)
	renamed := j
	renamed.entry.Table = func(s core.Setting, a experiments.Args, results []core.RunResult) *report.Table {
		tab := j.entry.Table(s, a, results)
		tab.Headers[2] = "C(drop)"
		return tab
	}
	sw := newTestSweep(t, dir, store.OSFS())
	runTestJobs(sw, renamed)
	if rec := sw.man.Jobs["mathis"]; rec == nil || rec.Status != "done" || rec.Cached != len(rec.Runs) {
		t.Fatalf("rerender computed runs: %+v", rec)
	}
	if body := tableBody(t, filepath.Join(dir, "mathis.txt")); !strings.Contains(body, "C(drop)") {
		t.Fatalf("table kept the old header row:\n%s", body)
	}
}

// storeMathis runs a two-config mathis job into dir and returns it, so a
// test can rerun an altered copy over the same stored runs.
func storeMathis(t *testing.T, dir string) job {
	j := testJob("mathis", experiments.Args{Seed: 7})
	j.setting.FlowCounts = []int{2, 3}
	runTestJobs(newTestSweep(t, dir, store.OSFS()), j)
	return j
}

// rerunServes reruns j into dir and checks its record served exactly
// cached runs from the store and computed the rest.
func rerunServes(t *testing.T, dir, label string, j job, cached int) {
	t.Helper()
	sw := newTestSweep(t, dir, store.OSFS())
	runTestJobs(sw, j)
	if rec := sw.man.Jobs["mathis"]; rec == nil || rec.Status != "done" || rec.Cached != cached {
		t.Errorf("%s plan: record %+v, want %d runs served", label, rec, cached)
	}
}

// TestResumeRefusesMismatchedParams guards against silently mixing runs
// from different seeds or windows in one output directory: a run's key
// is its own config, so a rerun with another seed or a longer window is
// served none of the stored runs and computes every one.
func TestResumeRefusesMismatchedParams(t *testing.T) {
	dir := t.TempDir()
	j := storeMathis(t, dir)
	reseeded := j
	reseeded.args.Seed = 8
	longer := j
	longer.setting.Duration *= 2
	rerunServes(t, dir, "reseeded", reseeded, 0)
	rerunServes(t, dir, "longer", longer, 0)
}

// TestResumeRefusesStaleJobSet: the experiment definitions changed under
// the output directory. A run's key is not its job's name or its place
// in the plan, so an edited plan — its configs reordered, one of them
// changed — is served exactly the runs it shares with the store.
func TestResumeRefusesStaleJobSet(t *testing.T) {
	dir := t.TempDir()
	j := storeMathis(t, dir)
	reordered := j
	reordered.entry.Configs = func(s core.Setting, a experiments.Args) []core.RunConfig {
		cfgs := j.entry.Configs(s, a)
		slices.Reverse(cfgs)
		return cfgs
	}
	edited := j
	edited.setting.FlowCounts = []int{2, 4}
	rerunServes(t, dir, "reordered", reordered, 2)
	rerunServes(t, dir, "edited", edited, 1)
}

// TestJobNamesAndKeysGolden pins the sweep's 15 job names and, per job,
// the ordered keys of the runs its table is rendered from, at the
// default flags and at the CI smoke's; a key that moves orphans every
// stored run. testdata/jobkeys.golden was rewritten when each entry's
// declared window entered its job's setting, and again when the unit
// of work became the run (-update regenerates it).
func TestJobNamesAndKeysGolden(t *testing.T) {
	var got bytes.Buffer
	for _, tier := range []struct {
		label string
		scale int
		quick bool
	}{
		{"default", 10, false},
		{"-quick -scale 50 -seed 7", 50, true},
	} {
		sw := &sweep{scale: tier.scale, seed: 7, quick: tier.quick}
		if err := sw.buildJobs(core.Setting{}, ""); err != nil {
			t.Fatal(err)
		}
		fmt.Fprintf(&got, "== reproduce %s ==\n", tier.label)
		for _, j := range sw.jobs {
			fmt.Fprint(&got, j.name)
			for _, cfg := range j.entry.Configs(j.setting, j.args) {
				key, err := core.RunKey(cfg)
				if err != nil {
					t.Fatal(err)
				}
				fmt.Fprintf(&got, " %s", key)
			}
			fmt.Fprintln(&got)
		}
	}
	for _, old := range []string{"table1", "fig2", "fig3", "burstiness", "finding4"} {
		if strings.Contains(got.String(), old) {
			t.Errorf("a job is still named after %q:\n%s", old, &got)
		}
	}
	if n := bytes.Count(got.Bytes(), []byte("\n")); n != 2*(15+1) {
		t.Errorf("%d lines, want 15 jobs under each of two flag sets:\n%s", n, &got)
	}
	if *update {
		if err := os.WriteFile("testdata/jobkeys.golden", got.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile("testdata/jobkeys.golden")
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got.Bytes(), want) {
		t.Fatalf("job names or run keys moved\n--- got\n%s--- want\n%s", &got, want)
	}
}

// TestJobsRunTheirDeclaredLength: a job's setting carries the window its
// catalog entry declares, scaled from the tier's, and its plan sweeps the
// entry's RTT set — the run lengths results/regenerate.sh used to pass as
// -duration and -rtt flags.
func TestJobsRunTheirDeclaredLength(t *testing.T) {
	for _, tier := range []struct {
		scale int
		quick bool
		base  sim.Time
	}{{25, false, 60 * sim.Second}, {50, true, 20 * sim.Second}} {
		sw := &sweep{scale: tier.scale, seed: 7, quick: tier.quick}
		if err := sw.buildJobs(core.Setting{}, ""); err != nil {
			t.Fatal(err)
		}
		for name, want := range map[string]struct {
			factor  float64
			configs int
		}{
			"mathis_core": {1, 3}, "intra_reno_core": {2, 3}, "intra_cubic_core": {2, 3},
			"fig4_edge": {1.5, 9}, "fig4_core": {1.5, 9}, "fig5_core": {1, 9}, "fig6_core": {2, 9},
			"fig7_core": {2, 9}, "fig8_reno_core": {2.5, 9}, "fig8_cubic_core": {2.5, 9},
		} {
			i := slices.IndexFunc(sw.jobs, func(j job) bool { return j.name == name })
			if i < 0 {
				t.Fatalf("no job %s", name)
			}
			j := sw.jobs[i]
			cfgs := j.entry.Configs(j.setting, j.args)
			if len(cfgs) != want.configs {
				t.Errorf("quick=%v %s: %d configs, want %d", tier.quick, name, len(cfgs), want.configs)
			}
			window := sim.Time(float64(tier.base) * want.factor)
			for _, cfg := range cfgs {
				if cfg.Duration != window {
					t.Errorf("quick=%v %s: a config runs %v, want %v", tier.quick, name, cfg.Duration, window)
				}
				if strings.HasPrefix(name, "intra_") && cfg.Flows[0].RTT != 20*sim.Millisecond {
					t.Errorf("%s: a config at base RTT %v, want 20ms only", name, cfg.Flows[0].RTT)
				}
			}
		}
	}
}

// TestResultsAreTheJobs: results/ holds what the paper sweep writes and
// nothing else — every committed table is non-empty, parses beside its
// JSON twin, and is named after a job; every job has its file. A 0-byte
// placeholder or a file no command regenerates fails here.
func TestResultsAreTheJobs(t *testing.T) {
	sw := &sweep{scale: 25, seed: 7}
	if err := sw.buildJobs(core.Setting{}, ""); err != nil {
		t.Fatal(err)
	}
	var jobs []string
	for _, j := range sw.jobs {
		jobs = append(jobs, j.name)
	}
	for _, dir := range []string{"../../results", "../../results/full"} {
		files, err := filepath.Glob(filepath.Join(dir, "*.txt"))
		if err != nil || len(files) == 0 {
			t.Fatalf("%s/*.txt: %v, %v", dir, files, err)
		}
		for _, f := range files {
			name := strings.TrimSuffix(filepath.Base(f), ".txt")
			if !slices.Contains(jobs, name) {
				t.Errorf("%s is not the result of any job", f)
			}
			text, err := os.ReadFile(f)
			if err != nil || len(text) == 0 {
				t.Errorf("%s: empty or unreadable (%v)", f, err)
			}
			doc, err := os.Open(strings.TrimSuffix(f, ".txt") + ".json")
			if err != nil {
				t.Errorf("%s has no JSON twin: %v", f, err)
				continue
			}
			tab, err := report.ReadJSON(doc)
			doc.Close()
			if err != nil {
				t.Errorf("%s.json: %v", name, err)
				continue
			}
			var rendered bytes.Buffer
			if err := tab.WriteText(&rendered); err != nil {
				t.Fatal(err)
			}
			if !bytes.HasPrefix(text, rendered.Bytes()) {
				t.Errorf("%s is not its JSON twin rendered as text", f)
			}
		}
	}
	for _, name := range jobs {
		if _, err := os.Stat(filepath.Join("../../results", name+".txt")); err != nil {
			t.Errorf("job %s has no committed result: %v", name, err)
		}
	}
}

// TestUsageParityWithTheSink: a job's manifest usage is merged from its
// stored runs' results. The runs and events below were recorded
// through the per-job usage sink at the commit that deleted it, for the
// same flags (fig5_core's at the commit before fig6 declared a longer
// window than the tier's); a nine-config and the twelve-config job must
// still report them.
func TestUsageParityWithTheSink(t *testing.T) {
	if testing.Short() {
		t.Skip("runs real sweeps")
	}
	if runtime.GOARCH != "amd64" {
		t.Skipf("event counts were recorded on amd64; on %s fused multiply-adds may move them", runtime.GOARCH)
	}
	dir := t.TempDir()
	var stdout, stderr bytes.Buffer
	code := run([]string{"-out", dir, "-quick", "-scale", "50", "-seed", "7",
		"-only", "^(fig5_core|ext_outage_core)$"}, &stdout, &stderr)
	if code != 0 {
		t.Fatalf("exit = %d\nstdout:\n%s\nstderr:\n%s", code, &stdout, &stderr)
	}
	m := loadManifest(t, dir)
	for name, want := range map[string]budget.Usage{
		"fig5_core":       {Runs: 9, Events: 2512634},
		"ext_outage_core": {Runs: 12, Events: 3155388},
	} {
		rec := m.Jobs[name]
		if rec == nil || rec.Usage == nil || rec.Usage.Runs != want.Runs || rec.Usage.Events != want.Events {
			t.Errorf("%s: record %+v, want usage of %d runs / %d events", name, rec, want.Runs, want.Events)
		}
	}
}

// newTestSweep opens a sweep over dir on fsys with the flag layer's
// defaults, so a test can take hand-built jobs through runTestJobs.
func newTestSweep(t *testing.T, dir string, fsys store.FS) *sweep {
	t.Helper()
	sw := &sweep{
		stdout: new(bytes.Buffer), stderr: new(bytes.Buffer),
		out: dir, seed: 7, scale: 10, parallel: 1,
		leaseTTL: 30 * time.Second, leaseHeartbeat: 5 * time.Second,
	}
	if err := sw.open(fsys); err != nil {
		t.Fatal(err)
	}
	return sw
}

// runTestJobs plans and runs jobs on sw.
func runTestJobs(sw *sweep, jobs ...job) {
	var plans []plan
	for _, j := range jobs {
		plans = append(plans, sw.plan(j))
	}
	sw.runJobs(plans)
}

// loadManifest reads the manifest a sweep wrote into dir.
func loadManifest(t *testing.T, dir string) *manifest {
	t.Helper()
	data, err := os.ReadFile(filepath.Join(dir, manifestFile))
	if err != nil {
		t.Fatal(err)
	}
	var m manifest
	if err := json.Unmarshal(data, &m); err != nil {
		t.Fatalf("manifest: %v", err)
	}
	return &m
}

// tableBody reads a text view without its volatile footer line.
func tableBody(t *testing.T, path string) string {
	t.Helper()
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	body, _, ok := strings.Cut(string(data), "\n[seed ")
	if !ok {
		t.Fatalf("%s has no footer:\n%s", path, data)
	}
	return body
}

// TestFailedConfigKeepsSiblingsUsage: a job one of whose three runs
// panics is recorded failed with the replayable record of that run and
// the other two's usage — two runs, not three.
func TestFailedConfigKeepsSiblingsUsage(t *testing.T) {
	j := testJob("mathis", experiments.Args{Seed: 7})
	j.setting.FlowCounts = []int{2, 3, 4}
	configs := j.entry.Configs
	j.entry.Configs = func(s core.Setting, a experiments.Args) []core.RunConfig {
		cfgs := configs(s, a)
		cfgs[1].FaultPanicAt = sim.Second
		return cfgs
	}
	var want budget.Usage
	for i, cfg := range configs(j.setting, j.args) {
		if i == 1 {
			continue
		}
		res, err := core.Run(cfg)
		if err != nil {
			t.Fatal(err)
		}
		want.Merge(res.Usage)
	}

	dir := t.TempDir()
	sw := newTestSweep(t, dir, store.OSFS())
	runTestJobs(sw, j)
	rec := sw.man.Jobs[j.name]
	if rec == nil || rec.Status != "failed" || !strings.Contains(rec.Error, "config 1:") ||
		rec.FailureFile != rec.Runs[1]+".failed.json" {
		t.Fatalf("record: %+v\nstderr:\n%s", rec, sw.stderr)
	}
	if _, err := os.Stat(filepath.Join(dir, rec.FailureFile)); err != nil {
		t.Fatalf("failure record: %v", err)
	}
	if rec.Usage == nil || rec.Usage.Runs != 2 || rec.Usage.Events != want.Events {
		t.Fatalf("usage %+v, want the two successful configs' (2 runs, %d events)", rec.Usage, want.Events)
	}
}

// TestLeaseLossCancelsRunningPlan: each run executes under its own
// lease, so a lease taken over mid-run stops that run long before it
// would have finished, and its job is recorded failed.
func TestLeaseLossCancelsRunningPlan(t *testing.T) {
	slow := core.CoreScaleScaled(10) // minutes of wall per config
	slow.FlowCounts = []int{100}
	e, _ := experiments.Lookup("mathis")
	j := job{name: "slow", setting: slow, entry: e, args: experiments.Args{Seed: 7}}

	dir := t.TempDir()
	sw := newTestSweep(t, dir, store.OSFS())
	sw.leaseTTL, sw.leaseHeartbeat = time.Second, 10*time.Millisecond
	sw.env.Heartbeat = sw.leaseHeartbeat
	started := make(chan struct{})
	var once sync.Once
	sw.regColl = telemetry.CollectorFunc(func(ev telemetry.Event) {
		if ev.Kind == telemetry.KindRunStart {
			once.Do(func() { close(started) })
		}
	})
	p := sw.plan(j)
	done := make(chan struct{})
	go func() {
		defer close(done)
		sw.runJobs([]plan{p})
	}()
	select {
	case <-started:
	case <-time.After(30 * time.Second):
		t.Fatal("the run never started")
	}
	// Another process's takeover, as the holder sees it: the lease file
	// names a different owner.
	thief := []byte(`{"owner":"other-host-999","pid":999,"since":"2026-01-01T00:00:00Z"}` + "\n")
	if err := os.WriteFile(filepath.Join(dir, "leases", p.keys[0]+".lease"), thief, 0o644); err != nil {
		t.Fatal(err)
	}
	select {
	case <-done:
	case <-time.After(30 * time.Second):
		t.Fatal("losing the lease did not stop the run")
	}
	rec := sw.man.Jobs["slow"]
	if rec == nil || rec.Status != "failed" ||
		!strings.Contains(rec.Error, "config 0:") || !strings.Contains(rec.Error, "run canceled") {
		t.Fatalf("record after lease loss: %+v", rec)
	}
}

// TestRunIsolationAndResume is the acceptance drill: a job with an
// injected panic fails with a replayable record, the other selected job
// still completes, the sweep exits nonzero — and running the same
// command again computes only the failed job's runs.
func TestRunIsolationAndResume(t *testing.T) {
	if testing.Short() {
		t.Skip("runs real sweeps")
	}
	dir := t.TempDir()
	base := []string{
		"-out", dir, "-quick", "-scale", "50", "-seed", "11", "-parallel", "4",
		"-only", "^ext_(burstloss|churn)_core$",
	}
	var stdout, stderr bytes.Buffer
	code := run(append(base, "-panicjob", "ext_burstloss_core"), &stdout, &stderr)
	if code != 1 {
		t.Fatalf("exit = %d, want 1\nstdout:\n%s\nstderr:\n%s", code, &stdout, &stderr)
	}
	if !strings.Contains(stderr.String(), "ext_burstloss_core") || !strings.Contains(stderr.String(), "FAILED") {
		t.Fatalf("stderr missing failure report:\n%s", &stderr)
	}
	if !strings.Contains(stdout.String(), "ext_churn_core") {
		t.Fatalf("healthy job did not run:\n%s", &stdout)
	}
	if _, err := os.Stat(filepath.Join(dir, "ext_churn_core.txt")); err != nil {
		t.Fatalf("healthy job output missing: %v", err)
	}

	m := loadManifest(t, dir)
	if rec := m.Jobs["ext_churn_core"]; rec == nil || rec.Status != "done" {
		t.Fatalf("churn record: %+v", rec)
	}
	rec := m.Jobs["ext_burstloss_core"]
	if rec == nil || rec.Status != "failed" || rec.FailureFile == "" {
		t.Fatalf("burstloss record: %+v", rec)
	}

	// The failure record must carry enough to replay: reason, seed,
	// virtual time of the injected fault, and the config.
	f, err := os.Open(filepath.Join(dir, rec.FailureFile))
	if err != nil {
		t.Fatal(err)
	}
	re, err := core.ReadRunError(f)
	f.Close()
	if err != nil {
		t.Fatal(err)
	}
	if re.Reason != "panic" || !strings.Contains(re.PanicMsg, "injected fault") {
		t.Fatalf("failure record reason/panic: %q / %q", re.Reason, re.PanicMsg)
	}
	if re.VirtualTime != sim.Second {
		t.Fatalf("failure virtual time = %v, want %v", re.VirtualTime, sim.Second)
	}
	if re.Config.Seed == 0 || len(re.Config.Flows) == 0 {
		t.Fatalf("failure record config incomplete: %+v", re.Config)
	}

	// The same command without the fault: the completed job is served
	// from the store, only the failed one computes.
	stdout.Reset()
	stderr.Reset()
	code = run(base, &stdout, &stderr)
	if code != 0 {
		t.Fatalf("rerun exit = %d\nstdout:\n%s\nstderr:\n%s", code, &stdout, &stderr)
	}
	m = loadManifest(t, dir)
	if rec := m.Jobs["ext_churn_core"]; rec == nil || rec.Status != "done" || rec.Cached != len(rec.Runs) {
		t.Fatalf("rerun did not serve the completed job: %+v", rec)
	}
	if rec := m.Jobs["ext_burstloss_core"]; rec == nil || rec.Status != "done" || rec.Error != "" || rec.Cached != 0 {
		t.Fatalf("burstloss record after rerun: %+v", rec)
	}
}

// TestChurnJobIsGoverned: ext_churn_core ran on a second harness with no
// supervisor, auditor or telemetry, so -panicjob was a silent no-op for
// it and -telemetry recorded nothing. It is an arrival process of the one
// harness now: the drill fails the job with a record `reproduce -replay`
// reproduces, and an audited, traced run leaves events in the stream.
func TestChurnJobIsGoverned(t *testing.T) {
	dir := t.TempDir()
	base := []string{"-out", dir, "-quick", "-scale", "50", "-seed", "7", "-only", "^ext_churn_core$"}
	var stdout, stderr bytes.Buffer
	if code := run(append(base, "-panicjob", "ext_churn_core"), &stdout, &stderr); code != 1 {
		t.Fatalf("exit = %d, want 1\nstdout:\n%s\nstderr:\n%s", code, &stdout, &stderr)
	}
	rec := loadManifest(t, dir).Jobs["ext_churn_core"]
	if rec == nil || rec.FailureFile == "" {
		t.Fatalf("the manifest names no failure record: %+v", rec)
	}
	record := filepath.Join(dir, rec.FailureFile)
	f, err := os.Open(record)
	if err != nil {
		t.Fatalf("the drill left no failure record: %v", err)
	}
	re, err := core.ReadRunError(f)
	f.Close()
	if err != nil {
		t.Fatal(err)
	}
	if re.Reason != "panic" || re.Config.Arrivals == nil {
		t.Fatalf("failure record: reason %q, arrivals %+v", re.Reason, re.Config.Arrivals)
	}
	// The replay runs the recorded config and fails the same way: the same
	// panic at the same virtual time after the same events.
	stdout.Reset()
	stderr.Reset()
	code := run([]string{"-replay", record}, &stdout, &stderr)
	same := fmt.Sprintf(": %s [seed=%d vt=%v events=%d ", re.PanicMsg, re.Seed, re.VirtualTime, re.Events)
	if code != 1 || !strings.Contains(stderr.String(), "failure reproduced: core: run failed: panic"+same) {
		t.Fatalf("-replay exit %d, stderr:\n%s\nwant exit 1 and the recorded failure%s", code, &stderr, same)
	}

	dir = t.TempDir()
	events := filepath.Join(dir, "events.jsonl")
	stdout.Reset()
	stderr.Reset()
	code = run([]string{"-out", dir, "-quick", "-scale", "50", "-seed", "7", "-only", "^ext_churn_core$",
		"-audit", "strict", "-telemetry", events}, &stdout, &stderr)
	if code != 0 {
		t.Fatalf("audited run exit = %d\nstdout:\n%s\nstderr:\n%s", code, &stdout, &stderr)
	}
	data, err := os.ReadFile(events)
	if err != nil {
		t.Fatal(err)
	}
	if n := bytes.Count(data, []byte("\n")); n <= 1 {
		t.Fatalf("telemetry stream holds %d lines: the churn job emitted nothing", n)
	}
}

// TestReplayOfARepairedRun: a record whose config now runs cleanly — here
// written by hand, as after a fix — replays to exit 0 and the run's
// per-flow table.
func TestReplayOfARepairedRun(t *testing.T) {
	cfg := testSetting().Build(core.UniformFlows(2, "reno", core.DefaultRTT), core.WithSeed(7))
	record := filepath.Join(t.TempDir(), "run1-hand.failed.json")
	f, err := os.Create(record)
	if err != nil {
		t.Fatal(err)
	}
	err = (&core.RunError{Reason: "panic", Seed: 7, PanicMsg: "fixed since", Config: cfg}).WriteJSON(f)
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		t.Fatal(err)
	}
	var stdout, stderr bytes.Buffer
	if code := run([]string{"-replay", record}, &stdout, &stderr); code != 0 {
		t.Fatalf("-replay exit %d\nstderr:\n%s", code, &stderr)
	}
	lines := strings.Split(stdout.String(), "\n")
	if len(lines) < 4 || !strings.Contains(lines[0], "no failure this time") ||
		!slices.Equal(strings.Fields(lines[1]), experiments.RunHeaders) {
		t.Fatalf("-replay printed:\n%s\nwant the run table under %v", &stdout, experiments.RunHeaders)
	}
	if code := run([]string{"-replay", record + ".missing"}, &stdout, &stderr); code != 2 {
		t.Fatalf("-replay of a missing record: exit %d, want 2", code)
	}
}

// TestModeFlagsDoNotCombine: -replay runs one recorded config, so a job
// selection beside it is a usage error; a scenario document sets its own
// seed and size, so an explicit -seed, -scale or -quick beside -scenario
// is one too, rather than a flag that silently does not apply. Neither
// writes a manifest.
func TestModeFlagsDoNotCombine(t *testing.T) {
	const doc = "../../examples/scenarios/parkinglot.json"
	for _, args := range [][]string{
		{"-replay", "x.failed.json", "-scenario", doc},
		{"-replay", "x.failed.json", "-only", "^fig4_core$"},
		{"-replay", "x.failed.json", "-panicjob", "fig4_core"},
		{"-scenario", doc, "-seed", "7"},
		{"-scenario", doc, "-scale", "25"},
		{"-scenario", doc, "-quick"},
	} {
		dir := t.TempDir()
		var stdout, stderr bytes.Buffer
		if code := run(append([]string{"-out", dir}, args...), &stdout, &stderr); code != 2 ||
			!strings.Contains(stderr.String(), "do not combine") {
			t.Errorf("%v: exit %d, stderr %q; want the usage error", args, code, &stderr)
		}
		if _, err := os.Stat(filepath.Join(dir, manifestFile)); !os.IsNotExist(err) {
			t.Errorf("%v: wrote a manifest (%v)", args, err)
		}
	}
}

// TestPaperScaleScenarioIsTheYardstick: the committed paper-scale
// document is the command ROADMAP's timing table and DESIGN.md's events/s
// curve were measured with — CoreScale's 10 Gbps and 375 MB, 500 BBR then
// 500 NewReno flows at 20 ms, 5 s + 10 s windows, 2 s stagger, seed 7 —
// so its one run has that config's key. Nothing runs.
func TestPaperScaleScenarioIsTheYardstick(t *testing.T) {
	sw := &sweep{}
	if err := sw.buildJobs(core.Setting{}, "../../examples/scenarios/paperscale_bbr_reno.json"); err != nil {
		t.Fatal(err)
	}
	j := sw.jobs[0]
	cfgs := j.entry.Configs(j.setting, j.args)
	s := core.CoreScale()
	s.Warmup, s.Duration, s.Stagger = 5*sim.Second, 10*sim.Second, 2*sim.Second
	flows := append(core.UniformFlows(500, "bbr", 20*sim.Millisecond), core.UniformFlows(500, "reno", 20*sim.Millisecond)...)
	want, err := core.RunKey(s.Build(flows, core.WithSeed(7)))
	if err != nil {
		t.Fatal(err)
	}
	if len(cfgs) != 1 || sw.seed != 7 {
		t.Fatalf("%d configs at seed %d, want one at seed 7", len(cfgs), sw.seed)
	}
	if got, err := core.RunKey(cfgs[0]); err != nil || got != want {
		t.Fatalf("scenario run key %s (%v), want the CoreScale yardstick's %s", got, err, want)
	}
}

// quickEdge mirrors the -quick overrides run() applies to EdgeScale, so
// the budget tests can price exactly the configs the sweep will submit.
func quickEdge() core.Setting {
	s := core.EdgeScale()
	s.Warmup, s.Duration, s.Stagger = 5*sim.Second, 20*sim.Second, 2*sim.Second
	return s
}

// mathisHeapEstimate prices one MathisSweep run of the setting,
// mirroring the sweep's config construction (the drop-timestamp cap is
// the only knob it sets beyond the setting).
func mathisHeapEstimate(s core.Setting, flows int) int64 {
	cfg := s.Build(core.UniformFlows(flows, "reno", core.DefaultRTT), core.WithSeed(core.Seed(11)))
	cfg.MaxDropTimestamps = core.DefaultDropTimestampCap
	return core.EstimateConfig(cfg).HeapBytes
}

// TestBudgetRejectionAndResume is the governance acceptance drill: under
// a heap budget every mathis_edge config is priced over, the job is
// recorded as rejected — not failed, the sweep still exits zero — and
// the sibling job completes. A rejected run leaves nothing in the store,
// so the same command without the budget computes every one of its runs
// at the fidelity it declares (none is served from the store), and its
// table is byte for byte the one a fresh -out renders.
func TestBudgetRejectionAndResume(t *testing.T) {
	if testing.Short() {
		t.Skip("runs real sweeps")
	}
	// Pick the budget just under the cheapest edge config, so admission
	// rejects all of them without running anything.
	edge := quickEdge()
	min0 := int64(0)
	for _, n := range edge.FlowCounts {
		if e := mathisHeapEstimate(edge, n); min0 == 0 || e < min0 {
			min0 = e
		}
	}
	threshold := min0 - 128<<10

	dir := t.TempDir()
	base := []string{
		"-out", dir, "-quick", "-scale", "100", "-seed", "11", "-parallel", "2",
		"-only", "^(mathis_edge|ext_burstloss_core)$",
	}
	var stdout, stderr bytes.Buffer
	code := run(append(base, "-mem-budget", fmt.Sprint(threshold)), &stdout, &stderr)
	if code != 0 {
		t.Fatalf("exit = %d, want 0 (rejection is governance, not failure)\nstdout:\n%s\nstderr:\n%s",
			code, &stdout, &stderr)
	}
	if !strings.Contains(stdout.String(), "REJECTED (over budget)") {
		t.Fatalf("stdout missing rejection report:\n%s", &stdout)
	}
	if _, err := os.Stat(filepath.Join(dir, "ext_burstloss_core.txt")); err != nil {
		t.Fatalf("sibling job output missing: %v", err)
	}
	if _, err := os.Stat(filepath.Join(dir, "mathis_edge.txt")); err == nil {
		t.Fatal("rejected job left an output table")
	}

	m := loadManifest(t, dir)
	if rec := m.Jobs["ext_burstloss_core"]; rec == nil || rec.Status != "done" {
		t.Fatalf("sibling record: %+v", rec)
	}
	rec := m.Jobs["mathis_edge"]
	if rec == nil || rec.Status != "rejected" || rec.FailureFile != "" {
		t.Fatalf("rejected record: %+v", rec)
	}
	if !strings.Contains(rec.Error, string(budget.KindHeapBytes)) ||
		!strings.Contains(rec.Error, budget.StageAdmission) {
		t.Fatalf("rejection error not structured: %q", rec.Error)
	}
	// The raw manifest is greppable for rejections (the CI smoke relies
	// on this).
	data, err := os.ReadFile(filepath.Join(dir, manifestFile))
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(data), `"status": "rejected"`) {
		t.Fatalf("manifest JSON missing rejected status:\n%s", data)
	}

	// The same command without the budget: the sibling is served, and
	// every mathis_edge run is computed — a rejection stores nothing.
	stdout.Reset()
	stderr.Reset()
	if code := run(base, &stdout, &stderr); code != 0 {
		t.Fatalf("rerun exit = %d\nstdout:\n%s\nstderr:\n%s", code, &stdout, &stderr)
	}
	m = loadManifest(t, dir)
	if rec := m.Jobs["ext_burstloss_core"]; rec == nil || rec.Status != "done" || rec.Cached != len(rec.Runs) {
		t.Fatalf("sibling was not served from the store: %+v", rec)
	}
	rec = m.Jobs["mathis_edge"]
	if rec == nil || rec.Status != "done" || rec.Cached != 0 {
		t.Fatalf("rerun record: %+v", rec)
	}
	if rec.Usage == nil || rec.Usage.Runs != len(edge.FlowCounts) || rec.Usage.Events == 0 {
		t.Fatalf("rerun record usage: %+v", rec.Usage)
	}
	got, err := os.ReadFile(filepath.Join(dir, "mathis_edge.json"))
	if err != nil {
		t.Fatal(err)
	}
	fresh := t.TempDir()
	stdout.Reset()
	stderr.Reset()
	if code := run([]string{"-out", fresh, "-quick", "-scale", "100", "-seed", "11", "-parallel", "2",
		"-only", "^mathis_edge$"}, &stdout, &stderr); code != 0 {
		t.Fatalf("fresh run exit = %d\nstderr:\n%s", code, &stderr)
	}
	want, err := os.ReadFile(filepath.Join(fresh, "mathis_edge.json"))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("table after a rejected sweep differs from a fresh -out's:\n%s\nwant:\n%s", got, want)
	}
}

func TestParseByteSize(t *testing.T) {
	for _, tc := range []struct {
		in   string
		want int64
	}{
		{"512", 512}, {"4k", 4 << 10}, {"512M", 512 << 20}, {"2G", 2 << 30},
	} {
		got, err := parseByteSize(tc.in)
		if err != nil || got != tc.want {
			t.Fatalf("parseByteSize(%q) = %d, %v; want %d", tc.in, got, err, tc.want)
		}
	}
	for _, bad := range []string{"", "-1", "0", "12parsecs", "G"} {
		if _, err := parseByteSize(bad); err == nil {
			t.Fatalf("parseByteSize(%q) accepted", bad)
		}
	}
}

func TestBadFlags(t *testing.T) {
	var stdout, stderr bytes.Buffer
	if code := run([]string{"-only", "("}, &stdout, &stderr); code != 2 {
		t.Fatalf("bad -only exit = %d, want 2", code)
	}
	stderr.Reset()
	if code := run([]string{"-no-such-flag"}, &stdout, &stderr); code != 2 {
		t.Fatalf("bad flag exit = %d, want 2", code)
	}
	stderr.Reset()
	if code := run([]string{"-out", t.TempDir(), "-mem-budget", "12parsecs"}, &stdout, &stderr); code != 2 {
		t.Fatalf("bad -mem-budget exit = %d, want 2\nstderr:\n%s", code, &stderr)
	}
	// -scale 0 used to be clamped to paper scale (a 10 Gbps "quick" pass
	// whose manifest recorded scale 0).
	for _, scale := range []string{"0", "-3"} {
		stderr.Reset()
		if code := run([]string{"-out", t.TempDir(), "-quick", "-scale", scale, "-only", "^none$"}, &stdout, &stderr); code != 2 ||
			!strings.Contains(stderr.String(), "-scale must be at least 1") {
			t.Fatalf("-scale %s exit = %d, want 2\nstderr:\n%s", scale, code, &stderr)
		}
	}
	// -panicjob that matches nothing is a usage error, not a silent
	// no-op drill.
	stderr.Reset()
	dir := t.TempDir()
	if code := run([]string{"-out", dir, "-only", "^none$", "-panicjob", "typo_job"}, &stdout, &stderr); code != 2 {
		t.Fatalf("unmatched -panicjob exit = %d, want 2\nstderr:\n%s", code, &stderr)
	}
	if !strings.Contains(stderr.String(), "typo_job") {
		t.Fatalf("stderr does not name the unmatched job:\n%s", &stderr)
	}
	// A heartbeat at or above a third of the TTL is a takeover hazard
	// and is rejected up front, not discovered mid-sweep.
	stderr.Reset()
	if code := run([]string{"-out", t.TempDir(), "-lease-ttl", "9s", "-lease-heartbeat", "3s"}, &stdout, &stderr); code != 2 {
		t.Fatalf("heartbeat ≥ ttl/3 exit = %d, want 2\nstderr:\n%s", code, &stderr)
	}
	if !strings.Contains(stderr.String(), "heartbeat") {
		t.Fatalf("stderr does not explain the heartbeat rejection:\n%s", &stderr)
	}
}

func TestWriteTableChecksErrors(t *testing.T) {
	dir := t.TempDir()
	tab := report.NewTable("stub", "a", "b")
	tab.AddRow(1, 2)
	// Happy path writes the footer and closes cleanly.
	path := filepath.Join(dir, "ok.txt")
	if err := writeTable(store.OSFS(), path, tab, 7, time.Now()); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(data), "[seed 7, wall ") {
		t.Fatalf("footer missing:\n%s", data)
	}
	// Unwritable path fails loudly instead of being dropped.
	if err := writeTable(store.OSFS(), filepath.Join(dir, "no/such/dir/x.txt"), tab, 7, time.Now()); err == nil {
		t.Fatal("writeTable to missing directory succeeded")
	}
}

// TestStoreCacheAndManifestRecovery: the store is the frontier and every
// other file a view of it. With the tables deleted and the manifest
// overwritten with garbage, the same command computes nothing: it serves
// every run from the store, writes the tables back byte for byte, and
// writes a fresh manifest over the garbage.
func TestStoreCacheAndManifestRecovery(t *testing.T) {
	if testing.Short() {
		t.Skip("runs real sweeps")
	}
	dir := t.TempDir()
	base := []string{
		"-out", dir, "-quick", "-scale", "50", "-seed", "11", "-parallel", "4",
		"-only", "^ext_churn_core$",
	}
	var stdout, stderr bytes.Buffer
	if code := run(base, &stdout, &stderr); code != 0 {
		t.Fatalf("exit = %d\nstdout:\n%s\nstderr:\n%s", code, &stdout, &stderr)
	}
	st, err := store.Open(filepath.Join(dir, "store"))
	if err != nil {
		t.Fatal(err)
	}
	skeys, err := st.Keys()
	if err != nil || len(skeys) != 3 {
		t.Fatalf("store keys after sweep: %v, %v", skeys, err)
	}
	want, err := os.ReadFile(filepath.Join(dir, "ext_churn_core.json"))
	if err != nil {
		t.Fatal(err)
	}

	// Scorch the views: tables gone, manifest torn mid-write.
	for _, f := range []string{"ext_churn_core.txt", "ext_churn_core.json"} {
		if err := os.Remove(filepath.Join(dir, f)); err != nil {
			t.Fatal(err)
		}
	}
	if err := os.WriteFile(filepath.Join(dir, manifestFile), []byte(`{"version": 3, "jo`), 0o644); err != nil {
		t.Fatal(err)
	}

	stdout.Reset()
	stderr.Reset()
	if code := run(base, &stdout, &stderr); code != 0 {
		t.Fatalf("rerun exit = %d\nstdout:\n%s\nstderr:\n%s", code, &stdout, &stderr)
	}
	if !strings.Contains(stdout.String(), "(3 of 3 runs from store)") {
		t.Fatalf("rerun recomputed instead of serving the store:\n%s", &stdout)
	}
	got, err := os.ReadFile(filepath.Join(dir, "ext_churn_core.json"))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("restored JSON differs from the original:\n--- want\n%s--- got\n%s", want, got)
	}
	m := loadManifest(t, dir)
	if m.Seed != 11 || m.Scale != 50 || !m.Quick {
		t.Fatalf("rewritten manifest lost the sweep parameters: %+v", m)
	}
	if rec := m.Jobs["ext_churn_core"]; rec == nil || rec.Status != "done" || rec.Cached != 3 {
		t.Fatalf("rewritten record not marked served: %+v", rec)
	}
}

// TestLeaseHeldSkipsJob: a run another live process holds is not
// computed here. The sweep waits on its lease, and when the holder
// commits and releases, serves the holder's result.
func TestLeaseHeldSkipsJob(t *testing.T) {
	dir := t.TempDir()
	sw := newTestSweep(t, dir, store.OSFS())
	j := testJob("mathis", experiments.Args{Seed: 7})
	p := sw.plan(j)
	other, err := store.NewLeases(dir, "other-host-999", time.Hour)
	if err != nil {
		t.Fatal(err)
	}
	var held []*store.Lease
	for _, key := range p.keys {
		l, err := other.Acquire(key)
		if err != nil {
			t.Fatal(err)
		}
		held = append(held, l)
	}
	sw.env.Heartbeat = 10 * time.Millisecond // the waiting sweep's poll
	done := make(chan struct{})
	go func() {
		defer close(done)
		sw.runJobs([]plan{p})
	}()
	// The holder computes and commits, then lets go.
	for i, cfg := range p.cfgs {
		res, err := core.Run(cfg)
		if err != nil {
			t.Fatal(err)
		}
		payload, err := json.Marshal(res)
		if err != nil {
			t.Fatal(err)
		}
		if err := sw.env.Store.Put(p.keys[i], payload); err != nil {
			t.Fatal(err)
		}
		held[i].Release()
	}
	<-done
	rec := sw.man.Jobs[j.name]
	if rec == nil || rec.Status != "done" || rec.Cached != len(p.keys) {
		t.Fatalf("record: %+v, want every run served from the holder's commits", rec)
	}
}

// TestWorkersRunJobs: two sweeps pointed at one -out share the work. Each
// ends with every table, and between them every run was computed once —
// a run one of them holds the other waits on and is served.
func TestWorkersRunJobs(t *testing.T) {
	if testing.Short() {
		t.Skip("runs real sweeps")
	}
	dir := t.TempDir()
	args := []string{
		"-out", dir, "-quick", "-scale", "50", "-seed", "11", "-parallel", "2",
		"-lease-heartbeat", "20ms", "-only", "^ext_(burstloss|churn)_core$",
	}
	var stdouts [2]bytes.Buffer
	var wg sync.WaitGroup
	for w := range stdouts {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var stderr bytes.Buffer
			if code := run(args, &stdouts[w], &stderr); code != 0 {
				t.Errorf("sweep %d exit = %d\nstderr:\n%s", w, code, &stderr)
			}
		}()
	}
	wg.Wait()
	for _, name := range []string{"ext_burstloss_core", "ext_churn_core"} {
		computed := 0
		for w := range stdouts {
			line, ok := jobLine(stdouts[w].String(), name)
			if !ok {
				t.Fatalf("sweep %d has no table for %s:\n%s", w, name, &stdouts[w])
			}
			served := 0
			if i := strings.LastIndex(line, "("); i >= 0 {
				fmt.Sscanf(line[i+1:], "%d of", &served)
			}
			computed += 3 - served
		}
		if computed != 3 {
			t.Errorf("%s: the two sweeps computed %d of its 3 runs between them, want each once:\n%s\n%s",
				name, computed, &stdouts[0], &stdouts[1])
		}
	}
}

// jobLine finds the line a sweep printed for a job that wrote its table.
func jobLine(stdout, name string) (string, bool) {
	for _, l := range strings.Split(stdout, "\n") {
		if strings.HasPrefix(l, name+" ") && strings.Contains(l, "→") {
			return l, true
		}
	}
	return "", false
}
