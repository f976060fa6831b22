package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
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
// claim in EXPERIMENTS.md is void.
func TestMathisTableDeterministic(t *testing.T) {
	render := func() string {
		tab, _, err := runJob(context.Background(), testJob("mathis", experiments.Args{Seed: 17}), core.SweepOptions{Parallelism: 2})
		if err != nil {
			t.Fatal(err)
		}
		var buf bytes.Buffer
		if err := tab.WriteText(&buf); err != nil {
			t.Fatal(err)
		}
		return buf.String()
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
	m := newManifest(7, 10, true, "cafe")
	m.Jobs["fig4_edge"] = &jobRecord{Status: "done", File: "fig4_edge.txt", Wall: "1s"}
	m.Jobs["fig5_core"] = &jobRecord{Status: "failed", Error: "boom", FailureFile: "fig5_core.failed.json"}
	if err := m.save(dir); err != nil {
		t.Fatal(err)
	}
	got, err := loadManifest(dir)
	if err != nil {
		t.Fatal(err)
	}
	if got == nil {
		t.Fatal("saved manifest not found")
	}
	if got.Seed != 7 || got.Scale != 10 || !got.Quick || got.ConfigHash != "cafe" {
		t.Fatalf("parameters did not round-trip: %+v", got)
	}
	if rec := got.Jobs["fig5_core"]; rec == nil || rec.Status != "failed" || rec.Error != "boom" {
		t.Fatalf("failed job record did not round-trip: %+v", rec)
	}

	// done() requires both the manifest entry and the output file.
	if m.done(dir, "fig4_edge") {
		t.Fatal("done with no output file on disk")
	}
	if err := os.WriteFile(filepath.Join(dir, "fig4_edge.txt"), []byte("x"), 0o644); err != nil {
		t.Fatal(err)
	}
	if !m.done(dir, "fig4_edge") {
		t.Fatal("not done despite record + file")
	}
	if m.done(dir, "fig5_core") {
		t.Fatal("failed job reported done")
	}
	if m.done(dir, "no_such_job") {
		t.Fatal("unknown job reported done")
	}
}

func TestManifestAbsent(t *testing.T) {
	m, err := loadManifest(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	if m != nil {
		t.Fatalf("manifest from empty dir: %+v", m)
	}
}

func TestManifestCompatible(t *testing.T) {
	m := newManifest(7, 10, false, "cafe")
	if err := m.compatible(7, 10, false, "cafe"); err != nil {
		t.Fatalf("matching params rejected: %v", err)
	}
	for _, tc := range []struct {
		seed  uint64
		scale int
		quick bool
	}{
		{8, 10, false}, {7, 20, false}, {7, 10, true},
	} {
		if err := m.compatible(tc.seed, tc.scale, tc.quick, "cafe"); err == nil {
			t.Fatalf("mismatched params %+v accepted", tc)
		}
	}
	// A changed job set (same sweep parameters) is stale, not
	// incompatible: the message steers to a fresh directory or -force.
	err := m.compatible(7, 10, false, "beef")
	if err == nil || !strings.Contains(err.Error(), "manifest is stale") {
		t.Fatalf("stale hash error = %v, want 'manifest is stale'", err)
	}
}

// TestConfigHashIgnoresGovernance: budget/retry/fidelity knobs steer how
// an experiment executes, not what it measures — changing them between a
// run and its resume must not invalidate the manifest.
func TestConfigHashIgnoresGovernance(t *testing.T) {
	s := testSetting()
	jobs := []job{{name: "j", setting: s}}
	base := configHash(7, 10, false, jobs)

	s2 := s
	s2.Budget = &budget.Budget{HeapBytes: 1 << 30}
	s2.Retries = 3
	s2.Fidelity = 2
	s2.WallLimit = time.Minute
	if h := configHash(7, 10, false, []job{{name: "j", setting: s2}}); h != base {
		t.Fatal("governance knobs changed the config hash")
	}

	s3 := s
	s3.Duration *= 2
	if h := configHash(7, 10, false, []job{{name: "j", setting: s3}}); h == base {
		t.Fatal("changed duration did not change the config hash")
	}
	if h := configHash(8, 10, false, jobs); h == base {
		t.Fatal("changed seed did not change the config hash")
	}
	if h := configHash(7, 10, false, []job{{name: "k", setting: s}}); h == base {
		t.Fatal("renamed job did not change the config hash")
	}
}

// TestConfigHashFollowsTheTable: result keys do not see a table's
// columns and the store keeps the first commit, so a resume across a
// changed header row or row set must be refused as stale — one renamed
// column or a different RTT set moves the hash, the retry allowance still
// does not.
func TestConfigHashFollowsTheTable(t *testing.T) {
	j := testJob("mathis", experiments.Args{Seed: 7})
	base := configHash(7, 10, false, []job{j})

	renamed := j
	renamed.entry.Headers = append([]string(nil), j.entry.Headers...)
	renamed.entry.Headers[2] = "C(drop)"
	if configHash(7, 10, false, []job{renamed}) == base {
		t.Fatal("a renamed column did not change the config hash")
	}
	other := j
	other.entry.Name = "fig4"
	if configHash(7, 10, false, []job{other}) == base {
		t.Fatal("a different catalog entry under the same job name did not change the config hash")
	}
	oneRTT := j
	oneRTT.args.RTTs = core.RTTs[:1]
	if configHash(7, 10, false, []job{oneRTT}) == base {
		t.Fatal("a different RTT set did not change the config hash")
	}
	retried := j
	retried.setting.Retries = 2
	if configHash(7, 10, false, []job{retried}) != base {
		t.Fatal("-retries changed the config hash")
	}
}

// TestJobNamesAndKeysGolden pins the sweep's 15 job names and the store
// keys their results are filed under, at the default flags and at the CI
// smoke's; a name or key that moves orphans every stored result.
// testdata/jobkeys.golden was rewritten once, on purpose, when the four
// Mathis views became one job per regime, Finding 4 took its result
// files' names, and each entry's declared window entered its job's
// setting and therefore its key (-update regenerates it).
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
			key, err := core.ResultKey(j.name, sw.seed, j.setting)
			if err != nil {
				t.Fatal(err)
			}
			fmt.Fprintf(&got, "%s %s\n", j.name, key)
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
		t.Fatalf("job names or keys moved\n--- got\n%s--- want\n%s", &got, want)
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

// TestUsageParityWithTheSink: a job's manifest usage is merged from the
// results RunManyCtx returns. The runs and events below were recorded
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
	m, err := loadManifest(dir)
	if err != nil || m == nil {
		t.Fatalf("manifest: %v, %v", m, err)
	}
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

// newTestSweep opens a sweep's durable state in dir over hand-built jobs,
// so a test can take one through doJob without the flag layer.
func newTestSweep(t *testing.T, dir string, jobs ...job) *sweep {
	t.Helper()
	sw := &sweep{
		stdout: new(bytes.Buffer), stderr: new(bytes.Buffer),
		out: dir, seed: 7, scale: 10, parallel: 1,
		leaseTTL: 30 * time.Second, leaseHeartbeat: 5 * time.Second,
		fsys: store.OSFS(), jobs: jobs,
	}
	if err := sw.openState(nil); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { sw.jnl.Close() })
	return sw
}

// TestFailedConfigKeepsSiblingsUsage: RunManyCtx returns every
// successful run's result beside a failure, so a job one of whose three
// configs panics is recorded failed with the other two's usage — and
// with two runs, not three: the failed slot's zero Usage is not merged.
func TestFailedConfigKeepsSiblingsUsage(t *testing.T) {
	j := testJob("mathis", experiments.Args{Seed: 7})
	j.setting.FlowCounts = []int{2, 3, 4}
	plan := j.entry.Configs
	j.entry.Configs = func(s core.Setting, a experiments.Args) []core.RunConfig {
		cfgs := plan(s, a)
		cfgs[1].FaultPanicAt = sim.Second
		return cfgs
	}
	var want budget.Usage
	for i, cfg := range plan(j.setting, j.args) {
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
	sw := newTestSweep(t, dir, j)
	sw.doJob(j)
	rec := sw.man.Jobs[j.name]
	if rec == nil || rec.Status != "failed" || !strings.Contains(rec.Error, "config 1:") || rec.FailureFile == "" {
		t.Fatalf("record: %+v\nstderr:\n%s", rec, sw.stderr)
	}
	if rec.Usage == nil || rec.Usage.Runs != 2 || rec.Usage.Events != want.Events {
		t.Fatalf("usage %+v, want the two successful configs' (2 runs, %d events)", rec.Usage, want.Events)
	}
}

// TestLeaseLossCancelsRunningPlan: the job's context is the one its
// plan's RunManyCtx runs under, so a lease taken over mid-run stops the
// config in flight and skips the queued one, long before either would
// have finished.
func TestLeaseLossCancelsRunningPlan(t *testing.T) {
	slow := core.CoreScaleScaled(10) // minutes of wall per config
	slow.FlowCounts = []int{100, 100}
	e, _ := experiments.Lookup("mathis")
	j := job{name: "slow", setting: slow, entry: e, args: experiments.Args{Seed: 7}}

	dir := t.TempDir()
	sw := newTestSweep(t, dir, j)
	sw.leaseTTL, sw.leaseHeartbeat = time.Second, 10*time.Millisecond
	started := make(chan struct{})
	var once sync.Once
	sw.regColl = telemetry.CollectorFunc(func(ev telemetry.Event) {
		if ev.Kind == telemetry.KindRunStart {
			once.Do(func() { close(started) })
		}
	})
	done := make(chan struct{})
	go func() {
		defer close(done)
		sw.doJob(j)
	}()
	select {
	case <-started:
	case <-time.After(30 * time.Second):
		t.Fatal("the plan never started")
	}
	// Another worker's takeover, as the holder sees it: the lease file
	// names a different owner.
	thief := []byte(`{"owner":"other-host-999","pid":999,"since":"2026-01-01T00:00:00Z"}` + "\n")
	if err := os.WriteFile(filepath.Join(dir, "leases", "slow.lease"), thief, 0o644); err != nil {
		t.Fatal(err)
	}
	select {
	case <-done:
	case <-time.After(30 * time.Second):
		t.Fatal("losing the lease did not stop the plan")
	}
	rec := sw.man.Jobs["slow"]
	if rec == nil || rec.Status != "failed" ||
		!strings.Contains(rec.Error, "run canceled") || !strings.Contains(rec.Error, "config 1: context canceled") {
		t.Fatalf("record after lease loss: %+v", rec)
	}
}

// TestRunIsolationAndResume is the acceptance drill: a job with an
// injected panic fails with a replayable record, the other selected job
// still completes, the sweep exits nonzero — and a -resume re-executes
// only the failed job.
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

	m, err := loadManifest(dir)
	if err != nil || m == nil {
		t.Fatalf("manifest after failure: %v, %v", m, err)
	}
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
	if re.ReplayCommand() == "" {
		t.Fatal("failure record has no replay command")
	}

	// Resume without the fault: only the failed job re-executes.
	stdout.Reset()
	stderr.Reset()
	code = run(append(base, "-resume"), &stdout, &stderr)
	if code != 0 {
		t.Fatalf("resume exit = %d\nstdout:\n%s\nstderr:\n%s", code, &stdout, &stderr)
	}
	if !strings.Contains(stdout.String(), "ext_churn_core") || !strings.Contains(stdout.String(), "skipped") {
		t.Fatalf("resume did not skip the completed job:\n%s", &stdout)
	}
	if !strings.Contains(stdout.String(), filepath.Join(dir, "ext_burstloss_core.txt")) {
		t.Fatalf("resume did not re-execute the failed job:\n%s", &stdout)
	}
	m, err = loadManifest(dir)
	if err != nil || m == nil {
		t.Fatalf("manifest after resume: %v, %v", m, err)
	}
	if rec := m.Jobs["ext_burstloss_core"]; rec == nil || rec.Status != "done" || rec.Error != "" {
		t.Fatalf("burstloss record after resume: %+v", rec)
	}
	// Manifest is valid JSON on disk (atomic save).
	data, err := os.ReadFile(filepath.Join(dir, manifestFile))
	if err != nil {
		t.Fatal(err)
	}
	var raw map[string]any
	if err := json.Unmarshal(data, &raw); err != nil {
		t.Fatalf("manifest not valid JSON: %v", err)
	}
}

// TestChurnJobIsGoverned: ext_churn_core ran on a second harness with no
// supervisor, auditor or telemetry, so -panicjob was a silent no-op for
// it and -telemetry recorded nothing. It is an arrival process of the one
// harness now: the drill fails the job with a record `ccatscale replay`
// reproduces, and an audited, traced run leaves events in the stream.
func TestChurnJobIsGoverned(t *testing.T) {
	dir := t.TempDir()
	base := []string{"-out", dir, "-quick", "-scale", "50", "-seed", "7", "-only", "^ext_churn_core$"}
	var stdout, stderr bytes.Buffer
	if code := run(append(base, "-panicjob", "ext_churn_core"), &stdout, &stderr); code != 1 {
		t.Fatalf("exit = %d, want 1\nstdout:\n%s\nstderr:\n%s", code, &stdout, &stderr)
	}
	f, err := os.Open(filepath.Join(dir, "ext_churn_core.failed.json"))
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
	// What `ccatscale replay -in` does: run the recorded config.
	_, err = core.Run(re.Config)
	var replay *core.RunError
	if !errors.As(err, &replay) || replay.PanicMsg != re.PanicMsg ||
		replay.VirtualTime != re.VirtualTime || replay.Events != re.Events {
		t.Fatalf("replay did not reproduce the failure: %v", err)
	}

	dir = t.TempDir()
	events := filepath.Join(dir, "events.jsonl")
	stdout.Reset()
	stderr.Reset()
	code := run([]string{"-out", dir, "-quick", "-scale", "50", "-seed", "7", "-only", "^ext_churn_core$",
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

// TestResumeRefusesMismatchedParams guards against silently mixing
// tables from different seeds or scales in one output directory.
func TestResumeRefusesMismatchedParams(t *testing.T) {
	dir := t.TempDir()
	m := newManifest(11, 50, true, "cafe")
	if err := m.save(dir); err != nil {
		t.Fatal(err)
	}
	var stdout, stderr bytes.Buffer
	code := run([]string{"-out", dir, "-resume", "-quick", "-scale", "50", "-seed", "12",
		"-only", "^none$"}, &stdout, &stderr)
	if code != 1 {
		t.Fatalf("exit = %d, want 1\nstderr:\n%s", code, &stderr)
	}
	if !strings.Contains(stderr.String(), "incompatible") {
		t.Fatalf("stderr missing mismatch explanation:\n%s", &stderr)
	}
}

// quickEdge mirrors the -quick overrides run() applies to EdgeScale, so
// the budget tests can price exactly the configs the sweep will submit.
func quickEdge() core.Setting {
	s := core.EdgeScale()
	s.Warmup, s.Duration, s.Stagger = 5*sim.Second, 20*sim.Second, 2*sim.Second
	return s
}

// mathisHeapEstimate prices one MathisSweep run of the setting at the
// given fidelity tier, mirroring the sweep's config construction (the
// drop-timestamp cap is the only knob it sets beyond the setting).
func mathisHeapEstimate(s core.Setting, flows, tier int) int64 {
	cfg := s.Build(core.UniformFlows(flows, "reno", core.DefaultRTT), core.WithSeed(core.Seed(11)))
	cfg.MaxDropTimestamps = 1 << 20
	if tier > 0 {
		cfg = core.DegradeTier(cfg, tier)
	}
	return core.EstimateConfig(cfg).HeapBytes
}

// TestBudgetRejectionAndResume is the governance acceptance drill: under
// a heap budget every mathis_edge config is priced over, the job is
// recorded as rejected — not failed, the sweep still exits zero — the
// sibling job completes, and a -resume retries the rejected job one
// fidelity tier lower, where it fits, runs, and is marked degraded. (The
// sibling was ext_churn_core while churn ignored every budget; it is
// governed now, and its 4096 transfer slots price well above this
// threshold.)
func TestBudgetRejectionAndResume(t *testing.T) {
	if testing.Short() {
		t.Skip("runs real sweeps")
	}
	// Pick the budget just under the cheapest full-fidelity edge config,
	// so admission rejects all of them without running anything — and
	// verify tier 1 degradation brings the dearest one back under it.
	edge := quickEdge()
	min0, max1 := int64(0), int64(0)
	for _, n := range edge.FlowCounts {
		if e := mathisHeapEstimate(edge, n, 0); min0 == 0 || e < min0 {
			min0 = e
		}
		if e := mathisHeapEstimate(edge, n, 1); e > max1 {
			max1 = e
		}
	}
	threshold := min0 - 128<<10
	if max1 >= threshold {
		t.Fatalf("estimator no longer separates tiers: tier1 max %d >= threshold %d", max1, threshold)
	}

	dir := t.TempDir()
	base := []string{
		"-out", dir, "-quick", "-scale", "100", "-seed", "11", "-parallel", "2",
		"-only", "^(mathis_edge|ext_burstloss_core)$",
		"-mem-budget", fmt.Sprint(threshold),
	}
	var stdout, stderr bytes.Buffer
	code := run(base, &stdout, &stderr)
	if code != 0 {
		t.Fatalf("exit = %d, want 0 (rejection is governance, not failure)\nstdout:\n%s\nstderr:\n%s",
			code, &stdout, &stderr)
	}
	if !strings.Contains(stdout.String(), "REJECTED (over budget)") {
		t.Fatalf("stdout missing rejection report:\n%s", &stdout)
	}
	if !strings.Contains(stdout.String(), "-resume to retry them at reduced fidelity") {
		t.Fatalf("stdout missing resume hint:\n%s", &stdout)
	}
	if _, err := os.Stat(filepath.Join(dir, "ext_burstloss_core.txt")); err != nil {
		t.Fatalf("sibling job output missing: %v", err)
	}
	if _, err := os.Stat(filepath.Join(dir, "mathis_edge.txt")); err == nil {
		t.Fatal("rejected job left an output table")
	}

	m, err := loadManifest(dir)
	if err != nil || m == nil {
		t.Fatalf("manifest after rejection: %v, %v", m, err)
	}
	if rec := m.Jobs["ext_burstloss_core"]; rec == nil || rec.Status != "done" {
		t.Fatalf("sibling record: %+v", rec)
	}
	rec := m.Jobs["mathis_edge"]
	if rec == nil || rec.Status != "rejected" || rec.Fidelity != 0 {
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

	// Resume: the rejected job retries one fidelity tier lower and fits.
	runtime.GC() // settle test-process garbage under the in-flight heap check
	stdout.Reset()
	stderr.Reset()
	code = run(append(base, "-resume"), &stdout, &stderr)
	if code != 0 {
		t.Fatalf("resume exit = %d\nstdout:\n%s\nstderr:\n%s", code, &stdout, &stderr)
	}
	if !strings.Contains(stdout.String(), "retrying at reduced fidelity tier 1") {
		t.Fatalf("resume did not announce the fidelity retry:\n%s", &stdout)
	}
	if !strings.Contains(stdout.String(), "(degraded)") {
		t.Fatalf("resume did not mark the degraded result:\n%s", &stdout)
	}
	m, err = loadManifest(dir)
	if err != nil || m == nil {
		t.Fatalf("manifest after resume: %v, %v", m, err)
	}
	rec = m.Jobs["mathis_edge"]
	if rec == nil || rec.Status != "done" || !rec.Degraded || rec.Fidelity != 1 {
		t.Fatalf("resumed record: %+v", rec)
	}
	if rec.Usage == nil || rec.Usage.Runs != len(edge.FlowCounts) || rec.Usage.Events == 0 {
		t.Fatalf("resumed record usage: %+v", rec.Usage)
	}
	table, err := os.ReadFile(filepath.Join(dir, "mathis_edge.txt"))
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(table), "note: reduced fidelity: tier 1") ||
		!strings.Contains(string(table), ", degraded]") {
		t.Fatalf("degraded table not marked:\n%s", table)
	}
}

// TestResumeRefusesStaleJobSet: same sweep parameters, different job-set
// hash — the experiment definitions changed under the output directory.
func TestResumeRefusesStaleJobSet(t *testing.T) {
	dir := t.TempDir()
	m := newManifest(11, 50, true, "0000dead")
	if err := m.save(dir); err != nil {
		t.Fatal(err)
	}
	args := []string{"-out", dir, "-resume", "-quick", "-scale", "50", "-seed", "11",
		"-only", "^none$"}
	var stdout, stderr bytes.Buffer
	code := run(args, &stdout, &stderr)
	if code != 1 {
		t.Fatalf("exit = %d, want 1\nstderr:\n%s", code, &stderr)
	}
	if !strings.Contains(stderr.String(), "manifest is stale") {
		t.Fatalf("stderr missing staleness explanation:\n%s", &stderr)
	}
	// -force overrides the staleness check.
	stdout.Reset()
	stderr.Reset()
	code = run(append(args, "-force"), &stdout, &stderr)
	if code != 0 {
		t.Fatalf("-force exit = %d\nstderr:\n%s", code, &stderr)
	}
	if !strings.Contains(stderr.String(), "resuming anyway") {
		t.Fatalf("stderr missing -force acknowledgement:\n%s", &stderr)
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
	if err := writeTable(path, tab, 7, time.Now(), false); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(data), "[seed 7, wall ") {
		t.Fatalf("footer missing:\n%s", data)
	}
	if strings.Contains(string(data), "degraded") {
		t.Fatalf("full-fidelity table carries a degraded marker:\n%s", data)
	}
	// A degraded table says so in its footer.
	dpath := filepath.Join(dir, "degraded.txt")
	if err := writeTable(dpath, tab, 7, time.Now(), true); err != nil {
		t.Fatal(err)
	}
	data, err = os.ReadFile(dpath)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(data), ", degraded]") {
		t.Fatalf("degraded footer missing:\n%s", data)
	}
	// Unwritable path fails loudly instead of being dropped.
	if err := writeTable(filepath.Join(dir, "no/such/dir/x.txt"), tab, 7, time.Now(), false); err == nil {
		t.Fatal("writeTable to missing directory succeeded")
	}
}

// TestStoreCacheAndManifestRecovery: after a sweep commits a job to the
// content-addressed store, a resume whose derived views are gone — the
// output files deleted, the manifest overwritten with garbage — must
// quarantine the corrupt manifest, rebuild its state from the
// write-ahead journal, and serve the job's bytes back from the store
// without recomputing anything.
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
	if err != nil || len(skeys) != 1 {
		t.Fatalf("store keys after sweep: %v, %v", skeys, err)
	}
	want, err := os.ReadFile(filepath.Join(dir, "ext_churn_core.json"))
	if err != nil {
		t.Fatal(err)
	}

	// Scorch the derived views: outputs gone, manifest torn mid-write.
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
	if code := run(append(base, "-resume"), &stdout, &stderr); code != 0 {
		t.Fatalf("resume exit = %d\nstdout:\n%s\nstderr:\n%s", code, &stdout, &stderr)
	}
	if !strings.Contains(stdout.String(), "(cached)") {
		t.Fatalf("resume recomputed instead of serving the store:\n%s", &stdout)
	}
	if _, err := os.Stat(filepath.Join(dir, manifestFile+".corrupt")); err != nil {
		t.Fatalf("corrupt manifest not quarantined: %v", err)
	}
	got, err := os.ReadFile(filepath.Join(dir, "ext_churn_core.json"))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("restored JSON differs from the original:\n--- want\n%s--- got\n%s", want, got)
	}
	m, err := loadManifest(dir)
	if err != nil || m == nil {
		t.Fatalf("rebuilt manifest: %v, %v", m, err)
	}
	if m.Seed != 11 || m.Scale != 50 || !m.Quick {
		t.Fatalf("rebuilt manifest lost the sweep parameters: %+v", m)
	}
	rec := m.Jobs["ext_churn_core"]
	if rec == nil || rec.Status != "done" || !rec.Cached {
		t.Fatalf("rebuilt record not marked cached: %+v", rec)
	}
}

// TestLeaseHeldSkipsJob: a job freshly claimed by another live worker is
// left to it — the sweep reports the job as claimed, runs nothing for
// it, and still exits zero. This is the multi-process sharding contract.
func TestLeaseHeldSkipsJob(t *testing.T) {
	dir := t.TempDir()
	ls, err := store.NewLeases(dir, "other-host-999", time.Hour)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := ls.Acquire("ext_churn_core"); err != nil {
		t.Fatal(err)
	}
	var stdout, stderr bytes.Buffer
	code := run([]string{
		"-out", dir, "-quick", "-scale", "50", "-seed", "11",
		"-only", "^ext_churn_core$",
	}, &stdout, &stderr)
	if code != 0 {
		t.Fatalf("exit = %d\nstdout:\n%s\nstderr:\n%s", code, &stdout, &stderr)
	}
	if !strings.Contains(stdout.String(), "claimed by other workers") {
		t.Fatalf("stdout missing lease-held report:\n%s", &stdout)
	}
	if _, err := os.Stat(filepath.Join(dir, "ext_churn_core.txt")); err == nil {
		t.Fatal("job ran despite a live foreign lease")
	}
}

// TestWorkersRunJobs: -workers 2 drains the sweep through two claim
// loops; every job completes exactly once and the journal holds one
// intent per executed job.
func TestWorkersRunJobs(t *testing.T) {
	if testing.Short() {
		t.Skip("runs real sweeps")
	}
	dir := t.TempDir()
	var stdout, stderr bytes.Buffer
	code := run([]string{
		"-out", dir, "-quick", "-scale", "50", "-seed", "11", "-parallel", "2",
		"-workers", "2", "-only", "^ext_(burstloss|churn)_core$",
	}, &stdout, &stderr)
	if code != 0 {
		t.Fatalf("exit = %d\nstdout:\n%s\nstderr:\n%s", code, &stdout, &stderr)
	}
	m, err := loadManifest(dir)
	if err != nil || m == nil {
		t.Fatalf("manifest: %v, %v", m, err)
	}
	intents := map[string]int{}
	if _, _, err := store.OpenJournalSet(store.OSFS(), dir, "test-reader", func(r store.JournalRecord) error {
		if r.Op == store.OpIntent {
			intents[r.Job]++
		}
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	for _, name := range []string{"ext_burstloss_core", "ext_churn_core"} {
		if rec := m.Jobs[name]; rec == nil || rec.Status != "done" {
			t.Fatalf("%s record: %+v", name, rec)
		}
		if _, err := os.Stat(filepath.Join(dir, name+".txt")); err != nil {
			t.Fatalf("%s output: %v", name, err)
		}
		if intents[name] != 1 {
			t.Fatalf("%s journaled %d intents, want 1", name, intents[name])
		}
	}
}
