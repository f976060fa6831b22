package main

import (
	"os"
	"path/filepath"
	"testing"
	"time"

	"ccatscale/internal/experiments"
	"ccatscale/internal/store"
	"ccatscale/internal/store/chaostest"
)

// TestChaosKillMidEntryRecomputesOnlyInFlight: a sweep killed at a
// syscall boundary in the middle of a job's runs, then the same command
// again. The rerun serves every run the killed sweep committed, computes
// only the rest, and writes the table byte for byte as an uninterrupted
// sweep does.
func TestChaosKillMidEntryRecomputesOnlyInFlight(t *testing.T) {
	j := testJob("mathis", experiments.Args{Seed: 7})
	j.setting.FlowCounts = []int{2, 3, 4, 5}
	runs := len(j.setting.FlowCounts)

	refDir := t.TempDir()
	probe := chaostest.Wrap(store.OSFS(), chaostest.Plan{})
	runTestJobs(newTestSweep(t, refDir, probe), j)
	want, err := os.ReadFile(filepath.Join(refDir, "mathis.json"))
	if err != nil {
		t.Fatal(err)
	}
	budget := probe.Ops()

	for _, kill := range []uint64{budget / 4, budget / 2} {
		dir := t.TempDir()
		chaos := chaostest.Wrap(store.OSFS(), chaostest.Plan{KillAt: kill, TornBytes: 7})
		runTestJobs(newTestSweep(t, dir, chaos), j) // dies mid-entry
		if !chaos.Killed() {
			t.Fatalf("kill@%d never fired", kill)
		}
		st, err := store.Open(filepath.Join(dir, "store"))
		if err != nil {
			t.Fatal(err)
		}
		committed := 0
		for _, key := range sweepKeys(t, j) {
			if st.Has(key) {
				committed++
			}
		}
		if committed == 0 || committed == runs {
			t.Fatalf("kill@%d of %d: %d of %d runs committed, want a kill mid-entry", kill, budget, committed, runs)
		}

		// The rerun takes over the dead sweep's leases once they go stale.
		sw := newTestSweep(t, dir, store.OSFS())
		sw.env.Leases, err = store.NewLeases(dir, "rerun", 100*time.Millisecond)
		if err != nil {
			t.Fatal(err)
		}
		sw.env.Heartbeat = 20 * time.Millisecond
		runTestJobs(sw, j)
		rec := sw.man.Jobs[j.name]
		if rec == nil || rec.Status != "done" {
			t.Fatalf("kill@%d: rerun record %+v", kill, rec)
		}
		if rec.Cached != committed {
			t.Errorf("kill@%d: rerun served %d runs and computed %d; the killed sweep committed %d of %d",
				kill, rec.Cached, runs-rec.Cached, committed, runs)
		}
		got, err := os.ReadFile(filepath.Join(dir, "mathis.json"))
		if err != nil || string(got) != string(want) {
			t.Fatalf("kill@%d: recovered table differs from the uninterrupted one (%v)", kill, err)
		}
	}
}

// sweepKeys is the run keys of j's plan, as a sweep computes them.
func sweepKeys(t *testing.T, j job) []string {
	t.Helper()
	return newTestSweep(t, t.TempDir(), store.OSFS()).plan(j).keys
}
