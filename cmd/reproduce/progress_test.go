package main

import (
	"io"
	"testing"

	"ccatscale/internal/core"
	"ccatscale/internal/experiments"
	"ccatscale/internal/store"
)

// trackedWeight is the weight -progress gives one plan.
func trackedWeight(p plan) int64 {
	pt := newProgressTracker(io.Discard, []plan{p})
	defer pt.finish()
	return pt.totalWeight
}

// TestJobWeightPricesThePlan: -progress weighs a job by the estimator
// summed over the runs the job actually runs — a scenario job's one
// config, every RTT of a fairness figure — not by a made-up NewReno plan,
// and leaves out the runs the store already holds.
func TestJobWeightPricesThePlan(t *testing.T) {
	sw := newTestSweep(t, t.TempDir(), store.OSFS())
	sw.scale = 25
	if err := sw.buildJobs(core.RunConfig{}, ""); err != nil {
		t.Fatal(err)
	}
	weights := map[string]int64{}
	for _, j := range sw.jobs {
		p := sw.plan(j)
		var sum int64
		for _, cfg := range j.entry.Configs(j.setting, j.args) {
			sum += core.EstimateConfig(cfg).Processed
		}
		weights[j.name] = trackedWeight(p)
		if weights[j.name] != sum {
			t.Errorf("%s: weight %d, want its plan's estimate %d", j.name, weights[j.name], sum)
		}
		// A run served from the store costs no wall: it leaves the total.
		p.stored[0] = true
		if w := trackedWeight(p); w != sum-runWeight(p.cfgs[0]) {
			t.Errorf("%s: weight %d with its first run stored, want %d", j.name, w, sum-runWeight(p.cfgs[0]))
		}
	}
	// fig4 runs three RTTs, intra one, at the same tier and flow counts.
	if weights["fig4_core"] <= weights["intra_reno_core"] {
		t.Errorf("fig4_core weighs %d, not above intra_reno_core's %d", weights["fig4_core"], weights["intra_reno_core"])
	}

	scn, _, err := loadScenarioJob("../../examples/scenarios/parkinglot.json")
	if err != nil {
		t.Fatal(err)
	}
	if w := trackedWeight(sw.plan(scn)); w <= 1 {
		t.Errorf("scenario job weighs %d; its setting has no flow counts, its plan has a config", w)
	}
}

// TestProgressDropsServedRuns: a run found committed by another process
// while this one waited leaves the total instead of counting as done, so
// the ETA prices only what is still to compute.
func TestProgressDropsServedRuns(t *testing.T) {
	j := testJob("mathis", experiments.Args{Seed: 7})
	j.setting.FlowCounts = []int{2, 3}
	sw := newTestSweep(t, t.TempDir(), store.OSFS())
	p := sw.plan(j)
	pt := newProgressTracker(io.Discard, []plan{p})
	defer pt.finish()
	w0, w1 := runWeight(p.cfgs[0]), runWeight(p.cfgs[1])
	pt.runEnded(j.name, 0, true)
	pt.runEnded(j.name, 1, false)
	if pt.totalWeight != w1 || pt.doneWeight != w1 {
		t.Fatalf("total %d, done %d; want both %d (run 0's %d dropped)", pt.totalWeight, pt.doneWeight, w1, w0)
	}
}
