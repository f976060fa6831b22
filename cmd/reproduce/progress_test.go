package main

import (
	"testing"

	"ccatscale/internal/core"
)

// TestJobWeightPricesThePlan: -progress weighs a job by the estimator
// summed over the plan the job actually runs — a scenario job's one
// config, every RTT of a fairness figure — not by a made-up NewReno plan.
func TestJobWeightPricesThePlan(t *testing.T) {
	sw := &sweep{scale: 25, seed: 7}
	if err := sw.buildJobs(core.Setting{}, ""); err != nil {
		t.Fatal(err)
	}
	weights := map[string]int64{}
	for _, j := range sw.jobs {
		var sum int64
		for _, cfg := range j.entry.Configs(j.setting, j.args) {
			sum += core.EstimateConfig(cfg).Processed
		}
		weights[j.name] = jobWeight(j)
		if weights[j.name] != sum {
			t.Errorf("%s: weight %d, want its plan's estimate %d", j.name, weights[j.name], sum)
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
	if w := jobWeight(scn); w <= 1 {
		t.Errorf("scenario job weighs %d; its setting has no flow counts, its plan has a config", w)
	}
}
