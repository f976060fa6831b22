package main

import (
	"fmt"
	"os"

	"ccatscale/internal/core"
	"ccatscale/internal/experiments"
	"ccatscale/internal/report"
	"ccatscale/internal/schema"
)

// loadScenarioJob reads, parses, and compiles one scenario document
// into a sweep job — a one-config plan whose table is
// experiments.RunTable — so a file-driven run flows through exactly the
// same lease/store machinery as the paper sweep. The document
// carries its own seed; it is folded into the job name so two scenarios
// differing only by seed write different tables.
func loadScenarioJob(path string) (job, uint64, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return job{}, 0, err
	}
	scn, err := schema.ParseScenario(data)
	if err != nil {
		return job{}, 0, fmt.Errorf("%s: %w", path, err)
	}
	b, err := core.NewScenarioBuilder(scn)
	if err != nil {
		return job{}, 0, fmt.Errorf("%s: %w", path, err)
	}
	return job{
		name:    fmt.Sprintf("scenario_%s_seed%d", scn.Name, scn.Seed),
		setting: b.Setting(),
		entry: experiments.Entry{
			Name:    "scenario",
			Headers: experiments.RunHeaders,
			// Built from the job's governed setting copy, so -audit,
			// -runwall and the budget flags overlay the document like
			// any other job.
			Configs: func(s core.Setting, _ experiments.Args) []core.RunConfig {
				return []core.RunConfig{b.Build(s)}
			},
			Table: func(_ core.Setting, _ experiments.Args, results []core.RunResult) *report.Table {
				return experiments.RunTable("Scenario: "+scn.Name, results[0])
			},
		},
	}, scn.Seed, nil
}
