package main

import (
	"fmt"
	"os"

	"ccatscale/internal/core"
	"ccatscale/internal/experiments"
	"ccatscale/internal/metrics"
	"ccatscale/internal/report"
	"ccatscale/internal/schema"
	"ccatscale/internal/sim"
	"ccatscale/internal/units"
)

// loadScenarioJob reads, parses, and compiles one scenario document
// into a sweep job — a one-config plan whose table is scenarioTable — so
// a file-driven run flows through exactly the same journal/store/lease
// machinery as the paper sweep. The document carries its own seed; it is
// folded into the job name so two scenarios differing only by seed
// commit under different keys.
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
			Headers: scenarioHeaders,
			// Built from the job's governed setting copy, so -audit,
			// -runwall, budget flags, and the fidelity ladder overlay
			// the document like any other job.
			Configs: func(s core.Setting, _ experiments.Args) []core.RunConfig {
				opts := []core.ConfigOption{core.WithSeed(b.Seed())}
				if scn.SeriesIntervalS > 0 {
					iv := sim.Time(scn.SeriesIntervalS * float64(sim.Second))
					opts = append(opts, func(c *core.RunConfig) { c.SeriesInterval = iv })
				}
				return []core.RunConfig{s.Build(b.Flows(), opts...)}
			},
			Table: func(_ core.Setting, _ experiments.Args, results []core.RunResult) *report.Table {
				return scenarioTable(scn.Name, results[0])
			},
		},
	}, scn.Seed, nil
}

var scenarioHeaders = []string{"flow", "cca", "rtt_ms", "goodput_mbps", "delivered_segs", "drops", "ecn_resp", "retx_rate"}

// scenarioTable renders a scenario run as the canonical per-flow table
// plus per-link notes for topology runs.
func scenarioTable(name string, res core.RunResult) *report.Table {
	tab := report.NewTable("Scenario: "+name, scenarioHeaders...)
	goodputs := make([]float64, len(res.Flows))
	for i, f := range res.Flows {
		goodputs[i] = float64(f.Goodput)
		retx := 0.0
		if f.SegmentsSent > 0 {
			retx = 1 - float64(f.SegmentsDelivered)/float64(f.SegmentsSent)
			if retx < 0 {
				retx = 0
			}
		}
		tab.AddRow(i, f.Spec.CCA,
			float64(f.Spec.RTT)/float64(sim.Millisecond),
			float64(f.Goodput)/float64(units.MbitPerSec),
			f.SegmentsDelivered, f.Drops, f.ECNResponses, report.Pct(retx))
	}
	tab.AddNote("aggregate goodput %.2f Mbps, utilization %s, JFI %.4f",
		float64(res.AggregateGoodput)/float64(units.MbitPerSec),
		report.Pct(res.Utilization), metrics.JFI(goodputs))
	if res.CEMarks > 0 {
		tab.AddNote("ECN: %d CE marks across the fabric", res.CEMarks)
	}
	for _, l := range res.Links {
		tab.AddNote("link %-12s rate %7.1f Mbps  util %6s  tx %d pkts  drops %d B  CE %d",
			l.Name, float64(l.Rate)/float64(units.MbitPerSec),
			report.Pct(l.Utilization), l.TxPackets, l.DropWire, l.CEMarks)
	}
	if res.Converged {
		tab.AddNote("converged at %v (window %v)", res.Window, res.Window)
	}
	return tab
}
