package main

import (
	"fmt"

	"ccatscale/internal/schema"
)

// The four workloads. Each stresses a different set of layers, so an
// optimisation of one layer has a workload that exercises it and one
// that bypasses it (README.md holds the interaction table).
const (
	wCoreReno = "core-reno-2000"
	wMixLoss  = "mix-bbr-cubic-400"
	wTopoECN  = "topo-parkinglot-ecn"
	wServe    = "serve-small-jobs"
)

var workloadNames = []string{wCoreReno, wMixLoss, wTopoECN, wServe}

// scenarioFor generates the scenario document of an in-process
// workload (W1–W3) from the seed. The seed becomes the simulation
// seed — flow start offsets and BBR phase choices — so another seed is
// another instance of the same experiment, never another experiment.
// quick divides flow counts and link capacities by ten so the smoke
// tests finish in a fraction of a second per op while keeping per-flow
// bandwidth and buffer/BDP ratios.
func scenarioFor(workload string, seed uint64, quick bool) (*schema.Scenario, error) {
	div := 1
	if quick {
		div = 10
	}
	n := func(flows int) int { return flows / div }
	mbps := func(rate float64) float64 { return rate / float64(div) }
	buf := func(bytes int64) int64 { return bytes / int64(div) }

	scn := &schema.Scenario{SchemaVersion: schema.Version}
	scn.Name = workload
	scn.Seed = seed
	scn.StaggerS = 0.5
	switch workload {
	case wCoreReno:
		// The paper's yardstick: CoreScale at full size. The window
		// holds the slow-start overshoot and the SACK recovery of most
		// flows, so the engine heap is ~30k deep and every packet
		// crosses the 250k-slot bottleneck ring.
		scn.RateMbps = mbps(10000)
		scn.BufferBytes = buf(375_000_000)
		scn.Flows = []schema.FlowGroup{{CCA: "reno", RTTMs: 20, Count: n(2000)}}
		scn.WarmupS, scn.DurationS = 2, 2
	case wMixLoss:
		// Fig 8 shape in the shallow-buffer regime (6 × BDP at 20 ms):
		// BBR overruns the buffer, Cubic backs off, and most of the run
		// is loss detection, SACK processing and retransmission.
		scn.RateMbps = mbps(2000)
		scn.BufferBytes = buf(30_000_000)
		scn.Flows = []schema.FlowGroup{
			{CCA: "bbr", RTTMs: 20, Count: n(200)},
			{CCA: "cubic", RTTMs: 20, Count: n(200)},
		}
		scn.WarmupS, scn.DurationS = 1.5, 1.5
	case wTopoECN:
		// The topology fabric: three hops in a row, ECN marking on two
		// of them, CoDel on the middle one, through traffic over all
		// three and cross traffic on each.
		scn.Topology = &schema.TopologyDoc{
			Nodes: []string{"a", "b", "c", "d"},
			Links: []schema.LinkDoc{
				{Name: "ab", From: "a", To: "b", RateMbps: mbps(1000), DelayMs: 2, BufferBytes: buf(5_000_000), ECN: true},
				{Name: "bc", From: "b", To: "c", RateMbps: mbps(800), DelayMs: 2, BufferBytes: buf(4_000_000), AQM: "codel", ECN: true},
				{Name: "cd", From: "c", To: "d", RateMbps: mbps(1000), DelayMs: 2, BufferBytes: buf(2_500_000)},
			},
		}
		through := []string{"ab", "bc", "cd"}
		scn.Flows = []schema.FlowGroup{
			{CCA: "cubic", RTTMs: 40, Count: n(40), Path: through},
			{CCA: "bbr2", RTTMs: 40, Count: n(40), Path: through},
			{CCA: "reno", RTTMs: 20, Count: n(30), Path: []string{"ab"}},
			{CCA: "cubic", RTTMs: 20, Count: n(30), Path: []string{"bc"}},
			{CCA: "bbr2", RTTMs: 20, Count: n(30), Path: []string{"cd"}},
		}
		scn.WarmupS, scn.DurationS = 2, 8
		if quick {
			scn.DurationS = 2
		}
	default:
		return nil, fmt.Errorf("workload %q has no scenario document", workload)
	}
	return scn, nil
}

// serveJob generates the i-th job of the serving workload: one flow,
// 5 Mbps, a quarter second — the simulation is a few thousand events,
// so fork/exec, lease, journal, fsync'd commit and HTTP are the cost.
// Seed and index are both part of the job's name and seed, so no job
// ever dedupes against another of the same run.
func serveJob(seed uint64, client, i int) schema.JobSpec {
	return schema.JobSpec{
		Name:        fmt.Sprintf("j-%d-%d-%d", seed, client, i),
		Seed:        seed*1_000_003 + uint64(client)*500_009 + uint64(i) + 1,
		RateMbps:    5,
		BufferBytes: 16384,
		DurationS:   0.25,
		Flows:       []schema.FlowGroup{{CCA: "reno", RTTMs: 20, Count: 1}},
	}
}
