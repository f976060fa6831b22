package core

import (
	"ccatscale/internal/sim"
)

// FairnessRow is one (flow count, RTT) cell of the fairness figures.
type FairnessRow struct {
	Setting   string
	FlowCount int
	RTT       sim.Time

	// JFI is Jain's Fairness Index over per-flow goodputs (intra-CCA
	// figures: Finding 4 and Figure 4).
	JFI float64

	// Share maps CCA name → fraction of aggregate goodput (inter-CCA
	// figures 5–8). Empty for single-CCA runs… it is populated there
	// too, trivially with one entry of 1.
	Share map[string]float64

	// Utilization and Converged qualify the run.
	Utilization float64
	Converged   bool
}

// IntraCCAConfigs is the plan of the intra-CCA fairness experiment (all
// flows one CCA, same RTT): one run per RTT and flow count of the
// setting, RTT-major.
func IntraCCAConfigs(s Setting, ccaName string, rtts []sim.Time, seed uint64) []RunConfig {
	var cfgs []RunConfig
	for _, rtt := range rtts {
		for _, n := range s.FlowCounts {
			cfgs = append(cfgs, s.Build(UniformFlows(n, ccaName, rtt), seed+uint64(len(cfgs))))
		}
	}
	return cfgs
}

// InterCCAMode selects the competition pattern of an inter-CCA sweep.
type InterCCAMode int

const (
	// EqualSplit runs a 50/50 mix of the two CCAs (Figures 5 and 8).
	EqualSplit InterCCAMode = iota
	// OneVersusMany runs a single flow of CCA A against n−1 flows of
	// CCA B (Figures 6 and 7).
	OneVersusMany
)

// InterCCAConfigs is the plan of an inter-CCA fairness experiment, in
// IntraCCAConfigs' order. ccaA is the "measured" CCA whose share the
// figures plot (Cubic in Fig 5, BBR elsewhere).
func InterCCAConfigs(s Setting, mode InterCCAMode, ccaA, ccaB string, rtts []sim.Time, seed uint64) []RunConfig {
	var cfgs []RunConfig
	for _, rtt := range rtts {
		for _, n := range s.FlowCounts {
			var flows []FlowSpec
			switch mode {
			case EqualSplit:
				flows = MixedFlows(n, ccaA, ccaB, rtt)
			case OneVersusMany:
				flows = OneVersusFlows(n, ccaA, ccaB, rtt)
			}
			cfgs = append(cfgs, s.Build(flows, seed+uint64(len(cfgs))))
		}
	}
	return cfgs
}

// FairnessRows analyzes the results of IntraCCAConfigs or
// InterCCAConfigs built with the same setting and RTTs.
func FairnessRows(s Setting, rtts []sim.Time, results []RunResult) []FairnessRow {
	rows := make([]FairnessRow, 0, len(results))
	for _, rtt := range rtts {
		for _, n := range s.FlowCounts {
			res := results[len(rows)]
			rows = append(rows, FairnessRow{
				Setting:     s.Name,
				FlowCount:   n,
				RTT:         rtt,
				JFI:         res.JFI(),
				Share:       res.ShareByCCA(),
				Utilization: res.Utilization,
				Converged:   res.Converged,
			})
		}
	}
	return rows
}
