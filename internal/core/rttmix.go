package core

import (
	"ccatscale/internal/metrics"
	"ccatscale/internal/sim"
)

// The paper evaluates only the same-RTT setting "as a simpler starting
// point" and cites the RTT-unfairness literature as adjacent work. This
// file adds that deferred axis: mixed-RTT intra-CCA sweeps measuring how
// a CCA divides bandwidth between flow classes with different base
// RTTs, at any of the paper's scales.

// RTTMixRow is one cell of a mixed-RTT fairness sweep.
type RTTMixRow struct {
	Setting   string
	FlowCount int
	CCA       string

	// ShortRTT/LongRTT are the two base RTTs (half the flows each).
	ShortRTT, LongRTT sim.Time

	// ShortShare is the aggregate goodput fraction of the short-RTT
	// half. 0.5 means RTT-fair; AIMD theory predicts the short-RTT
	// class takes more (throughput ∝ 1/RTT at equal loss → share up to
	// RTT ratio/(1+ratio)).
	ShortShare float64

	// PerClassJFI is Jain's index computed within each class
	// (short, long) — distinguishing inter-class bias from intra-class
	// dispersion.
	ShortJFI, LongJFI float64

	Utilization float64
	Converged   bool
}

// RTTMixFlows builds n flows of one CCA, alternating between two base
// RTTs (even indices short, odd long).
func RTTMixFlows(n int, ccaName string, short, long sim.Time) []FlowSpec {
	out := make([]FlowSpec, n)
	for i := range out {
		if i%2 == 0 {
			out[i] = FlowSpec{CCA: ccaName, RTT: short}
		} else {
			out[i] = FlowSpec{CCA: ccaName, RTT: long}
		}
	}
	return out
}

// RTTMixAnalyze computes a row from a completed mixed-RTT run.
func RTTMixAnalyze(setting string, ccaName string, short, long sim.Time, res RunResult) RTTMixRow {
	row := RTTMixRow{
		Setting:     setting,
		FlowCount:   len(res.Flows),
		CCA:         ccaName,
		ShortRTT:    short,
		LongRTT:     long,
		Utilization: res.Utilization,
		Converged:   res.Converged,
	}
	var shortG, longG []float64
	for _, f := range res.Flows {
		g := float64(f.Goodput)
		if f.Spec.RTT == short {
			shortG = append(shortG, g)
		} else {
			longG = append(longG, g)
		}
	}
	total := metrics.Sum(shortG) + metrics.Sum(longG)
	row.ShortShare = metrics.Share(metrics.Sum(shortG), total)
	row.ShortJFI = metrics.JFI(shortG)
	row.LongJFI = metrics.JFI(longG)
	return row
}

// RTTMixConfigs is the plan of the mixed-RTT experiment: one run per
// flow count of the setting, flows alternating between the RTT pair.
func RTTMixConfigs(s Setting, ccaName string, short, long sim.Time, seed uint64) []RunConfig {
	cfgs := make([]RunConfig, len(s.FlowCounts))
	for i, n := range s.FlowCounts {
		cfgs[i] = s.Build(RTTMixFlows(n, ccaName, short, long), WithSeed(Seed(seed+uint64(i))))
	}
	return cfgs
}

// RTTMixRows analyzes the results of RTTMixConfigs.
func RTTMixRows(s Setting, ccaName string, short, long sim.Time, results []RunResult) []RTTMixRow {
	rows := make([]RTTMixRow, len(results))
	for i, res := range results {
		rows[i] = RTTMixAnalyze(s.Name, ccaName, short, long, res)
	}
	return rows
}
