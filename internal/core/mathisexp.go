package core

import (
	"ccatscale/internal/mathis"
)

// MathisRow is one (setting, flow count) cell of the paper's §4
// analysis: the fitted constants of Table 1, the prediction errors of
// Figure 2, the loss-to-halving ratio of Figure 3, and the drop
// burstiness score that corroborates Finding 3.
type MathisRow struct {
	Setting   string
	FlowCount int

	// CLoss / CHalve are the least-squares Mathis constants using the
	// packet loss rate / the CWND halving rate for p (Table 1).
	CLoss  float64
	CHalve float64

	// MedianErrLoss / MedianErrHalve are the median relative prediction
	// errors at the respective fitted constants (Figure 2).
	MedianErrLoss  float64
	MedianErrHalve float64

	// LossToHalvingRatio is aggregate drops over aggregate halvings
	// (Figure 3).
	LossToHalvingRatio float64

	// DropBurstiness is the Goh–Barabási score of bottleneck drop times
	// (§4: ≈0.2 edge, ≈0.35 core).
	DropBurstiness float64

	// Utilization and Converged qualify the run.
	Utilization float64
	Converged   bool
}

// mathisSamples converts flow results into model samples under the
// chosen p interpretation.
func mathisSamples(res RunResult, useHalvingRate bool) []mathis.Sample {
	var out []mathis.Sample
	for _, f := range res.Flows {
		p := f.LossRate
		if useHalvingRate {
			p = f.HalvingRate
		}
		if p <= 0 || f.MeanRTT <= 0 {
			continue
		}
		out = append(out, mathis.Sample{
			ThroughputBps: f.Goodput.BytesPerSec(),
			P:             p,
			RTTSeconds:    f.MeanRTT.Seconds(),
			MSSBytes:      float64(res.Config.MSS),
		})
	}
	return out
}

// MathisAnalyze computes a MathisRow from a completed all-NewReno run.
func MathisAnalyze(setting string, flowCount int, res RunResult) MathisRow {
	row := MathisRow{
		Setting:        setting,
		FlowCount:      flowCount,
		DropBurstiness: res.DropBurstiness,
		Utilization:    res.Utilization,
		Converged:      res.Converged,
	}
	if fit, err := mathis.FitAndEvaluate(mathisSamples(res, false)); err == nil {
		row.CLoss = fit.C
		row.MedianErrLoss = fit.MedianErr
	}
	if fit, err := mathis.FitAndEvaluate(mathisSamples(res, true)); err == nil {
		row.CHalve = fit.C
		row.MedianErrHalve = fit.MedianErr
	}
	var drops, halvings float64
	for _, f := range res.Flows {
		drops += float64(f.Drops)
		halvings += float64(f.Halvings)
	}
	if halvings > 0 {
		row.LossToHalvingRatio = drops / halvings
	}
	return row
}

// MathisConfigs is the plan of the §4 experiment: all NewReno at 20 ms
// RTT, one run per flow count of the setting.
func MathisConfigs(s Setting, seed uint64) []RunConfig {
	cfgs := make([]RunConfig, len(s.FlowCounts))
	for i, n := range s.FlowCounts {
		cfg := s.Build(UniformFlows(n, "reno", DefaultRTT), WithSeed(Seed(seed+uint64(i))))
		cfg.MaxDropTimestamps = DefaultDropTimestampCap // bounds the burstiness analysis
		cfgs[i] = cfg
	}
	return cfgs
}

// MathisRows analyzes the results of MathisConfigs, one row per flow
// count.
func MathisRows(s Setting, results []RunResult) []MathisRow {
	rows := make([]MathisRow, len(results))
	for i, res := range results {
		rows[i] = MathisAnalyze(s.Name, s.FlowCounts[i], res)
	}
	return rows
}
