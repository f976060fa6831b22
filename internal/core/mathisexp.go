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
		// Cap drop retention for the burstiness analysis — unless the
		// setting's fidelity tier already degraded the cap below this.
		if cfg.MaxDropTimestamps == 0 {
			cfg.MaxDropTimestamps = DefaultDropTimestampCap
		}
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

// MathisSweep runs the §4 experiment (all NewReno, 20 ms RTT) for every
// flow count of the setting and returns one row per count.
func MathisSweep(s Setting, seed uint64, parallelism int) ([]MathisRow, error) {
	results, err := s.runMany(MathisConfigs(s, seed), parallelism)
	if err != nil {
		return nil, err
	}
	return MathisRows(s, results), nil
}

// CrossSettingErrors evaluates Figure 2's headline comparison the way
// the paper frames it: how well does a constant fitted in one place
// predict throughput elsewhere? It fits C per interpretation on the
// EdgeScale rows' samples and reports median errors on each CoreScale
// run. (Within-setting errors are already in each MathisRow.)
type CrossSettingErrors struct {
	FlowCount      int
	ErrLossEdgeC   float64 // CoreScale error using the EdgeScale loss-rate C
	ErrHalveEdgeC  float64 // CoreScale error using the EdgeScale halving-rate C
	EdgeCLoss      float64
	EdgeCHalve     float64
	MedianErrLossC float64 // CoreScale error with its own refit (= MathisRow value)
}

// CrossSettingAnalysis fits constants on an EdgeScale run and evaluates
// them on each CoreScale run.
func CrossSettingAnalysis(edge RunResult, core []RunResult, coreCounts []int) []CrossSettingErrors {
	var cLossEdge, cHalveEdge float64
	if fit, err := mathis.FitAndEvaluate(mathisSamples(edge, false)); err == nil {
		cLossEdge = fit.C
	}
	if fit, err := mathis.FitAndEvaluate(mathisSamples(edge, true)); err == nil {
		cHalveEdge = fit.C
	}
	out := make([]CrossSettingErrors, len(core))
	for i, res := range core {
		e := CrossSettingErrors{
			FlowCount:  coreCounts[i],
			EdgeCLoss:  cLossEdge,
			EdgeCHalve: cHalveEdge,
		}
		e.ErrLossEdgeC = mathis.MedianError(cLossEdge, mathisSamples(res, false))
		e.ErrHalveEdgeC = mathis.MedianError(cHalveEdge, mathisSamples(res, true))
		if fit, err := mathis.FitAndEvaluate(mathisSamples(res, false)); err == nil {
			e.MedianErrLossC = fit.MedianErr
		}
		out[i] = e
	}
	return out
}
