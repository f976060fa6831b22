// Package ccatscale is a laboratory for evaluating TCP congestion
// control throughput models and fairness properties at the scale of the
// Internet core, reproducing Philip, Ware, Athapathu, Sherry & Sekar,
// "Revisiting TCP Congestion Control Throughput Models & Fairness
// Properties At Scale" (IMC 2021).
//
// The library wraps a deterministic packet-level discrete-event testbed
// — a dumbbell topology with a drop-tail bottleneck, SACK/PRR/TLP TCP
// transports, and NewReno, Cubic and BBRv1 congestion control — behind
// the paper's experimental vocabulary: settings (EdgeScale, CoreScale),
// flow mixes, warm-up and convergence rules, and the derived metrics
// (Mathis-model fits, Jain's Fairness Index, inter-CCA shares, drop
// burstiness).
//
// # Quick start
//
//	setting := ccatscale.CoreScaleScaled(50) // 200 Mbps, 20–100 flows
//	cfg := setting.Build(
//		ccatscale.MixedFlows(40, "cubic", "reno", 20*time.Millisecond),
//		ccatscale.WithSeed(1))
//	res, err := ccatscale.Run(context.Background(), cfg)
//	if err != nil { ... }
//	fmt.Println(res.ShareByCCA()["cubic"]) // ≈0.7–0.8 (paper Finding 8)
//
// Every run is deterministic in its seed: identical configurations
// reproduce bit-identical results. Run and RunMany accept functional
// options (WithBudget, WithCollector, WithSweepOptions) for resource
// governance and live telemetry; both only observe, so an instrumented
// run reproduces the same bits as a bare one.
package ccatscale

import (
	"context"
	"time"

	"ccatscale/internal/budget"
	"ccatscale/internal/core"
	"ccatscale/internal/mathis"
	"ccatscale/internal/metrics"
	"ccatscale/internal/netem"
	"ccatscale/internal/schema"
	"ccatscale/internal/sim"
	"ccatscale/internal/units"
	"ccatscale/internal/waremodel"
)

// Setting is an evaluation regime: bottleneck rate, buffer, flow-count
// sweep, and run-length parameters. See EdgeScale, CoreScale and
// CoreScaleScaled.
type Setting = core.Setting

// FlowSpec describes one flow (CCA name and base RTT).
type FlowSpec = core.FlowSpec

// RunConfig fully describes one experiment run.
type RunConfig = core.RunConfig

// RunResult holds per-flow and aggregate metrics of a completed run.
type RunResult = core.RunResult

// FlowResult holds one flow's measurement-window metrics.
type FlowResult = core.FlowResult

// MathisRow is one cell of the paper's §4 analysis (Table 1, Figures
// 2–3, and the drop-burstiness corroboration).
type MathisRow = core.MathisRow

// FairnessRow is one cell of the fairness figures (§5).
type FairnessRow = core.FairnessRow

// InterCCAMode selects the competition pattern of an inter-CCA sweep.
type InterCCAMode = core.InterCCAMode

// Inter-CCA sweep modes.
const (
	// EqualSplit runs a 50/50 mix of two CCAs (Figures 5 and 8).
	EqualSplit = core.EqualSplit
	// OneVersusMany runs one flow of the first CCA against a crowd of
	// the second (Figures 6 and 7).
	OneVersusMany = core.OneVersusMany
)

// EdgeScale returns the paper's edge-link regime: 100 Mbps bottleneck,
// 3 MB drop-tail buffer, tens of flows.
func EdgeScale() Setting { return core.EdgeScale() }

// CoreScale returns the paper's full at-scale regime: 10 Gbps, 375 MB
// buffer, 1000–5000 flows. Full-fidelity sweeps at this setting process
// billions of simulator events; prefer CoreScaleScaled for interactive
// work.
func CoreScale() Setting { return core.CoreScale() }

// CoreScaleScaled shrinks CoreScale by divisor while preserving
// per-flow bandwidth (2 Mbps/flow) and the buffer-to-BDP ratio.
func CoreScaleScaled(divisor int) Setting { return core.CoreScaleScaled(divisor) }

// Run executes one experiment under ctx. Cancellation is polled from
// the engine's supervisor hook, so a cancelled run stops promptly and
// surfaces a structured error. Options attach governance and telemetry
// to configs that do not already carry their own.
func Run(ctx context.Context, cfg RunConfig, opts ...RunOption) (RunResult, error) {
	o := applyOptions(opts)
	if cfg.Budget == nil {
		cfg.Budget = o.Budget
	}
	if cfg.Collector == nil {
		cfg.Collector = o.Collector
	}
	return core.RunCtx(ctx, cfg)
}

// RunMany executes several runs concurrently under ctx (each run is
// internally single-threaded and deterministic) and returns results in
// input order, one entry per config. Options configure parallelism,
// sweep-level budget governance, and telemetry; per-config errors are
// tagged with the config's index and joined.
func RunMany(ctx context.Context, cfgs []RunConfig, opts ...RunOption) ([]RunResult, error) {
	return core.RunManyCtx(ctx, cfgs, applyOptions(opts))
}

// Budget bounds one run's resource consumption: heap bytes, simulator
// event footprint, retained trace points, wall clock, and virtual
// horizon. Zero fields are unlimited. Set it on a RunConfig (or a
// Setting) to enable admission control and in-flight enforcement.
type Budget = budget.Budget

// BudgetError is the structured breach report governance surfaces
// instead of an OOM: which resource, at which stage (admission or
// in-flight), the limit and the observed value — plus, for in-flight
// breaches, a Checkpoint of the progress made.
type BudgetError = budget.BudgetError

// Checkpoint records a stopped run's progress (virtual time, events
// processed, wall clock consumed).
type Checkpoint = budget.Checkpoint

// Usage records the resources a run (or merged sweep) actually
// consumed; see RunResult.Usage.
type Usage = budget.Usage

// Footprint is the estimator's predicted cost of one configuration.
type Footprint = budget.Footprint

// SweepOptions is the whole option set of RunMany (see
// WithSweepOptions): parallelism, a shared Budget applied to configs
// that carry none, and the reduced-fidelity retry allowance for budget
// breaches.
type SweepOptions = core.SweepOptions

// EstimateConfig predicts a configuration's resource footprint — the
// same model RunMany's admission control uses.
func EstimateConfig(cfg RunConfig) Footprint { return core.EstimateConfig(cfg) }

// DegradeTier returns cfg degraded to the given fidelity tier: a
// coarser throughput series, a smaller drop-timestamp cap, and (from
// tier 2) a shorter measurement window. Deterministic in (cfg, tier).
func DegradeTier(cfg RunConfig, tier int) RunConfig { return core.DegradeTier(cfg, tier) }

// UniformFlows builds n flows of one CCA at one base RTT.
func UniformFlows(n int, cca string, rtt time.Duration) []FlowSpec {
	return core.UniformFlows(n, cca, sim.Duration(rtt))
}

// MixedFlows builds a 50/50 interleaved mix of two CCAs at one RTT.
func MixedFlows(n int, ccaA, ccaB string, rtt time.Duration) []FlowSpec {
	return core.MixedFlows(n, ccaA, ccaB, sim.Duration(rtt))
}

// OneVersusFlows builds one flow of loner plus n−1 flows of crowd.
func OneVersusFlows(n int, loner, crowd string, rtt time.Duration) []FlowSpec {
	return core.OneVersusFlows(n, loner, crowd, sim.Duration(rtt))
}

// MathisSweep runs the §4 experiment (all NewReno at 20 ms) across the
// setting's flow counts: the data behind Table 1 and Figures 2–3.
func MathisSweep(s Setting, seed uint64, parallelism int) ([]MathisRow, error) {
	return core.MathisSweep(s, seed, parallelism)
}

// IntraCCASweep measures intra-CCA fairness (JFI) across flow counts
// and RTTs (Figure 4 for "bbr"; Finding 4 for "reno"/"cubic").
func IntraCCASweep(s Setting, cca string, rtts []time.Duration, seed uint64, parallelism int) ([]FairnessRow, error) {
	return core.IntraCCASweep(s, cca, simTimes(rtts), seed, parallelism)
}

// InterCCASweep measures inter-CCA goodput shares (Figures 5–8).
func InterCCASweep(s Setting, mode InterCCAMode, ccaA, ccaB string, rtts []time.Duration, seed uint64, parallelism int) ([]FairnessRow, error) {
	return core.InterCCASweep(s, mode, ccaA, ccaB, simTimes(rtts), seed, parallelism)
}

// PaperRTTs returns the three base RTTs the paper's fairness figures
// sweep: 20, 100 and 200 ms.
func PaperRTTs() []time.Duration {
	out := make([]time.Duration, len(core.RTTs))
	for i, r := range core.RTTs {
		out[i] = r.Std()
	}
	return out
}

func simTimes(ds []time.Duration) []sim.Time {
	out := make([]sim.Time, len(ds))
	for i, d := range ds {
		out[i] = sim.Duration(d)
	}
	return out
}

// JFI computes Jain's Fairness Index over per-flow allocations.
func JFI(xs []float64) float64 { return metrics.JFI(xs) }

// Burstiness computes the Goh–Barabási burstiness score over event
// timestamps (in any consistent unit).
func Burstiness(times []float64) float64 { return metrics.Burstiness(times) }

// MathisPredict returns the Mathis-model throughput (bytes/sec) for
// constant c, segment size mssBytes, round-trip rtt, and congestion
// event probability p.
func MathisPredict(c, mssBytes float64, rtt time.Duration, p float64) float64 {
	return mathis.Predict(c, mathis.Sample{P: p, RTTSeconds: rtt.Seconds(), MSSBytes: mssBytes})
}

// WareBBRShare returns the Ware et al. model's predicted steady-state
// bandwidth share for a cap-limited BBR aggregate against loss-based
// traffic, given the bottleneck buffer in base-BDP units (paper
// Findings 6–7).
func WareBBRShare(bufferBDP float64) float64 {
	return waremodel.SingleBBRShare(bufferBDP)
}

// MSS is the segment size used throughout (1448 bytes, as in the
// paper).
const MSS = int(units.MSS)

// TopologySpec is a network graph replacing the implicit dumbbell:
// named nodes, directed links with per-link rate/delay/queue/ECN
// configuration, and per-flow paths. Set it on a RunConfig (or compile
// a Scenario) to run multi-bottleneck experiments — a parking lot, a
// shared transit link — with per-bottleneck conservation auditing.
type TopologySpec = netem.TopologySpec

// LinkSpec is one directed link of a TopologySpec.
type LinkSpec = netem.LinkSpec

// LinkStat reports one link's counters in a topology run's RunResult.
type LinkStat = netem.LinkStat

// Scenario is the versioned declarative experiment document (JSON,
// schema-versioned) accepted by cmd/reproduce -scenario and ccserve
// submission: flows, network (dumbbell or topology), ECN/AQM marking,
// and run lengths as plain data.
type Scenario = schema.Scenario

// ParseScenario decodes and validates a scenario document, rejecting
// unknown fields and incompatible schema majors.
func ParseScenario(data []byte) (*Scenario, error) { return schema.ParseScenario(data) }

// ScenarioBuilder compiles a parsed Scenario into runnable
// configuration; see NewScenarioBuilder.
type ScenarioBuilder = core.ScenarioBuilder

// NewScenarioBuilder compiles a scenario document, surfacing every
// validation and topology-graph error at construction.
func NewScenarioBuilder(scn *Scenario) (*ScenarioBuilder, error) {
	return core.NewScenarioBuilder(scn)
}

// ArrivalSpec adds flow churn to a run: finite transfers arriving as a
// Poisson process (the dynamic the paper's fixed population deliberately
// excludes) beside the config's long-lived flows. Set it as
// RunConfig.Arrivals; the run is an ordinary Run, with its context,
// budget, audit and telemetry.
type ArrivalSpec = core.ArrivalSpec

// ArrivalStats is RunResult.Arrivals: arrivals, completions, drops and
// the flow-completion-time samples with their quantile helpers.
type ArrivalStats = core.ArrivalStats
