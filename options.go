package ccatscale

import (
	"ccatscale/internal/core"
	"ccatscale/internal/telemetry"
)

// RunOption customizes Run and RunMany: resource governance, live
// telemetry, and sweep behavior. Options never alter what a simulation
// computes — budgets and collectors observe and bound runs, they do not
// perturb them — so adding options to a call preserves bit-identical
// results for runs that complete.
type RunOption func(*SweepOptions)

// applyOptions folds options into a SweepOptions value (the shared
// carrier for both the single-run and sweep paths).
func applyOptions(opts []RunOption) SweepOptions {
	var o SweepOptions
	for _, opt := range opts {
		opt(&o)
	}
	return o
}

// WithBudget bounds every run of the call that does not declare its own
// budget; sweeps additionally gate admission on it. See Budget.
func WithBudget(b *Budget) RunOption {
	return func(o *SweepOptions) { o.Budget = b }
}

// WithCollector attaches a telemetry collector to every run of the call
// that does not declare its own; sweeps also send their governance
// events (fidelity degradations) to it. A nil collector is the default:
// telemetry off, zero overhead.
func WithCollector(c Collector) RunOption {
	return func(o *SweepOptions) { o.Collector = c }
}

// WithParallelism bounds concurrent runs in RunMany (≤0 = 1). It has no
// effect on a single Run.
func WithParallelism(n int) RunOption {
	return func(o *SweepOptions) { o.Parallelism = n }
}

// WithSweepOptions replaces the whole option set at once — the escape
// hatch for retry tuning. Later options still override its fields.
func WithSweepOptions(opt SweepOptions) RunOption {
	return func(o *SweepOptions) { *o = opt }
}

// Seed is the typed simulation seed of the options-based config path;
// see Setting.Build and WithSeed.
type Seed = core.Seed

// ConfigOption customizes a RunConfig built by Setting.Build.
type ConfigOption = core.ConfigOption

// WithSeed sets the seed of a config built by Setting.Build. Equal
// seeds reproduce runs bit-identically.
func WithSeed(seed Seed) ConfigOption { return core.WithSeed(seed) }

// WithRunCollector attaches a telemetry collector to one built config,
// overriding the setting's attachment and any call-level WithCollector.
func WithRunCollector(c Collector) ConfigOption { return core.WithRunCollector(c) }

// Collector receives telemetry events from instrumented runs; nil means
// telemetry is off. Implementations must only observe (never call back
// into the simulation) and must be safe for concurrent runs of a sweep.
type Collector = telemetry.Collector

// CollectorFunc adapts a function to the Collector interface.
type CollectorFunc = telemetry.CollectorFunc

// Event is one telemetry observation; its A/B payload is kind-specific
// (see EventKind).
type Event = telemetry.Event

// EventKind discriminates telemetry events.
type EventKind = telemetry.Kind

// Telemetry event kinds. The A/B payload semantics of each kind are
// documented on the internal/telemetry Kind constants.
const (
	EventRunStart       = telemetry.KindRunStart
	EventRunEnd         = telemetry.KindRunEnd
	EventFlowStart      = telemetry.KindFlowStart
	EventFlowEnd        = telemetry.KindFlowEnd
	EventCCAState       = telemetry.KindCCAState
	EventLoss           = telemetry.KindLoss
	EventRecoveryExit   = telemetry.KindRecoveryExit
	EventQueueWatermark = telemetry.KindQueueWatermark
	EventEngineSample   = telemetry.KindEngineSample
	EventLinkDown       = telemetry.KindLinkDown
	EventLinkUp         = telemetry.KindLinkUp
	EventDegraded       = telemetry.KindDegraded
)

// MultiCollector fans every event out to each non-nil collector; zero
// or one effective targets collapse to nil or the target itself.
func MultiCollector(cs ...Collector) Collector { return telemetry.Multi(cs...) }
