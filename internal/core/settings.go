package core

import (
	"fmt"
	"time"

	"ccatscale/internal/budget"
	"ccatscale/internal/netem"
	"ccatscale/internal/sim"
	"ccatscale/internal/telemetry"
	"ccatscale/internal/units"
)

// Setting is one of the paper's two evaluation regimes (§3.1), plus the
// run-length parameters the methodology prescribes.
type Setting struct {
	// Name identifies the regime ("EdgeScale", "CoreScale", …).
	Name string
	// Rate is the bottleneck bandwidth.
	Rate units.Bandwidth
	// Buffer is the drop-tail capacity (≈1 BDP at 200 ms).
	Buffer units.ByteCount
	// FlowCounts are the x-axis points of the figures.
	FlowCounts []int
	// Warmup is the excluded start-up period.
	Warmup sim.Time
	// Duration is the measurement window after warm-up.
	Duration sim.Time
	// Stagger is the random start window.
	Stagger sim.Time
	// Converge, when positive, enables the paper's early-stop rule for
	// every run of the setting: stop once aggregate goodput changes
	// less than 1 % across consecutive windows of this length. Duration
	// then acts as the maximum run length, like the paper's 3-hour cap.
	Converge sim.Time
	// AQM overrides the bottleneck discipline for every run of the
	// setting ("" = drop-tail, the paper's configuration).
	AQM string
	// Topology replaces the dumbbell with an explicit link graph for
	// every run of the setting (nil = dumbbell built from Rate/Buffer).
	// See RunConfig.Topology.
	Topology *netem.TopologySpec `json:",omitempty"`
	// ECN enables RFC 3168 marking end to end for every run of the
	// setting (dumbbell only; topology links carry their own ECN flag).
	ECN bool `json:",omitempty"`
	// ECNMarkBytes overrides the dumbbell's drop-tail CE-marking
	// threshold (0 = Buffer/4; ignored without ECN).
	ECNMarkBytes units.ByteCount `json:",omitempty"`
	// BurstLoss applies Gilbert–Elliott burst loss to every run of the
	// setting (nil = off).
	BurstLoss *BurstLossSpec
	// Outage applies a link outage schedule to every run of the setting
	// (nil = none).
	Outage *OutageSpec
	// WallLimit bounds each run's wall-clock time (0 = unlimited).
	WallLimit time.Duration
	// StallEvents enables the virtual-time stall guard per run
	// (0 = disabled).
	StallEvents uint64
	// FaultPanicAt, when positive, injects a panic into every run of
	// the setting at this virtual time — the supervisor drill behind
	// reproduce -panicjob.
	FaultPanicAt sim.Time
	// Audit selects the invariant-auditing policy for every run of the
	// setting ("", "off", "warn", or "strict").
	Audit string
	// Budget bounds every run of the setting (nil = unlimited); see
	// RunConfig.Budget.
	Budget *budget.Budget
}

// RTTs are the three base round-trip times every fairness figure sweeps.
var RTTs = []sim.Time{20 * sim.Millisecond, 100 * sim.Millisecond, 200 * sim.Millisecond}

// DefaultRTT is the RTT of the Mathis experiments (§4: "all flows run
// NewReno and have a 20ms RTT").
const DefaultRTT = 20 * sim.Millisecond

// EdgeScale is the paper's edge-link regime: 100 Mbps, 3 MB buffer,
// tens of flows. Run lengths are scaled from the paper's hours to tens
// of virtual seconds; the paper's own convergence criterion shows the
// metrics stabilize far earlier than its conservative 3-hour cap.
func EdgeScale() Setting {
	return Setting{
		Name:       "EdgeScale",
		Rate:       100 * units.MbitPerSec,
		Buffer:     3 * units.MB,
		FlowCounts: []int{10, 30, 50},
		Warmup:     15 * sim.Second,
		Duration:   60 * sim.Second,
		Stagger:    5 * sim.Second,
	}
}

// CoreScale is the paper's at-scale regime at full fidelity: 10 Gbps,
// 375 MB buffer, thousands of flows. On two cores a Mathis table at
// this scale takes about two minutes (results/full/) and a 1000-flow
// BBR mix ≈2.5 wall seconds per virtual second (ROADMAP.md), so a table
// is minutes and the whole paper hours; CoreScaleScaled is the
// interactive and CI tier.
func CoreScale() Setting {
	return Setting{
		Name:       "CoreScale",
		Rate:       10 * units.GbitPerSec,
		Buffer:     375 * units.MB,
		FlowCounts: []int{1000, 3000, 5000},
		Warmup:     30 * sim.Second,
		Duration:   120 * sim.Second,
		Stagger:    10 * sim.Second,
	}
}

// CoreScaleScaled shrinks CoreScale by the given divisor while holding
// the two ratios that drive the at-scale phenomena: per-flow bandwidth
// (2 Mbps/flow) and buffer-to-BDP (≈1 BDP at 200 ms). divisor 10 gives
// 1 Gbps with 100–500 flows; divisor 50 gives 200 Mbps with 20–100
// flows (the benchmark tier).
func CoreScaleScaled(divisor int) Setting {
	if divisor < 1 {
		divisor = 1
	}
	s := CoreScale()
	s.Name = fmt.Sprintf("CoreScale/%d", divisor)
	s.Rate = units.Bandwidth(int64(s.Rate) / int64(divisor))
	s.Buffer = units.BDP(s.Rate, 200*sim.Millisecond) * 3 / 2 // paper: 375MB = 1.5×BDP(200ms)
	for i, n := range s.FlowCounts {
		s.FlowCounts[i] = n / divisor
	}
	s.Warmup = 15 * sim.Second
	s.Duration = 60 * sim.Second
	s.Stagger = 5 * sim.Second
	return s
}

// Seed is a typed simulation seed. It exists so the options-based
// config path cannot transpose a seed with a flow count or any other
// bare integer: WithSeed(Seed(42)) reads as what it is at every call
// site, and nothing else converts to it implicitly.
type Seed uint64

// ConfigOption customizes a RunConfig built by Setting.Build.
type ConfigOption func(*RunConfig)

// WithSeed sets the run's seed.
func WithSeed(seed Seed) ConfigOption {
	return func(c *RunConfig) { c.Seed = uint64(seed) }
}

// WithRunCollector attaches a telemetry collector to the built config.
func WithRunCollector(coll telemetry.Collector) ConfigOption {
	return func(c *RunConfig) { c.Collector = coll }
}

// Build constructs a RunConfig for this setting with the given flows,
// customized by options (seed, telemetry, …).
func (s Setting) Build(flows []FlowSpec, opts ...ConfigOption) RunConfig {
	cfg := RunConfig{
		Rate:         s.Rate,
		Buffer:       s.Buffer,
		Flows:        flows,
		Warmup:       s.Warmup,
		Duration:     s.Duration,
		Stagger:      s.Stagger,
		Converge:     s.Converge,
		AQM:          s.AQM,
		Topology:     s.Topology,
		ECN:          s.ECN,
		ECNMarkBytes: s.ECNMarkBytes,
		BurstLoss:    s.BurstLoss,
		Outage:       s.Outage,
		WallLimit:    s.WallLimit,
		StallEvents:  s.StallEvents,
		FaultPanicAt: s.FaultPanicAt,
		Audit:        s.Audit,
		Budget:       s.Budget,
	}
	for _, opt := range opts {
		opt(&cfg)
	}
	return cfg
}
