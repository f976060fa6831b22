package core

import (
	"fmt"

	"ccatscale/internal/sim"
	"ccatscale/internal/units"
)

// Setting is one of the paper's two evaluation regimes (§3.1), plus the
// run-length parameters the methodology prescribes: a RunConfig template
// with a name and the flow counts the figures sweep. Build adds a run's
// flows and seed; every other field of the template reaches each run.
type Setting struct {
	// Name identifies the regime ("EdgeScale", "CoreScale", …).
	Name string
	// FlowCounts are the x-axis points of the figures.
	FlowCounts []int
	RunConfig
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
		FlowCounts: []int{10, 30, 50},
		RunConfig: RunConfig{
			Rate:     100 * units.MbitPerSec,
			Buffer:   3 * units.MB,
			Warmup:   15 * sim.Second,
			Duration: 60 * sim.Second,
			Stagger:  5 * sim.Second,
		},
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
		FlowCounts: []int{1000, 3000, 5000},
		RunConfig: RunConfig{
			Rate:     10 * units.GbitPerSec,
			Buffer:   375 * units.MB,
			Warmup:   30 * sim.Second,
			Duration: 120 * sim.Second,
			Stagger:  10 * sim.Second,
		},
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

// Build constructs the setting's RunConfig for the given flows and seed.
func (s Setting) Build(flows []FlowSpec, seed uint64) RunConfig {
	cfg := s.RunConfig
	cfg.Flows, cfg.Seed = flows, seed
	return cfg
}
