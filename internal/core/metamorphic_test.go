package core

import (
	"math"
	"reflect"
	"testing"

	"ccatscale/internal/sim"
	"ccatscale/internal/units"
)

// Metamorphic tests: transformations of a run whose effect on the
// metrics is known a priori. All runs execute under the strict auditor,
// so every simulated byte is also conservation-checked along the way.

// TestMetamorphicScaleInvariance scales flow count, bottleneck rate, and
// buffer together: the per-flow share of one flow is unchanged by the
// transformation (the paper's own CoreScaleScaled rests on exactly this
// property). The runs are stochastic (staggered starts, different RNG
// streams), so the comparison is distributional: mean per-flow goodput
// and aggregate utilization within a tolerance, not bit equality.
func TestMetamorphicScaleInvariance(t *testing.T) {
	base := RunConfig{
		Rate:     40 * units.MbitPerSec,
		Buffer:   units.BDP(40*units.MbitPerSec, 200*sim.Millisecond) * 6 / 5,
		Flows:    UniformFlows(4, "cubic", DefaultRTT),
		Warmup:   5 * sim.Second,
		Duration: 30 * sim.Second,
		Stagger:  2 * sim.Second,
		Seed:     11,
		Audit:    "strict",
	}
	scaled := base
	scaled.Rate = 2 * base.Rate
	scaled.Buffer = 2 * base.Buffer
	scaled.Flows = UniformFlows(8, "cubic", DefaultRTT)

	a, err := Run(base)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Run(scaled)
	if err != nil {
		t.Fatal(err)
	}
	perFlowA := float64(a.AggregateGoodput) / float64(len(a.Flows))
	perFlowB := float64(b.AggregateGoodput) / float64(len(b.Flows))
	if r := perFlowB / perFlowA; r < 0.85 || r > 1.15 {
		t.Fatalf("per-flow goodput not scale-invariant: %v vs %v (ratio %.3f)",
			perFlowA, perFlowB, r)
	}
	if d := math.Abs(a.Utilization - b.Utilization); d > 0.05 {
		t.Fatalf("utilization diverged under scaling: %.3f vs %.3f", a.Utilization, b.Utilization)
	}
}

// TestMetamorphicStartOrderPermutation permutes the flow start order of
// a mixed-CCA run (interleaved vs blocked). The flow multiset is
// unchanged, so the aggregate behavior — utilization, per-CCA share —
// must be preserved within stochastic tolerance; only the identity of
// which flow got which stagger slot may differ. Single seeds are noisy
// at 8 flows, so each side is averaged over several seeds before the
// comparison — the metamorphic claim is about the distribution, not one
// draw.
func TestMetamorphicStartOrderPermutation(t *testing.T) {
	// Cubic-vs-reno shares converge slowly (the cubic advantage builds
	// over epochs), so the horizon must be long enough that both
	// orderings have reached the steady share before comparing.
	s := tinySetting()
	s.Warmup = 10 * sim.Second
	s.Duration = 90 * sim.Second
	seeds := []uint64{5, 6, 7}

	average := func(flows []FlowSpec) (goodput, share float64) {
		for _, seed := range seeds {
			cfg := s.Build(flows, seed)
			cfg.Audit = "strict"
			res, err := Run(cfg)
			if err != nil {
				t.Fatal(err)
			}
			goodput += float64(res.AggregateGoodput)
			share += res.ShareByCCA()["cubic"]
		}
		n := float64(len(seeds))
		return goodput / n, share / n
	}

	interleaved := MixedFlows(8, "cubic", "reno", DefaultRTT)
	blocked := append(UniformFlows(4, "cubic", DefaultRTT), UniformFlows(4, "reno", DefaultRTT)...)
	goodA, shareA := average(interleaved)
	goodB, shareB := average(blocked)

	if r := goodB / goodA; r < 0.95 || r > 1.05 {
		t.Fatalf("aggregate goodput changed under start-order permutation: ratio %.3f", r)
	}
	if d := math.Abs(shareA - shareB); d > 0.12 {
		t.Fatalf("mean cubic share moved %.3f under start-order permutation (%.3f vs %.3f)",
			d, shareA, shareB)
	}
}

// TestMetamorphicHorizonPrefix extends the measurement horizon: because
// nothing in the simulation depends on the end time, the longer run's
// goodput time series must carry the shorter run's series as a
// bit-identical prefix. This is an exact (non-statistical) metamorphic
// property and a sharp regression detector for any end-time leakage
// into the event stream.
func TestMetamorphicHorizonPrefix(t *testing.T) {
	s := tinySetting()
	s.Warmup = 2 * sim.Second
	short := s.Build(MixedFlows(4, "cubic", "bbr", DefaultRTT), 17)
	short.Duration = 8 * sim.Second
	short.SeriesInterval = sim.Second
	short.Audit = "strict"
	long := short
	long.Duration = 16 * sim.Second

	a, err := Run(short)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Run(long)
	if err != nil {
		t.Fatal(err)
	}
	if len(b.Series) <= len(a.Series) {
		t.Fatalf("longer run has no longer series: %d vs %d", len(b.Series), len(a.Series))
	}
	if !reflect.DeepEqual(a.Series, b.Series[:len(a.Series)]) {
		t.Fatal("shorter run's series is not a bit-identical prefix of the longer run's")
	}
}
