package core

import (
	"math"
	"testing"

	"ccatscale/internal/mathis"
	"ccatscale/internal/padhye"
	"ccatscale/internal/sim"
	"ccatscale/internal/units"
)

// TestMathisCalibrationUnderBernoulliLoss validates the whole stack
// against the Mathis model in the regime the model was derived for:
// a single NewReno flow, independent random loss, no queueing. The
// classic constant for delayed-ACK NewReno is C = √(3/(2b)) ≈ 0.87
// (b = 2); with stretch ACKs and byte counting implementations land
// between ≈0.7 and ≈1.3. This is the calibration anchor for all the §4
// experiments.
func TestMathisCalibrationUnderBernoulliLoss(t *testing.T) {
	const lossProb = 0.005
	rtt := 40 * sim.Millisecond
	cfg := RunConfig{
		Rate:       100 * units.MbitPerSec, // never the bottleneck
		Buffer:     10 * units.MB,
		Flows:      []FlowSpec{{CCA: "reno", RTT: rtt}},
		Warmup:     10 * sim.Second,
		Duration:   120 * sim.Second,
		Seed:       3,
		RandomLoss: lossProb,
	}
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	f := res.Flows[0]
	if res.RandomDrops == 0 {
		t.Fatal("no random drops despite configured loss")
	}
	if res.Utilization > 0.9 {
		t.Fatalf("link saturated (util %v): calibration needs loss-limited flow", res.Utilization)
	}
	// The flow must be loss-limited well below line rate.
	measured := f.Goodput.BytesPerSec()
	sample := mathis.Sample{P: lossProb, RTTSeconds: f.MeanRTT.Seconds(), MSSBytes: float64(units.MSS)}
	implThroughput := func(c float64) float64 { return mathis.Predict(c, sample) }
	cLow, cHigh := implThroughput(0.6), implThroughput(1.6)
	if measured < cLow || measured > cHigh {
		t.Fatalf("measured %v outside Mathis band [%v, %v] (C in [0.6, 1.6]); implied C = %v",
			measured, cLow, cHigh, measured/implThroughput(1))
	}
	// PFTK with the same parameters should also be within a factor ~2
	// at this low loss.
	pftk := padhye.Throughput(padhye.Params{
		MSSBytes:   float64(units.MSS),
		RTTSeconds: f.MeanRTT.Seconds(),
	}, lossProb)
	ratio := measured / pftk
	if ratio < 0.5 || ratio > 3 {
		t.Fatalf("measured/PFTK = %v, want within [0.5, 3]", ratio)
	}
	_ = math.Sqrt // doc anchor
}

// TestJitterDoesNotBreakTransport checks the transport tolerates mild
// netem jitter (sub-reordering-threshold) without collapse.
func TestJitterDoesNotBreakTransport(t *testing.T) {
	cfg := RunConfig{
		Rate:     20 * units.MbitPerSec,
		Buffer:   units.BDP(20*units.MbitPerSec, 200*sim.Millisecond),
		Flows:    []FlowSpec{{CCA: "reno", RTT: 20 * sim.Millisecond}},
		Warmup:   5 * sim.Second,
		Duration: 20 * sim.Second,
		Seed:     1,
		Jitter:   200 * sim.Microsecond,
	}
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if float64(res.AggregateGoodput) < 0.7*float64(cfg.Rate) {
		t.Fatalf("goodput %v collapsed under mild jitter", res.AggregateGoodput)
	}
}

// TestBBR2SingleFlowKeepsLowQueue checks the v2 design goals on a
// clean link: full utilization with a small standing queue.
func TestBBR2SingleFlowKeepsLowQueue(t *testing.T) {
	rate := 50 * units.MbitPerSec
	rtt := 20 * sim.Millisecond
	cfg := RunConfig{
		Rate:     rate,
		Buffer:   units.BDP(rate, 200*sim.Millisecond),
		Flows:    UniformFlows(1, "bbr2", rtt),
		Warmup:   5 * sim.Second,
		Duration: 30 * sim.Second,
		Seed:     1,
	}
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if float64(res.AggregateGoodput) < 0.75*float64(rate) {
		t.Fatalf("bbr2 goodput = %v on %v link", res.AggregateGoodput, rate)
	}
	if res.Flows[0].MeanRTT > 4*rtt {
		t.Fatalf("bbr2 standing queue too deep: meanRTT %v", res.Flows[0].MeanRTT)
	}
}

// TestBBR2GentlerThanBBR1VersusReno compares the two generations in
// the same competition: v2's loss response must leave NewReno a larger
// share than v1 does.
func TestBBR2GentlerThanBBR1VersusReno(t *testing.T) {
	rate := 50 * units.MbitPerSec
	base := RunConfig{
		Rate:     rate,
		Buffer:   units.BDP(rate, 200*sim.Millisecond) * 3 / 2,
		Warmup:   10 * sim.Second,
		Duration: 60 * sim.Second,
		Seed:     3,
	}
	v1 := base
	v1.Flows = append(UniformFlows(2, "bbr", 20*sim.Millisecond), UniformFlows(2, "reno", 20*sim.Millisecond)...)
	v2 := base
	v2.Flows = append(UniformFlows(2, "bbr2", 20*sim.Millisecond), UniformFlows(2, "reno", 20*sim.Millisecond)...)
	r1, err := Run(v1)
	if err != nil {
		t.Fatal(err)
	}
	r2, err := Run(v2)
	if err != nil {
		t.Fatal(err)
	}
	renoV1 := r1.ShareByCCA()["reno"]
	renoV2 := r2.ShareByCCA()["reno"]
	if renoV2 <= renoV1 {
		t.Fatalf("reno share vs bbr2 (%v) not above vs bbr1 (%v)", renoV2, renoV1)
	}
}

// TestCoDelRemovesStandingQueue runs the AQM extension end-to-end: a
// saturating NewReno flow over a CoDel bottleneck keeps its RTT near
// the base RTT (no bufferbloat), where the paper's drop-tail pins the
// deep buffer full.
func TestCoDelRemovesStandingQueue(t *testing.T) {
	rate := 20 * units.MbitPerSec
	rtt := 20 * sim.Millisecond
	base := RunConfig{
		Rate:     rate,
		Buffer:   units.BDP(rate, 200*sim.Millisecond),
		Flows:    UniformFlows(2, "reno", rtt),
		Warmup:   5 * sim.Second,
		Duration: 30 * sim.Second,
		Seed:     1,
	}
	codel := base
	codel.AQM = "codel"
	dt, err := Run(base)
	if err != nil {
		t.Fatal(err)
	}
	cd, err := Run(codel)
	if err != nil {
		t.Fatal(err)
	}
	if dt.Flows[0].MeanRTT < 3*rtt {
		t.Fatalf("drop-tail meanRTT %v shows no bufferbloat baseline", dt.Flows[0].MeanRTT)
	}
	if cd.Flows[0].MeanRTT > 2*rtt {
		t.Fatalf("CoDel meanRTT %v: standing queue not controlled", cd.Flows[0].MeanRTT)
	}
	// Throughput must not collapse under AQM.
	if float64(cd.AggregateGoodput) < 0.7*float64(rate) {
		t.Fatalf("CoDel goodput %v", cd.AggregateGoodput)
	}
}

// TestUnknownAQMRejected covers config validation.
func TestUnknownAQMRejected(t *testing.T) {
	cfg := RunConfig{
		Rate: units.MbitPerSec, Buffer: units.MB, Duration: sim.Second,
		Flows: UniformFlows(1, "reno", sim.Millisecond), AQM: "red",
	}
	if _, err := Run(cfg); err == nil {
		t.Fatal("unknown AQM accepted")
	}
}

// TestAblationDirections runs DESIGN.md's ablations of the paper's
// setup choices and asserts the direction that theory or the cited
// literature gives each one. Every case is an ordered list of configs
// that differ in the ablated knob only (seed 1), and its metric must
// move strictly one way along that list.
func TestAblationDirections(t *testing.T) {
	if testing.Short() {
		t.Skip("seven simulations of 20–40 virtual seconds")
	}
	// The edge tier with shortened windows.
	edge := func() Setting {
		s := EdgeScale()
		s.Warmup, s.Duration, s.Stagger = 10*sim.Second, 30*sim.Second, 3*sim.Second
		return s
	}
	const seed = 1
	delack := func(delay sim.Time) RunConfig {
		cfg := edge().Build(UniformFlows(30, "reno", DefaultRTT), seed)
		cfg.DelAckDelay = delay
		return cfg
	}
	// The scaled core tier (200 Mbps) over a fraction of BDP(200 ms).
	buffer := func(num, den units.ByteCount) RunConfig {
		s := CoreScaleScaled(50)
		s.Warmup, s.Duration, s.Stagger = 10*sim.Second, 30*sim.Second, 3*sim.Second
		s.Buffer = units.BDP(s.Rate, 200*sim.Millisecond) * num / den
		return s.Build(MixedFlows(20, "bbr", "reno", DefaultRTT), seed)
	}
	// Starts 10 s apart on the edge tier, so each slow start's overshoot
	// shows. The edge tier on purpose: at scale, GRO's stretch ACKs
	// starve HyStart of the RTT samples it needs per round.
	hystart := func(cca string) RunConfig {
		s := edge()
		s.Warmup, s.Duration, s.Stagger = 5*sim.Second, 15*sim.Second, 10*sim.Second
		return s.Build(UniformFlows(10, cca, DefaultRTT), seed)
	}
	for _, c := range []struct {
		name   string
		runs   []RunConfig
		metric func(RunResult) float64
		want   string // "rising" or "falling" along runs
	}{
		// Mathis's C = √(3/(2b)): without delayed ACKs b falls from 2
		// to 1, so the fitted C(halving) rises.
		{"DelayedACKOffRaisesCHalving", []RunConfig{delack(0), delack(-1)},
			func(r RunResult) float64 { return MathisAnalyze("edge", 30, r).CHalve }, "rising"},
		// Hock et al.: BBR takes most of a shallow buffer and loses share
		// to loss-based flows as the buffer deepens.
		{"BBRShareFallsWithBuffer", []RunConfig{buffer(1, 4), buffer(1, 2), buffer(1, 1)},
			func(r RunResult) float64 { return r.ShareByCCA()["bbr"] }, "falling"},
		// HyStart leaves slow start before it overshoots the pipe.
		{"NoHyStartDropsMore", []RunConfig{hystart("cubic"), hystart("cubic-nohystart")},
			func(r RunResult) float64 { return float64(r.TotalDrops) }, "rising"},
	} {
		t.Run(c.name, func(t *testing.T) {
			vals := make([]float64, len(c.runs))
			for i, cfg := range c.runs {
				res, err := Run(cfg)
				if err != nil {
					t.Fatal(err)
				}
				vals[i] = c.metric(res)
			}
			for i := 1; i < len(vals); i++ {
				step := vals[i] - vals[i-1]
				if c.want == "falling" {
					step = -step
				}
				if step <= 0 {
					t.Fatalf("metric along the ablation = %v; want it strictly %s", vals, c.want)
				}
			}
			t.Logf("metric along the ablation: %v", vals)
		})
	}
}
