package ccatscale

// The paper's parameters and headline model values, checked from the
// module root: each test pins a number the paper states or a direction
// it reports, against the internal package that computes it.

import (
	"context"
	"math"
	"testing"

	"ccatscale/internal/budget"
	"ccatscale/internal/core"
	"ccatscale/internal/mathis"
	"ccatscale/internal/metrics"
	"ccatscale/internal/sim"
	"ccatscale/internal/telemetry"
	"ccatscale/internal/units"
	"ccatscale/internal/waremodel"
)

// fastSetting is a quick smoke regime.
func fastSetting() core.Setting {
	s := core.CoreScaleScaled(100) // 100 Mbps, 10–50 flows
	s.Warmup = 5 * sim.Second
	s.Duration = 20 * sim.Second
	s.Stagger = 2 * sim.Second
	return s
}

func TestPublicRunAndShares(t *testing.T) {
	s := fastSetting()
	// Cubic's edge over NewReno builds during congestion avoidance
	// (with HyStart both leave slow start early), so give the run
	// enough rounds for the cubic-vs-AIMD growth gap to show.
	s.Duration = 60 * sim.Second
	cfg := s.Build(core.MixedFlows(10, "cubic", "reno", 20*sim.Millisecond), core.WithSeed(1))
	res, err := core.RunCtx(context.Background(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	share := res.ShareByCCA()
	if share["cubic"]+share["reno"] < 0.99 {
		t.Fatalf("shares don't sum to 1: %v", share)
	}
	if share["cubic"] <= 0.5 {
		t.Fatalf("cubic share = %v, want > 0.5 (paper Finding 8)", share["cubic"])
	}
}

func TestPublicFlowBuilders(t *testing.T) {
	flows := core.OneVersusFlows(5, "bbr", "reno", 20*sim.Millisecond)
	if len(flows) != 5 || flows[0].CCA != "bbr" || flows[4].CCA != "reno" {
		t.Fatalf("OneVersusFlows = %v", flows)
	}
	u := core.UniformFlows(3, "reno", 100*sim.Millisecond)
	if len(u) != 3 || u[0].RTT != 100*sim.Millisecond {
		t.Fatalf("UniformFlows = %v", u)
	}
}

func TestPublicMathisPredict(t *testing.T) {
	// 1448·1/(0.02·√0.01) = 724000 bytes/s.
	got := mathis.Predict(1, mathis.Sample{P: 0.01, RTTSeconds: 0.02, MSSBytes: 1448})
	if math.Abs(got-724000) > 1e-6 {
		t.Fatalf("Predict = %v", got)
	}
}

func TestPublicJFIAndBurstiness(t *testing.T) {
	if metrics.JFI([]float64{1, 1, 1}) != 1 {
		t.Fatal("JFI")
	}
	if b := metrics.Burstiness([]float64{0, 1, 2, 3, 4}); math.Abs(b+1) > 1e-9 {
		t.Fatalf("Burstiness periodic = %v", b)
	}
}

func TestPublicWareShare(t *testing.T) {
	if got := waremodel.SingleBBRShare(15); got != 0.5 {
		t.Fatalf("SingleBBRShare(15) = %v", got)
	}
}

func TestPaperRTTs(t *testing.T) {
	want := []sim.Time{20 * sim.Millisecond, 100 * sim.Millisecond, 200 * sim.Millisecond}
	if len(core.RTTs) != 3 {
		t.Fatalf("RTTs = %v", core.RTTs)
	}
	for i := range want {
		if core.RTTs[i] != want[i] {
			t.Fatalf("RTTs[%d] = %v, want %v", i, core.RTTs[i], want[i])
		}
	}
}

func TestSettingsExposePaperParameters(t *testing.T) {
	e := core.EdgeScale()
	if e.Rate.String() != "100Mbps" || e.Buffer.String() != "3MB" {
		t.Fatalf("EdgeScale = %v %v", e.Rate, e.Buffer)
	}
	c := core.CoreScale()
	if c.Rate.String() != "10Gbps" || c.Buffer.String() != "375MB" {
		t.Fatalf("CoreScale = %v %v", c.Rate, c.Buffer)
	}
}

func TestMSSConstant(t *testing.T) {
	if units.MSS != 1448 {
		t.Fatalf("MSS = %d", units.MSS)
	}
}

// TestPublicSweeps runs three of the paper's plans the way a front end
// runs them — each config through core.RunCtx, then the plan's
// analysis.
func TestPublicSweeps(t *testing.T) {
	s := fastSetting()
	s.FlowCounts = []int{4}
	s.Duration = 15 * sim.Second
	run := func(name string, cfgs []core.RunConfig) []core.RunResult {
		t.Helper()
		res := make([]core.RunResult, len(cfgs))
		for i, cfg := range cfgs {
			var err error
			if res[i], err = core.RunCtx(context.Background(), cfg); err != nil {
				t.Fatalf("%s: config %d: %v", name, i, err)
			}
		}
		return res
	}
	rtts := []sim.Time{20 * sim.Millisecond}

	if rows := core.MathisRows(s, run("mathis", core.MathisConfigs(s, 1))); len(rows) != 1 {
		t.Fatalf("MathisRows: %v", rows)
	}
	intra := core.FairnessRows(s, rtts, run("intra", core.IntraCCAConfigs(s, "reno", rtts, 1)))
	if len(intra) != 1 || intra[0].JFI <= 0 {
		t.Fatalf("intra-CCA rows: %+v", intra)
	}
	inter := core.FairnessRows(s, rtts, run("inter", core.InterCCAConfigs(s, core.EqualSplit, "cubic", "reno", rtts, 1)))
	if len(inter) != 1 {
		t.Fatalf("inter-CCA rows: %+v", inter)
	}
	run("single", []core.RunConfig{s.Build(core.UniformFlows(2, "reno", 20*sim.Millisecond), core.WithSeed(1))})
}

func TestPublicChurn(t *testing.T) {
	s := fastSetting()
	cfg := core.RunConfig{
		Rate:     s.Rate,
		Buffer:   s.Buffer,
		Duration: 10 * sim.Second,
		Seed:     1,
		Arrivals: &core.ArrivalSpec{
			CCA:           "reno",
			RTT:           20 * sim.Millisecond,
			TransferBytes: 200 * units.KB,
			PerSecond:     10,
		},
	}
	// Churn is an ordinary run: a collector and a budget apply to it.
	var events int
	observed := cfg
	observed.Collector = telemetry.CollectorFunc(func(telemetry.Event) { events++ })
	res, err := core.RunCtx(context.Background(), observed)
	if err != nil {
		t.Fatal(err)
	}
	if res.Arrivals.Completed == 0 || res.Arrivals.FCTQuantile(0.5) <= 0 {
		t.Fatalf("churn result: %+v", res.Arrivals)
	}
	if events == 0 {
		t.Fatal("collector saw no events from a churn run")
	}
	cfg.Budget = &budget.Budget{Horizon: 5 * sim.Second}
	if _, err := core.RunCtx(context.Background(), cfg); err == nil {
		t.Fatal("a 40 s churn run was admitted under a 5 s horizon budget")
	}
}
