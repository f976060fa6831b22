package ccatscale

import (
	"context"
	"math"
	"testing"
	"time"
)

// fastSetting is a quick public-API smoke regime.
func fastSetting() Setting {
	s := CoreScaleScaled(100) // 100 Mbps, 10–50 flows
	s.Warmup = 5e9
	s.Duration = 20e9
	s.Stagger = 2e9
	return s
}

func TestPublicRunAndShares(t *testing.T) {
	s := fastSetting()
	// Cubic's edge over NewReno builds during congestion avoidance
	// (with HyStart both leave slow start early), so give the run
	// enough rounds for the cubic-vs-AIMD growth gap to show.
	s.Duration = 60e9
	cfg := s.Build(MixedFlows(10, "cubic", "reno", 20*time.Millisecond), WithSeed(1))
	res, err := Run(context.Background(), cfg)
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
	flows := OneVersusFlows(5, "bbr", "reno", 20*time.Millisecond)
	if len(flows) != 5 || flows[0].CCA != "bbr" || flows[4].CCA != "reno" {
		t.Fatalf("OneVersusFlows = %v", flows)
	}
	u := UniformFlows(3, "reno", 100*time.Millisecond)
	if len(u) != 3 || u[0].RTT.Std() != 100*time.Millisecond {
		t.Fatalf("UniformFlows = %v", u)
	}
}

func TestPublicMathisPredict(t *testing.T) {
	// 1448·1/(0.02·√0.01) = 724000 bytes/s.
	got := MathisPredict(1, 1448, 20*time.Millisecond, 0.01)
	if math.Abs(got-724000) > 1e-6 {
		t.Fatalf("MathisPredict = %v", got)
	}
}

func TestPublicJFIAndBurstiness(t *testing.T) {
	if JFI([]float64{1, 1, 1}) != 1 {
		t.Fatal("JFI")
	}
	if b := Burstiness([]float64{0, 1, 2, 3, 4}); math.Abs(b+1) > 1e-9 {
		t.Fatalf("Burstiness periodic = %v", b)
	}
}

func TestPublicWareShare(t *testing.T) {
	if got := WareBBRShare(15); got != 0.5 {
		t.Fatalf("WareBBRShare(15) = %v", got)
	}
}

func TestPaperRTTs(t *testing.T) {
	rtts := PaperRTTs()
	want := []time.Duration{20 * time.Millisecond, 100 * time.Millisecond, 200 * time.Millisecond}
	if len(rtts) != 3 {
		t.Fatalf("PaperRTTs = %v", rtts)
	}
	for i := range want {
		if rtts[i] != want[i] {
			t.Fatalf("PaperRTTs[%d] = %v, want %v", i, rtts[i], want[i])
		}
	}
}

func TestSettingsExposePaperParameters(t *testing.T) {
	e := EdgeScale()
	if e.Rate.String() != "100Mbps" || e.Buffer.String() != "3MB" {
		t.Fatalf("EdgeScale = %v %v", e.Rate, e.Buffer)
	}
	c := CoreScale()
	if c.Rate.String() != "10Gbps" || c.Buffer.String() != "375MB" {
		t.Fatalf("CoreScale = %v %v", c.Rate, c.Buffer)
	}
}

func TestMSSConstant(t *testing.T) {
	if MSS != 1448 {
		t.Fatalf("MSS = %d", MSS)
	}
}

func TestPublicSweeps(t *testing.T) {
	s := fastSetting()
	s.FlowCounts = []int{4}
	s.Duration = 15e9

	rows, err := MathisSweep(s, 1, 2)
	if err != nil || len(rows) != 1 {
		t.Fatalf("MathisSweep: %v %v", rows, err)
	}
	intra, err := IntraCCASweep(s, "reno", []time.Duration{20 * time.Millisecond}, 1, 2)
	if err != nil || len(intra) != 1 || intra[0].JFI <= 0 {
		t.Fatalf("IntraCCASweep: %+v %v", intra, err)
	}
	inter, err := InterCCASweep(s, EqualSplit, "cubic", "reno", []time.Duration{20 * time.Millisecond}, 1, 2)
	if err != nil || len(inter) != 1 {
		t.Fatalf("InterCCASweep: %+v %v", inter, err)
	}
	res, err := RunMany(context.Background(),
		[]RunConfig{s.Build(UniformFlows(2, "reno", 20*time.Millisecond), WithSeed(1))},
		WithParallelism(2))
	if err != nil || len(res) != 1 {
		t.Fatalf("RunMany: %v", err)
	}
}

func TestPublicChurn(t *testing.T) {
	s := fastSetting()
	cfg := RunConfig{
		Rate:     s.Rate,
		Buffer:   s.Buffer,
		Duration: 10e9,
		Seed:     1,
		Arrivals: &ArrivalSpec{
			CCA:           "reno",
			RTT:           20e6, // 20 ms in sim.Time units
			TransferBytes: 200e3,
			PerSecond:     10,
		},
	}
	// Churn is an ordinary Run: the call-level options apply to it.
	var events int
	res, err := Run(context.Background(), cfg,
		WithCollector(CollectorFunc(func(Event) { events++ })))
	if err != nil {
		t.Fatal(err)
	}
	if res.Arrivals.Completed == 0 || res.Arrivals.FCTQuantile(0.5) <= 0 {
		t.Fatalf("churn result: %+v", res.Arrivals)
	}
	if events == 0 {
		t.Fatal("collector saw no events from a churn run")
	}
	if _, err := Run(context.Background(), cfg, WithBudget(&Budget{Horizon: 5e9})); err == nil {
		t.Fatal("a 40 s churn run was admitted under a 5 s horizon budget")
	}
}
