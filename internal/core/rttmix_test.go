package core

import (
	"testing"

	"ccatscale/internal/sim"
	"ccatscale/internal/units"
)

func TestRTTMixFlowsAlternate(t *testing.T) {
	flows := RTTMixFlows(5, "reno", 20*sim.Millisecond, 100*sim.Millisecond)
	if len(flows) != 5 {
		t.Fatalf("len = %d", len(flows))
	}
	for i, f := range flows {
		want := 20 * sim.Millisecond
		if i%2 == 1 {
			want = 100 * sim.Millisecond
		}
		if f.RTT != want || f.CCA != "reno" {
			t.Fatalf("flow %d = %+v", i, f)
		}
	}
}

func TestRTTMixAnalyze(t *testing.T) {
	short, long := 20*sim.Millisecond, 100*sim.Millisecond
	res := RunResult{
		Utilization: 0.95,
		Flows: []FlowResult{
			{Spec: FlowSpec{CCA: "reno", RTT: short}, Goodput: 60},
			{Spec: FlowSpec{CCA: "reno", RTT: long}, Goodput: 20},
			{Spec: FlowSpec{CCA: "reno", RTT: short}, Goodput: 60},
			{Spec: FlowSpec{CCA: "reno", RTT: long}, Goodput: 20},
		},
	}
	row := RTTMixAnalyze("x", "reno", short, long, res)
	if row.ShortShare != 0.75 {
		t.Fatalf("ShortShare = %v, want 0.75", row.ShortShare)
	}
	if row.ShortJFI != 1 || row.LongJFI != 1 {
		t.Fatalf("per-class JFI = %v/%v", row.ShortJFI, row.LongJFI)
	}
	if row.FlowCount != 4 || row.Utilization != 0.95 {
		t.Fatalf("row = %+v", row)
	}
}

func TestRTTMixSweepRenoShortRTTAdvantage(t *testing.T) {
	// The classic AIMD RTT bias: the short-RTT class must out-earn the
	// long-RTT class at a shared drop-tail bottleneck.
	s := Setting{
		Name:       "rttmix-test",
		FlowCounts: []int{8},
		RunConfig: RunConfig{
			Rate:     50 * units.MbitPerSec,
			Buffer:   units.BDP(50*units.MbitPerSec, 200*sim.Millisecond),
			Warmup:   10 * sim.Second,
			Duration: 60 * sim.Second,
			Stagger:  2 * sim.Second,
		},
	}
	short, long := 20*sim.Millisecond, 100*sim.Millisecond
	rows := RTTMixRows(s, "reno", short, long, runPlan(t, RTTMixConfigs(s, "reno", short, long, 1)))
	row := rows[0]
	if row.ShortShare <= 0.55 {
		t.Fatalf("short-RTT share = %v; expected a clear RTT advantage", row.ShortShare)
	}
	if row.ShortShare >= 0.99 {
		t.Fatalf("short-RTT share = %v; long-RTT flows fully starved", row.ShortShare)
	}
}

func TestRunSeriesSampling(t *testing.T) {
	cfg := RunConfig{
		Rate:           20 * units.MbitPerSec,
		Buffer:         units.BDP(20*units.MbitPerSec, 200*sim.Millisecond),
		Flows:          MixedFlows(4, "cubic", "reno", 20*sim.Millisecond),
		Warmup:         2 * sim.Second,
		Duration:       10 * sim.Second,
		Seed:           1,
		SeriesInterval: sim.Second,
	}
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.SeriesNames) != 2 {
		t.Fatalf("SeriesNames = %v", res.SeriesNames)
	}
	if len(res.Series) < 10 {
		t.Fatalf("series points = %d", len(res.Series))
	}
	// Aggregate series rate in steady state ≈ link rate.
	last := res.Series[len(res.Series)-1]
	total := float64(last.Rates[0] + last.Rates[1])
	if total < 0.7*float64(cfg.Rate) {
		t.Fatalf("series total = %v on %v link", total, cfg.Rate)
	}
}
