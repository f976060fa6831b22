package core

import (
	"context"
	"testing"

	"ccatscale/internal/mathis"
	"ccatscale/internal/sim"
	"ccatscale/internal/units"
)

func sweepSetting() Setting {
	return Setting{
		Name:       "sweep-test",
		Rate:       50 * units.MbitPerSec,
		Buffer:     units.BDP(50*units.MbitPerSec, 200*sim.Millisecond) * 6 / 5,
		FlowCounts: []int{4, 8},
		Warmup:     5 * sim.Second,
		Duration:   25 * sim.Second,
		Stagger:    2 * sim.Second,
	}
}

// runPlan runs a plan's configs one by one through RunCtx, as a front
// end does, and fails the test on any run's error; the caller applies
// the plan's *Rows analysis.
func runPlan(t *testing.T, cfgs []RunConfig) []RunResult {
	t.Helper()
	results := make([]RunResult, len(cfgs))
	for i, cfg := range cfgs {
		res, err := RunCtx(context.Background(), cfg)
		if err != nil {
			t.Fatalf("config %d: %v", i, err)
		}
		results[i] = res
	}
	return results
}

func TestMathisSweepProducesRows(t *testing.T) {
	s := sweepSetting()
	rows := MathisRows(s, runPlan(t, MathisConfigs(s, 1)))
	if len(rows) != 2 {
		t.Fatalf("rows = %d, want 2", len(rows))
	}
	for _, r := range rows {
		if r.Setting != "sweep-test" {
			t.Fatalf("setting = %q", r.Setting)
		}
		if r.CLoss <= 0 || r.CHalve <= 0 {
			t.Fatalf("degenerate constants: %+v", r)
		}
		if r.CLoss > 10 || r.CHalve > 10 {
			t.Fatalf("implausible constants: %+v", r)
		}
		if r.MedianErrHalve < 0 || r.MedianErrHalve > 1 {
			t.Fatalf("halving error out of range: %+v", r)
		}
		if r.LossToHalvingRatio <= 0 {
			t.Fatalf("no loss:halving ratio: %+v", r)
		}
		if r.Utilization < 0.8 {
			t.Fatalf("low utilization: %+v", r)
		}
	}
}

func TestMathisAnalyzeEmptyRun(t *testing.T) {
	// A result with no usable flows must not panic and yields zeroes.
	row := MathisAnalyze("x", 0, RunResult{Config: RunConfig{MSS: units.MSS}})
	if row.CLoss != 0 || row.CHalve != 0 || row.LossToHalvingRatio != 0 {
		t.Fatalf("row = %+v, want zeroes", row)
	}
}

func TestIntraCCASweepShape(t *testing.T) {
	s := sweepSetting()
	rtts := []sim.Time{20 * sim.Millisecond, 100 * sim.Millisecond}
	rows := FairnessRows(s, rtts, runPlan(t, IntraCCAConfigs(s, "reno", rtts, 1)))
	if len(rows) != len(rtts)*len(s.FlowCounts) {
		t.Fatalf("rows = %d", len(rows))
	}
	for _, r := range rows {
		if r.JFI <= 0 || r.JFI > 1 {
			t.Fatalf("JFI out of range: %+v", r)
		}
		if r.Share["reno"] < 0.999 {
			t.Fatalf("single-CCA share = %v", r.Share)
		}
	}
}

func TestInterCCASweepModes(t *testing.T) {
	s := sweepSetting()
	s.FlowCounts = []int{6}
	rtts := []sim.Time{20 * sim.Millisecond}

	eq := FairnessRows(s, rtts, runPlan(t, InterCCAConfigs(s, EqualSplit, "cubic", "reno", rtts, 1)))
	if got := eq[0].Share["cubic"] + eq[0].Share["reno"]; got < 0.999 {
		t.Fatalf("shares sum = %v", got)
	}

	// BBR's model needs time to recover from the startup-phase collapse
	// (its min-RTT glimpse of the empty queue caps the window until the
	// 10 s filter expires), so the one-vs-many check uses a longer
	// window than the quick sweeps above.
	s.Duration = 90 * sim.Second
	ovm := FairnessRows(s, rtts, runPlan(t, InterCCAConfigs(s, OneVersusMany, "bbr", "reno", rtts, 1)))
	if ovm[0].Share["bbr"] <= 0 {
		t.Fatalf("loner got nothing: %v", ovm[0].Share)
	}
	// One BBR flow among six: its share must exceed the 1/6 fair share
	// (the paper's Finding 6 direction) in this deep-buffer setting.
	if ovm[0].Share["bbr"] < 1.0/6 {
		t.Fatalf("bbr share %v below fair share", ovm[0].Share["bbr"])
	}
}

func TestMathisSamplesRespectInterpretation(t *testing.T) {
	res := RunResult{
		Config: RunConfig{MSS: units.MSS},
		Flows: []FlowResult{{
			Goodput:     8 * units.MbitPerSec,
			LossRate:    0.01,
			HalvingRate: 0.002,
			MeanRTT:     50 * sim.Millisecond,
		}},
	}
	loss := mathisSamples(res, false)
	halve := mathisSamples(res, true)
	if len(loss) != 1 || len(halve) != 1 {
		t.Fatal("sample extraction failed")
	}
	if loss[0].P != 0.01 || halve[0].P != 0.002 {
		t.Fatalf("p mixup: %v vs %v", loss[0].P, halve[0].P)
	}
	// Degenerate flows are skipped.
	res.Flows[0].LossRate = 0
	if len(mathisSamples(res, false)) != 0 {
		t.Fatal("zero-p sample not skipped")
	}
	_ = mathis.Sample{}
}
