package core

import (
	"context"
	"errors"
	"reflect"
	"sync"
	"testing"

	"ccatscale/internal/cca"
	"ccatscale/internal/sim"
	"ccatscale/internal/units"
)

// tinySetting is a fast test regime: 50 Mbps, ≈1.2 BDP buffer at
// 200 ms, seconds-long windows.
func tinySetting() Setting {
	return Setting{
		Name:       "tiny",
		FlowCounts: []int{4, 8},
		RunConfig: RunConfig{
			Rate:     50 * units.MbitPerSec,
			Buffer:   units.BDP(50*units.MbitPerSec, 200*sim.Millisecond) * 6 / 5,
			Warmup:   5 * sim.Second,
			Duration: 20 * sim.Second,
			Stagger:  2 * sim.Second,
		},
	}
}

func TestRunValidation(t *testing.T) {
	bad := []RunConfig{
		{},
		{Rate: units.MbitPerSec, Buffer: units.MB, Duration: sim.Second},
		{Rate: units.MbitPerSec, Buffer: units.MB, Duration: sim.Second,
			Flows: []FlowSpec{{CCA: "quic", RTT: sim.Millisecond}}},
		{Rate: units.MbitPerSec, Buffer: units.MB, Duration: sim.Second,
			Flows: []FlowSpec{{CCA: "reno", RTT: 0}}},
	}
	for i, cfg := range bad {
		if _, err := Run(cfg); err == nil {
			t.Errorf("config %d: expected error", i)
		}
	}
}

func TestRunRenoUtilizationAndFairness(t *testing.T) {
	s := tinySetting()
	// The deep (1.2 BDP @ 200 ms) buffer inflates the effective RTT to
	// ≈10× base, so AIMD convergence needs a few hundred rounds: give
	// the run a couple of virtual minutes, as the paper's own
	// convergence rule would.
	s.Duration = 2 * sim.Minute
	res, err := Run(s.Build(UniformFlows(8, "reno", DefaultRTT), 1))
	if err != nil {
		t.Fatal(err)
	}
	if res.Utilization < 0.85 {
		t.Fatalf("utilization = %v", res.Utilization)
	}
	if jfi := res.JFI(); jfi < 0.8 {
		t.Fatalf("8-reno JFI = %v", jfi)
	}
	if res.TotalDrops == 0 {
		t.Fatal("no drops at a saturated drop-tail bottleneck")
	}
	agg := float64(res.AggregateGoodput)
	if agg < 0.8*float64(s.Rate) || agg > float64(s.Rate) {
		t.Fatalf("aggregate goodput = %v on %v link", res.AggregateGoodput, s.Rate)
	}
	// Loss and halving rates must be populated and plausible.
	for i, f := range res.Flows {
		if f.SegmentsSent == 0 || f.SegmentsDelivered == 0 {
			t.Fatalf("flow %d: no traffic", i)
		}
		if f.Halvings == 0 {
			t.Fatalf("flow %d: no halvings despite drops", i)
		}
		if f.LossRate <= 0 || f.LossRate > 0.5 {
			t.Fatalf("flow %d: loss rate %v", i, f.LossRate)
		}
		if f.HalvingRate <= 0 || f.HalvingRate > f.LossRate*10 {
			t.Fatalf("flow %d: halving rate %v vs loss %v", i, f.HalvingRate, f.LossRate)
		}
		if f.MeanRTT < DefaultRTT {
			t.Fatalf("flow %d: mean RTT %v below base", i, f.MeanRTT)
		}
	}
}

// TestRunDeterminism requires bit-identical same-seed runs and
// seed-sensitive results for every registered CCA, not just the paper's
// measured three — the RNG split discipline must hold everywhere.
func TestRunDeterminism(t *testing.T) {
	for _, name := range cca.Names() {
		name := name
		t.Run(name, func(t *testing.T) {
			t.Parallel()
			s := tinySetting()
			s.Duration = 10 * sim.Second
			cfg := s.Build(UniformFlows(4, name, DefaultRTT), 42)
			a, err := Run(cfg)
			if err != nil {
				t.Fatal(err)
			}
			b, err := Run(cfg)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(a.Flows, b.Flows) || a.Events != b.Events {
				t.Fatal("same-seed runs differ")
			}
			cfg2 := cfg
			cfg2.Seed = 43
			c, err := Run(cfg2)
			if err != nil {
				t.Fatal(err)
			}
			if reflect.DeepEqual(a.Flows, c.Flows) {
				t.Fatal("different seeds produced identical flow results")
			}
		})
	}
}

// TestRunDeterminismUnperturbedByAudit pins the auditor's observer
// property: a strict-audited run must produce bit-identical results and
// event counts to an unaudited run of the same seed.
func TestRunDeterminismUnperturbedByAudit(t *testing.T) {
	s := tinySetting()
	s.Duration = 10 * sim.Second
	cfg := s.Build(MixedFlows(4, "cubic", "bbr", DefaultRTT), 42)
	plain, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	cfg.Audit = "strict"
	audited, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(plain.Flows, audited.Flows) || plain.Events != audited.Events {
		t.Fatal("strict auditing perturbed the simulation")
	}
	if audited.AuditViolations != 0 {
		t.Fatalf("clean run reported %d violations", audited.AuditViolations)
	}
}

func TestRunConvergenceEarlyStop(t *testing.T) {
	s := tinySetting()
	cfg := s.Build(UniformFlows(4, "reno", DefaultRTT), 7)
	cfg.Duration = 5 * sim.Minute // far longer than needed
	cfg.Converge = 5 * sim.Second
	cfg.ConvergeTolerance = 0.05
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Converged {
		t.Fatal("steady workload never converged")
	}
	if res.Window >= 5*sim.Minute {
		t.Fatalf("window = %v; early stop did not shorten the run", res.Window)
	}
}

// TestRunManyOrderAndParallel: runs on concurrent goroutines — the way
// reproduce's -parallel runs them — return the same results as the same
// configs run one after another (each run is single-threaded and
// deterministic).
func TestRunManyOrderAndParallel(t *testing.T) {
	s := tinySetting()
	s.Duration = 8 * sim.Second
	s.Warmup = 3 * sim.Second
	cfgs := []RunConfig{
		s.Build(UniformFlows(2, "reno", DefaultRTT), 1),
		s.Build(UniformFlows(4, "reno", DefaultRTT), 2),
		s.Build(UniformFlows(6, "reno", DefaultRTT), 3),
	}
	res := make([]RunResult, len(cfgs))
	errs := make([]error, len(cfgs))
	var wg sync.WaitGroup
	for i, cfg := range cfgs {
		wg.Add(1)
		go func() {
			defer wg.Done()
			res[i], errs[i] = RunCtx(context.Background(), cfg)
		}()
	}
	wg.Wait()
	if err := errors.Join(errs...); err != nil {
		t.Fatal(err)
	}
	for i, want := range []int{2, 4, 6} {
		if len(res[i].Flows) != want {
			t.Fatalf("result %d has %d flows, want %d", i, len(res[i].Flows), want)
		}
	}
	for i, cfg := range cfgs {
		serial, err := RunCtx(context.Background(), cfg)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(res[i].Flows, serial.Flows) {
			t.Fatalf("parallel result %d differs from serial", i)
		}
	}
}

func TestFlowBuilders(t *testing.T) {
	u := UniformFlows(3, "bbr", DefaultRTT)
	if len(u) != 3 || u[2].CCA != "bbr" {
		t.Fatalf("UniformFlows = %v", u)
	}
	m := MixedFlows(5, "cubic", "reno", DefaultRTT)
	cubic := 0
	for _, f := range m {
		if f.CCA == "cubic" {
			cubic++
		}
	}
	if cubic != 3 {
		t.Fatalf("MixedFlows cubic count = %d, want 3", cubic)
	}
	o := OneVersusFlows(10, "bbr", "reno", DefaultRTT)
	if o[0].CCA != "bbr" || len(o) != 10 || o[9].CCA != "reno" {
		t.Fatalf("OneVersusFlows = %v", o)
	}
}

func TestShareByCCA(t *testing.T) {
	r := RunResult{Flows: []FlowResult{
		{Spec: FlowSpec{CCA: "cubic"}, Goodput: 75},
		{Spec: FlowSpec{CCA: "reno"}, Goodput: 25},
	}}
	share := r.ShareByCCA()
	if share["cubic"] != 0.75 || share["reno"] != 0.25 {
		t.Fatalf("share = %v", share)
	}
}

func TestSettingPresets(t *testing.T) {
	e := EdgeScale()
	if e.Rate != 100*units.MbitPerSec || e.Buffer != 3*units.MB {
		t.Fatalf("EdgeScale = %+v", e)
	}
	c := CoreScale()
	if c.Rate != 10*units.GbitPerSec || c.Buffer != 375*units.MB {
		t.Fatalf("CoreScale = %+v", c)
	}
	if c.FlowCounts[2] != 5000 {
		t.Fatalf("CoreScale counts = %v", c.FlowCounts)
	}
	s := CoreScaleScaled(10)
	if s.Rate != units.GbitPerSec {
		t.Fatalf("scaled rate = %v", s.Rate)
	}
	if got := s.FlowCounts[0]; got != 100 {
		t.Fatalf("scaled counts = %v", s.FlowCounts)
	}
	// Per-flow bandwidth preserved: rate/flows identical to full scale.
	full := float64(c.Rate) / float64(c.FlowCounts[0])
	scaled := float64(s.Rate) / float64(s.FlowCounts[0])
	if full != scaled {
		t.Fatalf("per-flow bandwidth changed: %v vs %v", full, scaled)
	}
	// Buffer stays ≈1.5 BDP(200ms).
	wantBuf := units.BDP(s.Rate, 200*sim.Millisecond) * 3 / 2
	if s.Buffer != wantBuf {
		t.Fatalf("scaled buffer = %v, want %v", s.Buffer, wantBuf)
	}
}
