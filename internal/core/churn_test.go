package core

import (
	"strings"
	"testing"

	"ccatscale/internal/sim"
	"ccatscale/internal/units"
)

func churnBase() ChurnConfig {
	return ChurnConfig{
		Rate:          50 * units.MbitPerSec,
		Buffer:        units.BDP(50*units.MbitPerSec, 200*sim.Millisecond),
		CCA:           "reno",
		RTT:           20 * sim.Millisecond,
		TransferBytes: 500 * units.KB,
		Duration:      30 * sim.Second,
		Seed:          3,
	}
}

func TestChurnValidation(t *testing.T) {
	cases := []struct {
		name string
		mut  func(*ChurnConfig)
		want string
	}{
		{"zero arrival rate", func(c *ChurnConfig) { c.ArrivalRate = 0 }, "positive arrival rate"},
		{"unknown CCA", func(c *ChurnConfig) { c.CCA = "quic" }, "unknown CCA"},
		{"zero size", func(c *ChurnConfig) { c.TransferBytes = 0 }, "positive transfer size"},
		{"sub-frame buffer", func(c *ChurnConfig) { c.Buffer = 1000 }, "cannot hold one full-size frame"},
		{"unknown AQM", func(c *ChurnConfig) { c.AQM = "red" }, "unknown AQM"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			bad := churnBase()
			bad.ArrivalRate = 1
			tc.mut(&bad)
			_, err := RunChurn(bad)
			if err == nil {
				t.Fatal("invalid config accepted")
			}
			if !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("error %q does not mention %q", err, tc.want)
			}
		})
	}
}

func TestChurnOfferedLoad(t *testing.T) {
	cfg := churnBase()
	cfg.ArrivalRate = 6.25 // 6.25 × 500 KB × 8 = 25 Mbps on a 50 Mbps link
	if got := cfg.OfferedLoad(); got != 0.5 {
		t.Fatalf("OfferedLoad = %v, want 0.5", got)
	}
}

func TestChurnModerateLoadCompletesEverything(t *testing.T) {
	cfg := churnBase()
	cfg.ArrivalRate = 6.25 // 50 % load
	res, err := RunChurn(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.Arrivals < 100 {
		t.Fatalf("arrivals = %d; Poisson process not running", res.Arrivals)
	}
	if res.Rejected != 0 {
		t.Fatalf("rejected = %d at moderate load", res.Rejected)
	}
	if res.Completed != res.Arrivals {
		t.Fatalf("completed %d of %d at 50%% load", res.Completed, res.Arrivals)
	}
	// The floor on FCT: size/rate + ~2 RTT handshake-less ramp. 500 KB
	// needs several slow-start rounds at 20 ms: ≥ 0.1 s realistically.
	if res.P50FCT < 0.08 || res.P50FCT > 5 {
		t.Fatalf("P50 FCT = %v s", res.P50FCT)
	}
	if res.P99FCT < res.P50FCT {
		t.Fatalf("P99 %v < P50 %v", res.P99FCT, res.P50FCT)
	}
}

func TestChurnOverloadDegrades(t *testing.T) {
	light := churnBase()
	light.ArrivalRate = 5 // 40 %
	heavy := churnBase()
	heavy.ArrivalRate = 15 // 120 %
	lr, err := RunChurn(light)
	if err != nil {
		t.Fatal(err)
	}
	hr, err := RunChurn(heavy)
	if err != nil {
		t.Fatal(err)
	}
	if hr.P95FCT <= lr.P95FCT {
		t.Fatalf("overload P95 FCT %v not above light-load %v", hr.P95FCT, lr.P95FCT)
	}
	if hr.Drops == 0 {
		t.Fatal("no drops at 120% offered load")
	}
	// Utilization (averaged over arrivals + mostly idle drain) must
	// clearly exceed the light-load case.
	if hr.Utilization <= lr.Utilization {
		t.Fatalf("overload utilization %v not above light-load %v", hr.Utilization, lr.Utilization)
	}
}

func TestChurnSlotReuse(t *testing.T) {
	cfg := churnBase()
	cfg.ArrivalRate = 6.25
	cfg.MaxFlows = 32 // small pool forces reuse
	res, err := RunChurn(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.Arrivals <= cfg.MaxFlows {
		t.Fatalf("arrivals = %d; test needs more than MaxFlows", res.Arrivals)
	}
	if res.Completed < res.Arrivals-res.Rejected {
		t.Fatalf("completed %d < admitted %d", res.Completed, res.Arrivals-res.Rejected)
	}
}

func TestChurnDeterminism(t *testing.T) {
	cfg := churnBase()
	cfg.ArrivalRate = 6.25
	cfg.Duration = 10 * sim.Second
	a, err := RunChurn(cfg)
	if err != nil {
		t.Fatal(err)
	}
	b, err := RunChurn(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if a.Arrivals != b.Arrivals || a.Completed != b.Completed || a.MeanFCT != b.MeanFCT {
		t.Fatal("same-seed churn runs differ")
	}
}

func TestChurnBackgroundElephantsInflateFCT(t *testing.T) {
	base := churnBase()
	base.ArrivalRate = 2
	base.Duration = 20 * sim.Second
	clean, err := RunChurn(base)
	if err != nil {
		t.Fatal(err)
	}
	bloated := base
	bloated.Background = UniformFlows(4, "cubic", 20*sim.Millisecond)
	br, err := RunChurn(bloated)
	if err != nil {
		t.Fatal(err)
	}
	// Elephants pin the drop-tail buffer: mice FCT must rise sharply.
	if br.P50FCT < 2*clean.P50FCT {
		t.Fatalf("elephants did not inflate FCT: %v vs clean %v", br.P50FCT, clean.P50FCT)
	}
	// CoDel removes the standing queue and most of the penalty.
	codel := bloated
	codel.AQM = "codel"
	cr, err := RunChurn(codel)
	if err != nil {
		t.Fatal(err)
	}
	if cr.P50FCT > br.P50FCT/2 {
		t.Fatalf("CoDel FCT %v not well below drop-tail %v", cr.P50FCT, br.P50FCT)
	}
	// Background slots must not corrupt validation.
	bad := bloated
	bad.Background = []FlowSpec{{CCA: "cubic", RTT: 0}}
	if _, err := RunChurn(bad); err == nil {
		t.Fatal("zero-RTT background flow accepted")
	}
}
