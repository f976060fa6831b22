package core

import (
	"context"
	"errors"
	"reflect"
	"strings"
	"testing"
	"time"

	"ccatscale/internal/budget"
	"ccatscale/internal/sim"
	"ccatscale/internal/units"
)

// churnBase is an empty 50 Mbps bottleneck with 500 KB reno transfers
// arriving at perSecond for 30 s. Each call returns its own ArrivalSpec,
// so callers may mutate it freely.
func churnBase(perSecond float64) RunConfig {
	return RunConfig{
		Rate:     50 * units.MbitPerSec,
		Buffer:   units.BDP(50*units.MbitPerSec, 200*sim.Millisecond),
		Duration: 30 * sim.Second,
		Seed:     3,
		Arrivals: &ArrivalSpec{
			CCA:           "reno",
			RTT:           20 * sim.Millisecond,
			PerSecond:     perSecond,
			TransferBytes: 500 * units.KB,
		},
	}
}

// elephants adds the two long-lived flows and the shallow 2 MB buffer of
// the pinned mice-vs-elephants configs.
func elephants(cfg RunConfig) RunConfig {
	cfg.Buffer = 2 * units.MB
	cfg.Flows = []FlowSpec{{CCA: "cubic", RTT: 20 * sim.Millisecond}, {CCA: "bbr", RTT: 40 * sim.Millisecond}}
	return cfg
}

// TestArrivalsPinned pins seven arrival-process runs to the numbers the
// deleted second harness (core.RunChurn, read at f36f413) produced for
// the same configurations, at full float precision: the three
// ext_churn_core rows at -scale 25 -seed 7, a 60 % load on churnBase,
// that load under two elephants with drop-tail and with CoDel, and a
// 3.6× overload squeezed through 16 slots with a 2 s drain. Moving churn
// into the one harness changed none of them.
func TestArrivalsPinned(t *testing.T) {
	type pin struct {
		arrived, rejected, completed int
		drops                        uint64
		util, mean, p50, p95, p99    float64
	}
	sweep := func(load float64) RunConfig {
		s := CoreScaleScaled(25)
		return RunConfig{
			Rate: s.Rate, Buffer: s.Buffer, Duration: s.Duration, Seed: 7,
			Arrivals: &ArrivalSpec{
				CCA: "reno", RTT: DefaultRTT, TransferBytes: ChurnTransferBytes,
				PerSecond: load * float64(s.Rate) / (float64(ChurnTransferBytes) * 8),
			},
		}
	}
	codel := elephants(churnBase(7.5))
	codel.AQM = "codel"
	overload := churnBase(45)
	overload.Arrivals.MaxFlows, overload.Arrivals.Drain = 16, 2*sim.Second
	cases := []struct {
		name string
		cfg  RunConfig
		want pin
	}{
		{"sweep 30%", sweep(0.3), pin{1715, 0, 1715, 0, 0.20017022666666667, 0.3139553884886284, 0.313875945, 0.3167074397, 0.31778226614000005}},
		{"sweep 60%", sweep(0.6), pin{3554, 0, 3554, 0, 0.41481340266666666, 0.316813428694992, 0.3165446145, 0.3208113064, 0.32580503217}},
		{"sweep 90%", sweep(0.9), pin{5375, 0, 5375, 0, 0.6273556666666666, 0.39378093194567343, 0.366873677, 0.5404804143, 0.5874647230200003}},
		{"base 60%", churnBase(7.5), pin{227, 0, 227, 0, 0.317942064, 0.23235680465198247, 0.20748528, 0.4069672837, 0.5011028349800001}},
		{"elephants", elephants(churnBase(7.5)), pin{227, 0, 227, 1977, 0.999597168, 1.7302304064229064, 1.481443661, 3.1587704947999997, 6.171168430140007}},
		{"elephants codel", codel, pin{227, 0, 227, 6892, 0.9929000475166667, 2.979978060731277, 2.991187286, 4.872447159099999, 5.312285102060001}},
		{"overload 16 slots", overload, pin{1337, 981, 356, 286, 0.93506523, 0.45736507101966284, 0.44364831849999997, 0.5666561744999999, 1.1132974727499985}},
	}
	for _, tc := range cases {
		tc := tc
		t.Run(tc.name, func(t *testing.T) {
			t.Parallel()
			res, err := Run(tc.cfg)
			if err != nil {
				t.Fatal(err)
			}
			a := res.Arrivals
			got := pin{a.Arrived, a.Rejected, a.Completed, a.Drops, res.Utilization,
				a.MeanFCT(), a.FCTQuantile(0.5), a.FCTQuantile(0.95), a.FCTQuantile(0.99)}
			if got != tc.want {
				t.Fatalf("arrival run moved:\n got %+v\nwant %+v", got, tc.want)
			}
			// Churn is audited for the first time: strict must pass and
			// must not perturb a single event.
			if testing.Short() {
				return // the audited re-run dominates under -race
			}
			tc.cfg.Audit = "strict"
			strict, err := Run(tc.cfg)
			if err != nil {
				t.Fatalf("strict-audited run failed: %v", err)
			}
			if strict.Events != res.Events || strict.AuditViolations != 0 || !reflect.DeepEqual(strict.Arrivals, a) {
				t.Fatalf("strict auditing perturbed the run: events %d vs %d, %d violations",
					strict.Events, res.Events, strict.AuditViolations)
			}
		})
	}
}

func TestChurnValidation(t *testing.T) {
	cases := []struct {
		name string
		mut  func(*RunConfig)
		want string
	}{
		{"zero arrival rate", func(c *RunConfig) { c.Arrivals.PerSecond = 0 }, "positive arrival rate"},
		{"unknown CCA", func(c *RunConfig) { c.Arrivals.CCA = "quic" }, "unknown CCA"},
		{"zero size", func(c *RunConfig) { c.Arrivals.TransferBytes = 0 }, "positive transfer size"},
		{"sub-frame buffer", func(c *RunConfig) { c.Buffer = 1000 }, "cannot hold one full-size frame"},
		{"unknown AQM", func(c *RunConfig) { c.AQM = "red" }, "unknown AQM"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			bad := churnBase(1)
			tc.mut(&bad)
			_, err := Run(bad)
			if err == nil {
				t.Fatal("invalid config accepted")
			}
			if !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("error %q does not mention %q", err, tc.want)
			}
		})
	}
}

func TestChurnModerateLoadCompletesEverything(t *testing.T) {
	res, err := Run(churnBase(6.25)) // 50 % load
	if err != nil {
		t.Fatal(err)
	}
	a := res.Arrivals
	if a.Arrived < 100 {
		t.Fatalf("arrivals = %d; Poisson process not running", a.Arrived)
	}
	if a.Rejected != 0 {
		t.Fatalf("rejected = %d at moderate load", a.Rejected)
	}
	if a.Completed != a.Arrived {
		t.Fatalf("completed %d of %d at 50%% load", a.Completed, a.Arrived)
	}
	// The floor on FCT: size/rate + ~2 RTT handshake-less ramp. 500 KB
	// needs several slow-start rounds at 20 ms: ≥ 0.1 s realistically.
	if p50 := a.FCTQuantile(0.5); p50 < 0.08 || p50 > 5 {
		t.Fatalf("P50 FCT = %v s", p50)
	}
	if a.FCTQuantile(0.99) < a.FCTQuantile(0.5) {
		t.Fatalf("P99 %v < P50 %v", a.FCTQuantile(0.99), a.FCTQuantile(0.5))
	}
	// The run's horizon is the arrival window plus the default drain.
	if res.Window != 60*sim.Second {
		t.Fatalf("window = %v, want the 30 s arrival window + 30 s drain", res.Window)
	}
}

func TestChurnOverloadDegrades(t *testing.T) {
	lr, err := Run(churnBase(5)) // 40 %
	if err != nil {
		t.Fatal(err)
	}
	hr, err := Run(churnBase(15)) // 120 %
	if err != nil {
		t.Fatal(err)
	}
	if hr.Arrivals.FCTQuantile(0.95) <= lr.Arrivals.FCTQuantile(0.95) {
		t.Fatalf("overload P95 FCT %v not above light-load %v",
			hr.Arrivals.FCTQuantile(0.95), lr.Arrivals.FCTQuantile(0.95))
	}
	if hr.Arrivals.Drops == 0 {
		t.Fatal("no drops at 120% offered load")
	}
	// Utilization (averaged over arrivals + mostly idle drain) must
	// clearly exceed the light-load case.
	if hr.Utilization <= lr.Utilization {
		t.Fatalf("overload utilization %v not above light-load %v", hr.Utilization, lr.Utilization)
	}
}

func TestChurnSlotReuse(t *testing.T) {
	cfg := churnBase(6.25)
	cfg.Arrivals.MaxFlows = 32 // small pool forces reuse
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	a := res.Arrivals
	if a.Arrived <= cfg.Arrivals.MaxFlows {
		t.Fatalf("arrivals = %d; test needs more than MaxFlows", a.Arrived)
	}
	if a.Completed < a.Arrived-a.Rejected {
		t.Fatalf("completed %d < admitted %d", a.Completed, a.Arrived-a.Rejected)
	}
}

func TestChurnDeterminism(t *testing.T) {
	cfg := churnBase(6.25)
	cfg.Duration = 10 * sim.Second
	a, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(a.Arrivals, b.Arrivals) || a.Events != b.Events {
		t.Fatal("same-seed churn runs differ")
	}
}

func TestChurnBackgroundElephantsInflateFCT(t *testing.T) {
	base := churnBase(2)
	base.Duration = 20 * sim.Second
	clean, err := Run(base)
	if err != nil {
		t.Fatal(err)
	}
	bloated := base
	bloated.Flows = UniformFlows(4, "cubic", 20*sim.Millisecond)
	br, err := Run(bloated)
	if err != nil {
		t.Fatal(err)
	}
	// Elephants pin the drop-tail buffer: mice FCT must rise sharply.
	if br.Arrivals.FCTQuantile(0.5) < 2*clean.Arrivals.FCTQuantile(0.5) {
		t.Fatalf("elephants did not inflate FCT: %v vs clean %v",
			br.Arrivals.FCTQuantile(0.5), clean.Arrivals.FCTQuantile(0.5))
	}
	// The elephants are ordinary persistent flows of the same run.
	if len(br.Flows) != 4 || br.Flows[0].Goodput <= 0 {
		t.Fatalf("elephants missing from the run's flow results: %+v", br.Flows)
	}
	// CoDel removes the standing queue and most of the penalty.
	codel := bloated
	codel.AQM = "codel"
	cr, err := Run(codel)
	if err != nil {
		t.Fatal(err)
	}
	if cr.Arrivals.FCTQuantile(0.5) > br.Arrivals.FCTQuantile(0.5)/2 {
		t.Fatalf("CoDel FCT %v not well below drop-tail %v",
			cr.Arrivals.FCTQuantile(0.5), br.Arrivals.FCTQuantile(0.5))
	}
	// Background slots must not corrupt validation.
	bad := bloated
	bad.Flows = []FlowSpec{{CCA: "cubic", RTT: 0}}
	if _, err := Run(bad); err == nil {
		t.Fatal("zero-RTT background flow accepted")
	}
}

// TestArrivalsAreGoverned is what the second harness could not do: an
// arrivals run stops on a cancelled context, a wall-clock limit and an
// in-flight events breach with a structured *RunError, like any other
// run.
func TestArrivalsAreGoverned(t *testing.T) {
	cancelled, cancel := context.WithCancel(context.Background())
	cancel()
	cases := []struct {
		name     string
		ctx      context.Context
		mut      func(*RunConfig)
		canceled bool
	}{
		{"cancelled context", cancelled, func(*RunConfig) {}, true},
		{"wall limit", context.Background(), func(c *RunConfig) { c.WallLimit = time.Nanosecond }, false},
		{"events budget", context.Background(), func(c *RunConfig) { *c = tightenOnStart(*c, budget.Budget{Events: 10}) }, false},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			cfg := churnBase(30)
			tc.mut(&cfg)
			_, err := RunCtx(tc.ctx, cfg)
			var re *RunError
			if !errors.As(err, &re) {
				t.Fatalf("error is %T (%v), want *RunError", err, err)
			}
			if re.Canceled() != tc.canceled {
				t.Fatalf("Canceled() = %v for %q", re.Canceled(), re.Reason)
			}
			if re.Config.Arrivals == nil {
				t.Fatal("failure record lost the arrival spec")
			}
		})
	}
}

// TestChurnSweepGoverned runs the churn plan under strict audit and
// with an injected panic: the first must report the table, the second a
// replayable *RunError — the drill that was a no-op while churn had its
// own harness.
func TestChurnSweepGoverned(t *testing.T) {
	s := faultSetting()
	s.Audit = "strict"
	rows := runPlan(t, ChurnConfigs(s, "reno", 7))
	if len(rows) != len(ChurnLoads) {
		t.Fatalf("%d rows, want %d", len(rows), len(ChurnLoads))
	}
	for i, res := range rows {
		a := res.Arrivals
		if a.Arrived == 0 || a.Completed != a.Arrived || a.FCTQuantile(0.5) <= 0 {
			t.Fatalf("load %v: %+v", ChurnLoads[i], a)
		}
	}
	s.FaultPanicAt = sim.Second
	_, err := RunCtx(context.Background(), ChurnConfigs(s, "reno", 7)[0])
	var re *RunError
	if !errors.As(err, &re) || re.Reason != "panic" {
		t.Fatalf("injected panic surfaced as %v", err)
	}
}
