package core

import (
	"bytes"
	"context"
	"errors"
	"strings"
	"testing"
	"time"

	"ccatscale/internal/sim"
	"ccatscale/internal/units"
)

// smallConfig is a seconds-long two-flow run for supervisor tests.
func smallConfig(seed uint64) RunConfig {
	return RunConfig{
		Rate:     20 * units.MbitPerSec,
		Buffer:   256 * units.KB,
		Flows:    UniformFlows(2, "reno", 20*sim.Millisecond),
		Warmup:   sim.Second,
		Duration: 3 * sim.Second,
		Stagger:  100 * sim.Millisecond,
		Seed:     seed,
	}
}

func TestInjectedPanicBecomesRunError(t *testing.T) {
	cfg := smallConfig(7)
	cfg.FaultPanicAt = 500 * sim.Millisecond
	_, err := Run(cfg)
	if err == nil {
		t.Fatal("injected panic produced no error")
	}
	var re *RunError
	if !errors.As(err, &re) {
		t.Fatalf("error type %T, want *RunError", err)
	}
	if re.Reason != "panic" {
		t.Fatalf("reason = %q, want panic", re.Reason)
	}
	if re.Seed != 7 {
		t.Fatalf("seed = %d, want 7", re.Seed)
	}
	if re.VirtualTime != 500*sim.Millisecond {
		t.Fatalf("virtual time = %v, want 500ms", re.VirtualTime)
	}
	if re.Events == 0 {
		t.Fatal("event count not captured")
	}
	if !strings.Contains(re.PanicMsg, "injected fault") {
		t.Fatalf("panic message %q lacks the injected marker", re.PanicMsg)
	}
	if re.Stack == "" {
		t.Fatal("stack not captured")
	}
	if len(re.Config.Flows) != 2 {
		t.Fatalf("config snapshot has %d flows, want 2", len(re.Config.Flows))
	}
	msg := re.Error()
	for _, want := range []string{"seed=7", "vt=500ms", "replay:", "2 reno"} {
		if !strings.Contains(msg, want) {
			t.Fatalf("Error() = %q lacks %q", msg, want)
		}
	}
}

func TestRunErrorJSONRoundTrip(t *testing.T) {
	cfg := smallConfig(9)
	cfg.BurstLoss = &BurstLossSpec{MeanLoss: 0.01, MeanBurstLen: 4}
	cfg.Outage = &OutageSpec{Start: sim.Second, Down: 100 * sim.Millisecond, Period: sim.Second, Count: 2}
	cfg.FaultPanicAt = 200 * sim.Millisecond
	_, err := Run(cfg)
	var re *RunError
	if !errors.As(err, &re) {
		t.Fatalf("error type %T, want *RunError", err)
	}
	var buf bytes.Buffer
	if err := re.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	got, err := ReadRunError(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if got.Seed != re.Seed || got.VirtualTime != re.VirtualTime || got.Reason != re.Reason {
		t.Fatalf("round trip mutated header: %+v vs %+v", got, re)
	}
	if got.Config.BurstLoss == nil || *got.Config.BurstLoss != *re.Config.BurstLoss {
		t.Fatal("round trip lost the burst-loss spec")
	}
	if got.Config.Outage == nil || *got.Config.Outage != *re.Config.Outage {
		t.Fatal("round trip lost the outage spec")
	}
	// The round-tripped config must reproduce the failure exactly.
	_, err = Run(got.Config)
	var re2 *RunError
	if !errors.As(err, &re2) {
		t.Fatalf("replayed config error type %T, want *RunError", err)
	}
	if re2.VirtualTime != re.VirtualTime || re2.Events != re.Events {
		t.Fatalf("replay diverged: vt %v/%v events %d/%d",
			re2.VirtualTime, re.VirtualTime, re2.Events, re.Events)
	}
}

func TestWallClockWatchdog(t *testing.T) {
	cfg := smallConfig(3)
	cfg.WallLimit = time.Nanosecond // exceeded at the first check
	cfg.StallEvents = 1 << 20       // irrelevant; high threshold
	_, err := Run(cfg)
	var re *RunError
	if !errors.As(err, &re) {
		t.Fatalf("error = %v (%T), want *RunError", err, err)
	}
	if !strings.Contains(re.Reason, "wall-clock limit") {
		t.Fatalf("reason = %q, want wall-clock limit", re.Reason)
	}
	if re.Seed != 3 || re.Events == 0 {
		t.Fatalf("context not captured: seed=%d events=%d", re.Seed, re.Events)
	}
}

// TestRunErrorCanceled: only a run its context stopped is Canceled; a
// blown wall limit or a panic is the run's own failure.
func TestRunErrorCanceled(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	wall, panicked := smallConfig(3), smallConfig(3)
	wall.WallLimit = time.Nanosecond
	panicked.FaultPanicAt = 500 * sim.Millisecond
	for _, tc := range []struct {
		name string
		ctx  context.Context
		cfg  RunConfig
		want bool
	}{
		{"canceled context", ctx, smallConfig(3), true},
		{"wall-clock limit", context.Background(), wall, false},
		{"panic", context.Background(), panicked, false},
	} {
		_, err := RunCtx(tc.ctx, tc.cfg)
		var re *RunError
		if !errors.As(err, &re) {
			t.Fatalf("%s: error = %v (%T), want *RunError", tc.name, err, err)
		}
		if re.Canceled() != tc.want {
			t.Errorf("%s: Canceled() = %v for reason %q, want %v", tc.name, re.Canceled(), re.Reason, tc.want)
		}
	}
}

func TestWatchdogOffByDefault(t *testing.T) {
	res, err := Run(smallConfig(5))
	if err != nil {
		t.Fatal(err)
	}
	if res.AggregateGoodput <= 0 {
		t.Fatal("run produced no goodput")
	}
}

func TestBurstLossRunDeterministicAndCounted(t *testing.T) {
	run := func() RunResult {
		cfg := smallConfig(11)
		cfg.BurstLoss = &BurstLossSpec{MeanLoss: 0.01, MeanBurstLen: 5}
		res, err := Run(cfg)
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	a, b := run(), run()
	if a.BurstDrops == 0 {
		t.Fatal("burst loss configured but no burst drops counted")
	}
	if a.BurstDrops != b.BurstDrops || a.AggregateGoodput != b.AggregateGoodput || a.Events != b.Events {
		t.Fatalf("same seed diverged: drops %d/%d goodput %v/%v events %d/%d",
			a.BurstDrops, b.BurstDrops, a.AggregateGoodput, b.AggregateGoodput, a.Events, b.Events)
	}
}

func TestOutageRunDeterministicAndCounted(t *testing.T) {
	run := func() RunResult {
		cfg := smallConfig(13)
		cfg.Outage = &OutageSpec{Start: 1500 * sim.Millisecond, Down: 200 * sim.Millisecond, Period: sim.Second, Count: 2}
		res, err := Run(cfg)
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	a, b := run(), run()
	if a.OutageDrops == 0 {
		t.Fatal("outages configured but no outage drops counted")
	}
	if a.OutageDrops != b.OutageDrops || a.AggregateGoodput != b.AggregateGoodput {
		t.Fatalf("same seed diverged: drops %d/%d goodput %v/%v",
			a.OutageDrops, b.OutageDrops, a.AggregateGoodput, b.AggregateGoodput)
	}
	// The dark windows must cost throughput relative to a clean run.
	clean, err := Run(smallConfig(13))
	if err != nil {
		t.Fatal(err)
	}
	if a.AggregateGoodput >= clean.AggregateGoodput {
		t.Fatalf("outage run goodput %v not below clean run %v", a.AggregateGoodput, clean.AggregateGoodput)
	}
}

func TestFlowsSpecGrouping(t *testing.T) {
	flows := append(UniformFlows(3, "reno", 20*sim.Millisecond),
		UniformFlows(2, "bbr", 100*sim.Millisecond)...)
	if got, want := FlowsSpec(flows), "3xreno@20ms,2xbbr@100ms"; got != want {
		t.Fatalf("FlowsSpec = %q, want %q", got, want)
	}
	if got := FlowsSpec(nil); got != "" {
		t.Fatalf("FlowsSpec(nil) = %q, want empty", got)
	}
}

func TestReplayCommandCompactAndFallback(t *testing.T) {
	re := &RunError{Seed: 7, Config: smallConfig(7)}
	cmd := re.ReplayCommand()
	for _, want := range []string{"ccatscale run", "-flows 2xreno@20ms", "-seed 7", "-rate-bps 20000000", "-warmup 1s"} {
		if !strings.Contains(cmd, want) {
			t.Fatalf("replay command %q lacks %q", cmd, want)
		}
	}
	// An interleaved mix at scale cannot ride a flag; the command points
	// at the serialized failure record instead.
	big := smallConfig(7)
	big.Flows = MixedFlows(40, "bbr", "reno", 20*sim.Millisecond)
	reBig := &RunError{Seed: 7, Config: big}
	if !strings.Contains(reBig.ReplayCommand(), "replay -in") {
		t.Fatalf("large-config replay command %q should use the failure record", reBig.ReplayCommand())
	}
}

// TestReplayCommandFallsBackForUnflaggableConfigs: `ccatscale run` has no
// flag for a declared topology, ECN, iid loss, jitter or an arrival
// process, so a compact command would replay a different run (or, for a
// topology, one validation rejects: "-rate-bps 0 -buffer-bytes 0"). Those
// configs replay from the failure record; the fault flags the CLI does
// have stay in the compact form.
func TestReplayCommandFallsBackForUnflaggableConfigs(t *testing.T) {
	cases := []struct {
		name string
		mut  func(*RunConfig)
	}{
		{"topology", func(c *RunConfig) {
			spec, _ := c.fabricSpec(c.rtts())
			c.Topology, c.Rate, c.Buffer = &spec, 0, 0
		}},
		{"ecn", func(c *RunConfig) { c.ECN = true }},
		{"ecn mark threshold", func(c *RunConfig) { c.ECN, c.ECNMarkBytes = true, 30000 }},
		{"random loss", func(c *RunConfig) { c.RandomLoss = 0.01 }},
		{"ecn + random loss", func(c *RunConfig) { c.ECN, c.RandomLoss = true, 0.01 }},
		{"jitter", func(c *RunConfig) { c.Jitter = sim.Millisecond }},
		{"arrivals", func(c *RunConfig) { c.Arrivals = churnBase(5).Arrivals }},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			cfg := smallConfig(7)
			cfg.FaultPanicAt = sim.Second
			tc.mut(&cfg)
			_, err := Run(cfg)
			var re *RunError
			if !errors.As(err, &re) {
				t.Fatalf("error is %T (%v), want *RunError", err, err)
			}
			if got := re.ReplayCommand(); got != "ccatscale replay -in <key>.failed.json" {
				t.Fatalf("replay command %q cannot reproduce this config", got)
			}
		})
	}
	cfg := smallConfig(7)
	cfg.BurstLoss = &BurstLossSpec{MeanLoss: 0.005, MeanBurstLen: 8}
	cfg.Outage = &OutageSpec{Start: 2 * sim.Second, Down: sim.Second, Period: 10 * sim.Second, Count: 1}
	cmd := (&RunError{Seed: 7, Config: cfg}).ReplayCommand()
	for _, want := range []string{"ccatscale run", "-burst 0.005,8", "-outage 2s,1s,10s,1"} {
		if !strings.Contains(cmd, want) {
			t.Fatalf("replay command %q lacks %q", cmd, want)
		}
	}
}

func TestParseBurstLossAndOutageRoundTrip(t *testing.T) {
	b, err := ParseBurstLoss("0.005,8")
	if err != nil {
		t.Fatal(err)
	}
	if b.MeanLoss != 0.005 || b.MeanBurstLen != 8 {
		t.Fatalf("parsed %+v", b)
	}
	if b2, err := ParseBurstLoss(b.String()); err != nil || *b2 != *b {
		t.Fatalf("burst round trip: %+v, %v", b2, err)
	}
	o, err := ParseOutage("2s,500ms,10s,3,hold")
	if err != nil {
		t.Fatal(err)
	}
	want := OutageSpec{Start: 2 * sim.Second, Down: 500 * sim.Millisecond, Period: 10 * sim.Second, Count: 3, Hold: true}
	if *o != want {
		t.Fatalf("parsed %+v, want %+v", o, want)
	}
	if o2, err := ParseOutage(o.String()); err != nil || *o2 != *o {
		t.Fatalf("outage round trip: %+v, %v", o2, err)
	}
	for _, bad := range []string{"", "0.5", "1,4", "0.1,0", "x,y"} {
		if _, err := ParseBurstLoss(bad); err == nil {
			t.Errorf("ParseBurstLoss(%q): no error", bad)
		}
	}
	for _, bad := range []string{"", "1s", "1s,0s,1s,2", "1s,2s,1s,2", "1s,1s,2s,0", "1s,1s,2s,2,maybe"} {
		if _, err := ParseOutage(bad); err == nil {
			t.Errorf("ParseOutage(%q): no error", bad)
		}
	}
}
