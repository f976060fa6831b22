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

// TestReplayCommandFallsBackForUnflaggableConfigs: a failure's replay
// line names its failure record for every config — a declared topology,
// ECN, iid loss, jitter or an arrival process, which no flag line could
// spell out, as much as a plain dumbbell — because the record holds the
// whole config.
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
		{"plain dumbbell", func(*RunConfig) {}},
		{"burst loss + outage", func(c *RunConfig) {
			c.BurstLoss = &BurstLossSpec{MeanLoss: 0.005, MeanBurstLen: 8}
			c.Outage = &OutageSpec{Start: 2 * sim.Second, Down: sim.Second, Period: 10 * sim.Second, Count: 1}
		}},
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
			if msg := re.Error(); !strings.HasSuffix(msg, "; replay: reproduce -replay <key>.failed.json") {
				t.Fatalf("Error() = %q does not end with the failure record's replay line", msg)
			}
		})
	}
}
