package core

import (
	"context"
	"errors"
	"reflect"
	"strings"
	"sync"
	"testing"
	"time"

	"ccatscale/internal/sim"
	"ccatscale/internal/telemetry"
	"ccatscale/internal/units"
)

// countingCollector tallies events by kind, safely across parallel runs.
type countingCollector struct {
	mu     sync.Mutex
	counts map[telemetry.Kind]int
	events []telemetry.Event
}

func newCountingCollector() *countingCollector {
	return &countingCollector{counts: map[telemetry.Kind]int{}}
}

func (c *countingCollector) Emit(ev telemetry.Event) {
	c.mu.Lock()
	c.counts[ev.Kind]++
	c.events = append(c.events, ev)
	c.mu.Unlock()
}

func telemetryTestConfig(coll telemetry.Collector) RunConfig {
	return RunConfig{
		Rate:      50 * units.MbitPerSec,
		Buffer:    units.BDP(50*units.MbitPerSec, 40*sim.Millisecond),
		Flows:     UniformFlows(4, "reno", 20*sim.Millisecond),
		Warmup:    2 * sim.Second,
		Duration:  8 * sim.Second,
		Stagger:   sim.Second,
		Seed:      7,
		Collector: coll,
	}
}

// TestTelemetryDoesNotPerturbRun is the package-level statement of the
// observability-never-perturbs guarantee: the full RunResult must be
// identical with and without a live collector. cmd/fprint re-verifies
// this across CCAs and impairments at the CLI level.
func TestTelemetryDoesNotPerturbRun(t *testing.T) {
	plain, err := Run(telemetryTestConfig(nil))
	if err != nil {
		t.Fatal(err)
	}
	observed, err := Run(telemetryTestConfig(newCountingCollector()))
	if err != nil {
		t.Fatal(err)
	}
	// The echoed config carries the collector itself and usage carries
	// wall-clock time; neither is simulation outcome.
	plain.Config.Collector, observed.Config.Collector = nil, nil
	plain.Usage.Wall, observed.Usage.Wall = 0, 0
	if !reflect.DeepEqual(plain, observed) {
		t.Fatalf("attaching a collector changed the result:\nplain:    %+v\nobserved: %+v", plain, observed)
	}
}

func TestTelemetryEventAccounting(t *testing.T) {
	coll := newCountingCollector()
	res, err := Run(telemetryTestConfig(coll))
	if err != nil {
		t.Fatal(err)
	}
	n := len(res.Flows)
	if got := coll.counts[telemetry.KindRunStart]; got != 1 {
		t.Errorf("run-start events = %d, want 1", got)
	}
	if got := coll.counts[telemetry.KindRunEnd]; got != 1 {
		t.Errorf("run-end events = %d, want 1", got)
	}
	if got := coll.counts[telemetry.KindFlowStart]; got != n {
		t.Errorf("flow-start events = %d, want %d", got, n)
	}
	if got := coll.counts[telemetry.KindFlowEnd]; got != n {
		t.Errorf("flow-end events = %d, want %d", got, n)
	}
	// Flow stats count episodes inside the measurement window; telemetry
	// sees the whole run including warmup, so it can only report more.
	var episodes int
	for _, f := range res.Flows {
		episodes += int(f.FastRecoveries + f.RTOs)
	}
	if got := coll.counts[telemetry.KindLoss]; got < episodes {
		t.Errorf("loss events = %d, want at least window FastRecoveries+RTOs = %d", got, episodes)
	}
	if episodes == 0 {
		t.Error("test regime produced no loss episodes; accounting not exercised")
	}
	if fr := coll.counts[telemetry.KindRecoveryExit]; fr == 0 {
		t.Error("no recovery-exit events emitted")
	}
	// Sampling shares the interrupt hook, which must have fired over an
	// 8-virtual-second run.
	if got := coll.counts[telemetry.KindEngineSample]; got == 0 {
		t.Error("no engine samples emitted")
	}
	if got := coll.counts[telemetry.KindQueueWatermark]; got == 0 {
		t.Error("no queue watermark emitted despite a lossy run")
	}
}

func TestTelemetryBBRStateTransitions(t *testing.T) {
	cfg := telemetryTestConfig(nil)
	cfg.Flows = UniformFlows(2, "bbr", 20*sim.Millisecond)
	coll := newCountingCollector()
	cfg.Collector = coll
	if _, err := Run(cfg); err != nil {
		t.Fatal(err)
	}
	if got := coll.counts[telemetry.KindCCAState]; got == 0 {
		t.Fatal("BBR run emitted no state transitions")
	}
	for _, ev := range coll.events {
		if ev.Kind != telemetry.KindCCAState {
			continue
		}
		if ev.Prev == "" || ev.Label == "" || ev.Prev == ev.Label {
			t.Fatalf("malformed transition event: %+v", ev)
		}
		if ev.CCA != "bbr" {
			t.Fatalf("transition from unexpected CCA: %+v", ev)
		}
	}
}

func TestRunCtxCancellation(t *testing.T) {
	ctx, cancel := context.WithCancelCause(context.Background())
	cancel(errors.New("test deadline"))
	cfg := telemetryTestConfig(nil)
	cfg.Duration = 2 * sim.Minute
	_, err := RunCtx(ctx, cfg)
	if err == nil {
		t.Fatal("expected a cancellation error")
	}
	var re *RunError
	if !errors.As(err, &re) {
		t.Fatalf("cancellation should surface as *RunError, got %T: %v", err, err)
	}
	if !strings.Contains(err.Error(), "run canceled") || !strings.Contains(err.Error(), "test deadline") {
		t.Fatalf("error should name the cancellation cause: %v", err)
	}
}

// TestRunCtxDeadlineBecomesWallLimit: a context deadline clamps the
// wall-clock watchdog under it, so the stop surfaces as the replayable
// "wall-clock" RunError rather than an opaque cancellation, and the run
// returns with margin
// left before the deadline for the caller to commit the outcome.
func TestRunCtxDeadlineBecomesWallLimit(t *testing.T) {
	cfg := telemetryTestConfig(nil)
	cfg.Duration = 10 * sim.Minute // far more virtual work than 300ms of wall
	deadline := 300 * time.Millisecond
	ctx, cancel := context.WithTimeout(context.Background(), deadline)
	defer cancel()
	start := time.Now()
	_, err := RunCtx(ctx, cfg)
	elapsed := time.Since(start)
	var re *RunError
	if !errors.As(err, &re) {
		t.Fatalf("deadline stop should surface as *RunError, got %T: %v", err, err)
	}
	if !strings.HasPrefix(re.Reason, "wall-clock") {
		t.Fatalf("reason = %q, want wall-clock watchdog (not ctx cancellation)", re.Reason)
	}
	if elapsed >= deadline+200*time.Millisecond {
		t.Fatalf("run returned %v after a %v deadline", elapsed, deadline)
	}
	// An explicit tighter WallLimit still wins over a looser deadline.
	cfg2 := telemetryTestConfig(nil)
	cfg2.Duration = 10 * sim.Minute
	cfg2.WallLimit = 50 * time.Millisecond
	ctx2, cancel2 := context.WithTimeout(context.Background(), time.Hour)
	defer cancel2()
	_, err = RunCtx(ctx2, cfg2)
	if !errors.As(err, &re) || !strings.Contains(re.Reason, "50ms") {
		t.Fatalf("tighter WallLimit should fire unchanged, got %v", err)
	}
	// A context cancelled before its deadline is still a cancellation:
	// the clamped limit is unspent when the watchdog looks.
	ctx3, cancel3 := context.WithTimeout(context.Background(), time.Hour)
	time.AfterFunc(20*time.Millisecond, cancel3)
	_, err = RunCtx(ctx3, cfg)
	if !errors.As(err, &re) || !re.Canceled() {
		t.Fatalf("early cancel under a deadline should read canceled, got %v", err)
	}
}
