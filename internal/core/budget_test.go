package core

import (
	"context"
	"errors"
	"reflect"
	"testing"
	"time"

	"ccatscale/internal/budget"
	"ccatscale/internal/sim"
	"ccatscale/internal/telemetry"
	"ccatscale/internal/units"
)

// budgetTestConfig is a small run that drops packets early (tiny
// buffer), so every budget knob has something to catch.
func budgetTestConfig() RunConfig {
	return RunConfig{
		Rate:     50 * units.MbitPerSec,
		Buffer:   20 * units.KB,
		Flows:    UniformFlows(4, "reno", 20*sim.Millisecond),
		Warmup:   sim.Second,
		Duration: 5 * sim.Second,
		Stagger:  100 * sim.Millisecond,
		Seed:     1,
	}
}

// tightenOnStart returns cfg under a budget admission lets through,
// tightened to tight when the run starts — after admission, before the
// first in-flight check. The run then meets the in-flight enforcement
// that an estimate which under-predicts its config would leave to it.
func tightenOnStart(cfg RunConfig, tight budget.Budget) RunConfig {
	b := &budget.Budget{Horizon: sim.Hour}
	cfg.Budget = b
	cfg.Collector = telemetry.CollectorFunc(func(ev telemetry.Event) {
		if ev.Kind == telemetry.KindRunStart {
			*b = tight
		}
	})
	return cfg
}

// TestBudgetBreachPerKind drives one run past each budget knob and
// asserts the structured failure. In flight (heap, events, wall): a
// *RunError wrapping a *budget.BudgetError with the right kind,
// limit < observed, and a checkpoint. Horizon has no in-flight check:
// it is decided at admission, as a plain *budget.BudgetError with no
// checkpoint and no RunError, because nothing ran.
func TestBudgetBreachPerKind(t *testing.T) {
	cases := []struct {
		name   string
		budget budget.Budget
		kind   budget.Kind
		stage  string
	}{
		{"heap", budget.Budget{HeapBytes: 1}, budget.KindHeapBytes, budget.StageInFlight},
		{"events", budget.Budget{Events: 1}, budget.KindEvents, budget.StageInFlight},
		{"wall", budget.Budget{Wall: time.Nanosecond}, budget.KindWallClock, budget.StageInFlight},
		{"horizon", budget.Budget{Horizon: sim.Second}, budget.KindHorizon, budget.StageAdmission},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			cfg := budgetTestConfig()
			if tc.stage == budget.StageInFlight {
				cfg = tightenOnStart(cfg, tc.budget)
			} else {
				cfg.Budget = &tc.budget
			}
			_, err := Run(cfg)
			if err == nil {
				t.Fatal("run under a tiny budget succeeded")
			}
			var be *budget.BudgetError
			if !errors.As(err, &be) {
				t.Fatalf("error does not unwrap to *budget.BudgetError: %v", err)
			}
			if be.Kind != tc.kind || be.Stage != tc.stage {
				t.Fatalf("breach = %s/%s, want %s/%s", be.Stage, be.Kind, tc.stage, tc.kind)
			}
			if be.Observed <= be.Limit {
				t.Fatalf("observed %d not above limit %d", be.Observed, be.Limit)
			}
			var re *RunError
			if tc.stage == budget.StageAdmission {
				if errors.As(err, &re) || be.Checkpoint != nil {
					t.Fatalf("admission rejection carries a run record: %v", err)
				}
				return
			}
			if !errors.As(err, &re) || re.Reason != "budget breach" {
				t.Fatalf("error is not a budget-breach *RunError: %v", err)
			}
			if be.Checkpoint == nil {
				t.Fatal("in-flight breach carries no checkpoint")
			}
			// The failure must be replayable: the config snapshot holds
			// the budget that caused it.
			if re.Config.Budget == nil {
				t.Fatal("RunError.Config lost the budget")
			}
		})
	}
}

// TestRunCtxAdmission: a config whose estimate exceeds any one limit of
// its budget is rejected before it is built — a plain admission-stage
// *budget.BudgetError, no RunError (there is nothing to replay), and
// not one event run or emitted.
func TestRunCtxAdmission(t *testing.T) {
	cfg := budgetTestConfig()
	est := EstimateConfig(cfg)
	horizon := cfg.Warmup + cfg.Duration
	for _, tc := range []struct {
		kind budget.Kind
		b    budget.Budget
	}{
		{budget.KindHeapBytes, budget.Budget{HeapBytes: est.HeapBytes - 1}},
		{budget.KindEvents, budget.Budget{Events: est.Events - 1}},
		{budget.KindWallClock, budget.Budget{Wall: est.Wall - 1}},
		{budget.KindHorizon, budget.Budget{Horizon: horizon - 1}},
	} {
		t.Run(string(tc.kind), func(t *testing.T) {
			cfg := cfg
			cfg.Budget = &tc.b
			emitted := 0
			cfg.Collector = telemetry.CollectorFunc(func(telemetry.Event) { emitted++ })
			res, err := RunCtx(context.Background(), cfg)
			be, ok := err.(*budget.BudgetError)
			if !ok {
				t.Fatalf("error is %T (%v), want a plain *budget.BudgetError", err, err)
			}
			if be.Kind != tc.kind || be.Stage != budget.StageAdmission || be.Checkpoint != nil {
				t.Fatalf("breach = %+v, want an admission-stage %s", be, tc.kind)
			}
			if res.Events != 0 || emitted != 0 {
				t.Fatalf("rejected config ran: %d events, %d telemetry events", res.Events, emitted)
			}
		})
	}
	// A budget the estimate fits exactly is admitted.
	fit := budget.Budget{Events: est.Events, Horizon: horizon}
	cfg.Budget = &fit
	if _, err := RunCtx(context.Background(), cfg); err != nil {
		t.Fatalf("config within its estimate: %v", err)
	}
}

// TestBudgetFreeDeterminism: a run under a generous budget is virtually
// identical to a budget-free run — enforcement only observes. Wall
// clock and usage differ; every simulation-derived field must not.
func TestBudgetFreeDeterminism(t *testing.T) {
	cfg := budgetTestConfig()
	cfg.SeriesInterval = 100 * sim.Millisecond
	free, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	cfg.Budget = &budget.Budget{
		HeapBytes: 1 << 40,
		Events:    1 << 40,
		Wall:      time.Hour,
		Horizon:   3600 * sim.Second,
	}
	budgeted, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if free.Events != budgeted.Events {
		t.Fatalf("events differ: %d vs %d", free.Events, budgeted.Events)
	}
	if !reflect.DeepEqual(free.Flows, budgeted.Flows) {
		t.Fatal("per-flow results differ under a generous budget")
	}
	if !reflect.DeepEqual(free.Series, budgeted.Series) {
		t.Fatal("series differ under a generous budget")
	}
	if free.AggregateGoodput != budgeted.AggregateGoodput ||
		free.TotalDrops != budgeted.TotalDrops ||
		free.DropBurstiness != budgeted.DropBurstiness {
		t.Fatal("aggregate metrics differ under a generous budget")
	}
}

// TestEstimateConfigScales: the estimator must separate the paper's
// regimes by an order of magnitude — that is all admission needs.
func TestEstimateConfigScales(t *testing.T) {
	edge := EdgeScale().Build(UniformFlows(50, "reno", 20*sim.Millisecond), WithSeed(Seed(1)))
	c := CoreScale()
	coreCfg := c.Build(UniformFlows(5000, "reno", 200*sim.Millisecond), WithSeed(Seed(1)))
	fe, fc := EstimateConfig(edge), EstimateConfig(coreCfg)
	if fc.HeapBytes < 4*fe.HeapBytes {
		t.Fatalf("CoreScale heap %d not well above EdgeScale %d", fc.HeapBytes, fe.HeapBytes)
	}
	if fc.Processed < 4*fe.Processed {
		t.Fatalf("CoreScale events %d not well above EdgeScale %d", fc.Processed, fe.Processed)
	}
	if fe.HeapBytes <= 0 || fe.Wall <= 0 {
		t.Fatal("estimate returned non-positive cost")
	}
}
