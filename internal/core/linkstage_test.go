package core

import (
	"reflect"
	"testing"

	"ccatscale/internal/netem"
	"ccatscale/internal/sim"
	"ccatscale/internal/units"
)

// stagedParkingLot is the scenario the wrap-around impairment chain
// could not express: a parking lot whose first hop is a CoDel+ECN
// bottleneck and whose second hop — and only it — is impaired, with
// every stage at once: iid loss, jitter (below the hop's 1.2 ms frame
// time, so it delays without reordering), Gilbert–Elliott burst loss and
// a hold-mode outage. Flows 0 and 1 cross both hops; flow 2 leaves at
// node b and never meets a stage.
func stagedParkingLot(audit string) RunConfig {
	return RunConfig{
		Topology: &netem.TopologySpec{
			Nodes: []string{"a", "b", "c"},
			Links: []netem.LinkSpec{
				{Name: "ab", From: "a", To: "b", Rate: 50 * units.MbitPerSec, Delay: 5 * sim.Millisecond,
					Buffer: 512 * units.KB, Discipline: netem.CoDel, ECN: true},
				{Name: "bc", From: "b", To: "c", Rate: 10 * units.MbitPerSec, Delay: 5 * sim.Millisecond,
					Buffer:    units.MB,
					LossRate:  0.001,
					Jitter:    sim.Millisecond,
					BurstLoss: &netem.BurstLossSpec{MeanLoss: 0.005, MeanBurstLen: 4},
					Outage:    &netem.OutageSpec{Start: 4 * sim.Second, Down: 200 * sim.Millisecond, Period: 3 * sim.Second, Count: 2, Hold: true}},
			},
			Paths: [][]int{{0, 1}, {0, 1}, {0}},
		},
		Flows: []FlowSpec{
			{CCA: "cubic", RTT: 40 * sim.Millisecond},
			{CCA: "cubic", RTT: 40 * sim.Millisecond},
			{CCA: "cubic", RTT: 20 * sim.Millisecond},
		},
		Warmup:   2 * sim.Second,
		Duration: 8 * sim.Second,
		Stagger:  sim.Second,
		Seed:     42,
		Audit:    audit,
	}
}

// TestLinkStagesOnSecondHop runs it: the byte and CE ledgers close under
// the strict auditor with no stage-specific term in core, auditing does
// not move an event, the second link alone reports the stage loss by
// kind, and that loss is nowhere counted as a queue drop.
func TestLinkStagesOnSecondHop(t *testing.T) {
	plain, err := Run(stagedParkingLot(""))
	if err != nil {
		t.Fatal(err)
	}
	strict, err := Run(stagedParkingLot("strict"))
	if err != nil {
		t.Fatalf("strict-audited run failed: %v", err)
	}
	if strict.AuditViolations != 0 {
		t.Fatalf("%d audit violations", strict.AuditViolations)
	}
	if plain.Events != strict.Events || !reflect.DeepEqual(plain.Flows, strict.Flows) ||
		!reflect.DeepEqual(plain.Links, strict.Links) {
		t.Fatalf("strict auditing perturbed the run: events %d vs %d", plain.Events, strict.Events)
	}

	ab, bc := plain.Links[0], plain.Links[1]
	if ab.RandomDrops != 0 || ab.BurstDrops != 0 || ab.OutageDrops != 0 {
		t.Fatalf("unimpaired link ab reports stage loss: %+v", ab)
	}
	if bc.RandomDrops == 0 || bc.BurstDrops == 0 {
		t.Fatalf("link bc: %d iid / %d burst drops; both stages should have fired", bc.RandomDrops, bc.BurstDrops)
	}
	if bc.OutageDrops != 0 {
		t.Fatalf("hold-mode outage dropped %d packets", bc.OutageDrops)
	}
	if plain.RandomDrops != bc.RandomDrops || plain.BurstDrops != bc.BurstDrops {
		t.Fatalf("run totals %d/%d are not the links' sums %d/%d",
			plain.RandomDrops, plain.BurstDrops, bc.RandomDrops, bc.BurstDrops)
	}
	if ab.CEMarks == 0 || bc.CEMarks != 0 {
		t.Fatalf("CE marks: ab %d (CoDel+ECN), bc %d (no ECN)", ab.CEMarks, bc.CEMarks)
	}

	// One accounting rule: impairment loss is never a queue drop. Loss
	// keeps the windows of flows 0 and 1 far below bc's deep buffer, so
	// bc never tail-drops and ab marks instead: every loss in this run
	// is stage loss, and none of it may show up in the queue-drop views.
	if plain.TotalDrops != 0 || bc.DropWire != 0 {
		t.Fatalf("stage loss leaked into the queue-drop counters: TotalDrops %d, bc.DropWire %d",
			plain.TotalDrops, bc.DropWire)
	}
	for i, f := range plain.Flows {
		if f.Drops != 0 || f.LossRate != 0 {
			t.Fatalf("flow %d: Drops %d LossRate %v; per-flow drops count queue drops only", i, f.Drops, f.LossRate)
		}
	}
	for i, f := range plain.Flows[:2] {
		if f.Retransmissions == 0 {
			t.Fatalf("flow %d crossed the impaired hop and lost nothing", i)
		}
	}
	if f := plain.Flows[2]; f.Retransmissions != 0 || f.ECNResponses == 0 {
		t.Fatalf("flow 2 never crosses bc: %d retransmissions, %d ECN responses; want none and some",
			f.Retransmissions, f.ECNResponses)
	}
}

// TestLinkLossRateIsImpairmentLoss: a declared link's lossRate is the
// same Impairment stage the dumbbell's RandomLoss is, so it is reported
// the same way — RandomDrops, not TotalDrops. (Before, the link had a
// hand-rolled copy that filed its drops as queue drops.)
func TestLinkLossRateIsImpairmentLoss(t *testing.T) {
	cfg := auditedTinyConfig(5)
	cfg.RandomLoss = 0.01
	want, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	// The same bottleneck, declared.
	spec, _ := cfg.fabricSpec(cfg.rtts())
	cfg.Topology, cfg.RandomLoss = &spec, 0
	got, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if got.RandomDrops == 0 || got.Links[0].RandomDrops != got.RandomDrops {
		t.Fatalf("RandomDrops = %d, link reports %d", got.RandomDrops, got.Links[0].RandomDrops)
	}
	if got.TotalDrops != 0 {
		t.Fatalf("1%% iid loss on a deep buffer produced %d queue drops", got.TotalDrops)
	}
	// Declared or derived, it is one link with one stage: only the RNG
	// stream the stage splits from differs, not the loss process.
	if ratio := float64(got.RandomDrops) / float64(want.RandomDrops); ratio < 0.7 || ratio > 1.4 {
		t.Fatalf("declared link dropped %d, dumbbell %d", got.RandomDrops, want.RandomDrops)
	}
}
