package core

import (
	"reflect"
	"strings"
	"testing"

	"ccatscale/internal/schema"
	"ccatscale/internal/sim"
	"ccatscale/internal/units"
)

// parkingLotDoc mirrors examples/scenarios/parkinglot.json in miniature:
// two bottlenecks in series, ECN at both, mixed CCAs entering at
// different hops, strict audit.
func parkingLotDoc() *schema.Scenario {
	return &schema.Scenario{
		JobSpec: schema.JobSpec{
			Name: "parkinglot-test",
			Seed: 42,
			Topology: &schema.TopologyDoc{
				Nodes: []string{"a", "b", "c"},
				Links: []schema.LinkDoc{
					{Name: "ab", From: "a", To: "b", RateMbps: 50, DelayMs: 5, BufferBytes: 262144, ECN: true},
					{Name: "bc", From: "b", To: "c", RateMbps: 40, DelayMs: 5, BufferBytes: 196608, ECN: true},
				},
			},
			Flows: []schema.FlowGroup{
				{CCA: "cubic", RTTMs: 40, Count: 2, Path: []string{"ab", "bc"}},
				{CCA: "bbr2", RTTMs: 20, Count: 1, Path: []string{"bc"}},
			},
			WarmupS:   2,
			DurationS: 8,
			StaggerS:  1,
		},
		Audit: "strict",
	}
}

// TestDumbbellScenarioBitIdentity is the compatibility-layer acceptance
// check in-process (cmd/fprint -viascenario is the CI form): a dumbbell
// expressed as a scenario document and compiled through Encode →
// ParseScenario → ScenarioBuilder must produce bit-identical results to
// the directly constructed RunConfig — same events, same flow stats,
// same series.
func TestDumbbellScenarioBitIdentity(t *testing.T) {
	direct := RunConfig{
		Rate:           50 * units.MbitPerSec,
		Buffer:         units.BDP(50*units.MbitPerSec, 40*sim.Millisecond),
		Flows:          UniformFlows(4, "cubic", 20*sim.Millisecond),
		Warmup:         2 * sim.Second,
		Duration:       8 * sim.Second,
		Stagger:        sim.Second,
		Seed:           7,
		SeriesInterval: 500 * sim.Millisecond,
	}
	doc := &schema.Scenario{
		JobSpec: schema.JobSpec{
			Name:        "dumbbell",
			Seed:        7,
			RateMbps:    float64(direct.Rate) / float64(units.MbitPerSec),
			BufferBytes: int64(direct.Buffer),
			Flows:       []schema.FlowGroup{{CCA: "cubic", RTTMs: 20, Count: 4}},
			WarmupS:     2,
			DurationS:   8,
			StaggerS:    1,
		},
		SeriesIntervalS: 0.5,
	}
	data, err := doc.Encode()
	if err != nil {
		t.Fatal(err)
	}
	parsed, err := schema.ParseScenario(data)
	if err != nil {
		t.Fatal(err)
	}
	b, err := NewScenarioBuilder(parsed)
	if err != nil {
		t.Fatal(err)
	}
	compiled := b.RunConfig()

	want, err := Run(direct)
	if err != nil {
		t.Fatal(err)
	}
	got, err := Run(compiled)
	if err != nil {
		t.Fatal(err)
	}
	if want.Events != got.Events {
		t.Fatalf("event counts differ: direct %d, scenario %d", want.Events, got.Events)
	}
	if !reflect.DeepEqual(want.Flows, got.Flows) {
		t.Fatal("per-flow results differ between direct and scenario-compiled configs")
	}
	if !reflect.DeepEqual(want.Series, got.Series) {
		t.Fatal("goodput series differ between direct and scenario-compiled configs")
	}
}

// TestDumbbellECNStrictAudit turns on end-to-end ECN over the dumbbell
// under the strict auditor: the run must complete with the CE ledger
// closed (any leak fails the run), marks must actually happen in a
// buffer-limited setting, and the senders must respond to the echoes.
func TestDumbbellECNStrictAudit(t *testing.T) {
	s := tinySetting()
	s.Warmup = 2 * sim.Second
	s.Duration = 8 * sim.Second
	s.ECN = true
	cfg := s.Build(UniformFlows(4, "cubic", DefaultRTT), 3)
	cfg.Audit = "strict"
	res, err := Run(cfg)
	if err != nil {
		t.Fatalf("strict ECN run failed: %v", err)
	}
	if res.CEMarks == 0 {
		t.Fatal("ECN enabled but the bottleneck never marked")
	}
	var responses uint64
	for _, f := range res.Flows {
		responses += f.ECNResponses
	}
	if responses == 0 {
		t.Fatal("CE marks were made but no sender ever reduced for an ECE echo")
	}
	if res.AuditViolations != 0 {
		t.Fatalf("strict run recorded %d violations", res.AuditViolations)
	}
}

// TestECNAuditBitIdentity mirrors the auditor-is-an-observer guarantee
// on the ECN path: an ECN run with the auditor strict must be
// bit-identical to the same run unaudited — the CE ledger consumes no
// randomness and perturbs no flow statistic.
func TestECNAuditBitIdentity(t *testing.T) {
	build := func(audit string) RunConfig {
		s := tinySetting()
		s.Warmup = 2 * sim.Second
		s.Duration = 8 * sim.Second
		s.ECN = true
		cfg := s.Build(MixedFlows(4, "cubic", "bbr2", DefaultRTT), 11)
		cfg.Audit = audit
		return cfg
	}
	plain, err := Run(build(""))
	if err != nil {
		t.Fatal(err)
	}
	strict, err := Run(build("strict"))
	if err != nil {
		t.Fatal(err)
	}
	if plain.Events != strict.Events || plain.CEMarks != strict.CEMarks {
		t.Fatalf("audit perturbed the run: events %d/%d CE %d/%d",
			plain.Events, strict.Events, plain.CEMarks, strict.CEMarks)
	}
	if !reflect.DeepEqual(plain.Flows, strict.Flows) {
		t.Fatal("strict auditing perturbed ECN flow results")
	}
}

// TestParkingLotStrictAudit is the multi-bottleneck acceptance run: a
// two-bottleneck parking lot with ECN at both hops, under the strict
// auditor — so the per-link port-conservation checks, the fabric-wide
// byte equation, and the CE ledger all must close on a topology where
// flows enter at different nodes.
func TestParkingLotStrictAudit(t *testing.T) {
	b, err := NewScenarioBuilder(parkingLotDoc())
	if err != nil {
		t.Fatal(err)
	}
	res, err := Run(b.RunConfig())
	if err != nil {
		t.Fatalf("strict parking-lot run failed: %v", err)
	}
	if res.AuditViolations != 0 {
		t.Fatalf("strict run recorded %d violations", res.AuditViolations)
	}
	if len(res.Flows) != 3 {
		t.Fatalf("flattened %d flows, want 3", len(res.Flows))
	}
	if len(res.Links) != 2 || res.Links[0].Name != "ab" || res.Links[1].Name != "bc" {
		t.Fatalf("per-link stats missing or misordered: %+v", res.Links)
	}
	for _, l := range res.Links {
		if l.TxPackets == 0 {
			t.Fatalf("link %s carried no traffic", l.Name)
		}
	}
	if res.CEMarks == 0 {
		t.Fatal("two ECN bottlenecks never marked under load")
	}
	for i, f := range res.Flows {
		if f.Goodput <= 0 {
			t.Fatalf("flow %d (%s) made no progress", i, f.Spec.CCA)
		}
	}
}

// TestCompileSpecTopologyErrors covers the compile-time half of
// validation — what the structural schema checks cannot see: unknown
// AQM names, and graph-level defects (unreachable nodes) surfaced from
// the netem constructor with the scenario name attached.
func TestCompileSpecTopologyErrors(t *testing.T) {
	t.Run("unknown aqm", func(t *testing.T) {
		doc := parkingLotDoc()
		doc.Topology.Links[0].AQM = "red"
		_, _, err := CompileSpec(doc.JobSpec)
		if err == nil || !strings.Contains(err.Error(), `unknown AQM "red"`) {
			t.Fatalf("err = %v", err)
		}
	})
	t.Run("unreachable node", func(t *testing.T) {
		doc := parkingLotDoc()
		doc.Topology.Nodes = append(doc.Topology.Nodes, "orphan")
		_, _, err := CompileSpec(doc.JobSpec)
		if err == nil || !strings.Contains(err.Error(), "unreachable") {
			t.Fatalf("err = %v", err)
		}
		if !strings.Contains(err.Error(), doc.Name) {
			t.Fatalf("error %q does not name the scenario", err)
		}
	})
	t.Run("negative ecn threshold", func(t *testing.T) {
		doc := parkingLotDoc()
		doc.Topology.Links[1].ECN, doc.Topology.Links[1].ECNMarkBytes = true, -5
		_, _, err := CompileSpec(doc.JobSpec)
		if err == nil || !strings.Contains(err.Error(), `link "bc" ecnMarkBytes -5 must be non-negative`) {
			t.Fatalf("err = %v", err)
		}
	})
	t.Run("dumbbell fields zeroed", func(t *testing.T) {
		s, flows, err := CompileSpec(parkingLotDoc().JobSpec)
		if err != nil {
			t.Fatal(err)
		}
		if s.Rate != 0 || s.Buffer != 0 || s.AQM != "" || s.ECN || s.ECNMarkBytes != 0 {
			t.Fatalf("dumbbell fields leaked into a topology setting: %+v", s)
		}
		if s.Topology == nil || len(s.Topology.Links) != 2 {
			t.Fatalf("topology not compiled: %+v", s.Topology)
		}
		if len(flows) != 3 {
			t.Fatalf("flattened %d flows, want 3", len(flows))
		}
		// Paths follow the flattening: two group-0 flows over both links,
		// one group-1 flow over bc only.
		want := [][]int{{0, 1}, {0, 1}, {1}}
		if !reflect.DeepEqual(s.Topology.Paths, want) {
			t.Fatalf("paths = %v, want %v", s.Topology.Paths, want)
		}
	})
}
