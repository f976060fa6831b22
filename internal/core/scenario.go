package core

import (
	"fmt"

	"ccatscale/internal/netem"
	"ccatscale/internal/schema"
	"ccatscale/internal/sim"
	"ccatscale/internal/units"
)

// CompileSpec converts a scenario job spec — the plain-data shape
// ccserve admits and scenario files carry — into the simulator's terms:
// a Setting plus the flattened flow list. It validates the spec first
// and, for topology jobs, compiles and validates the link graph, so
// unreachable nodes and zero-capacity links fail here with the
// constructor's descriptive error rather than at run time.
//
// Both front ends (cmd/reproduce -scenario and ccserve) compile through
// this one function: the same JobSpec always yields the same Setting,
// hence the same RunConfig and RunKey, so either front end serves a run
// the other stored. The name labels the Setting and reaches no key; a
// document envelope's knobs (audit policy, series interval) are part of
// the run, so they do.
func CompileSpec(spec schema.JobSpec) (Setting, []FlowSpec, error) {
	if err := spec.Validate(); err != nil {
		return Setting{}, nil, err
	}
	s := Setting{Name: spec.Name, RunConfig: RunConfig{
		Rate:         units.Bandwidth(spec.RateMbps * float64(units.MbitPerSec)),
		Buffer:       units.ByteCount(spec.BufferBytes),
		Warmup:       sim.Time(spec.WarmupS * float64(sim.Second)),
		Duration:     sim.Time(spec.DurationS * float64(sim.Second)),
		Stagger:      sim.Time(spec.StaggerS * float64(sim.Second)),
		AQM:          spec.AQM,
		ECN:          spec.ECN,
		ECNMarkBytes: units.ByteCount(spec.ECNMarkBytes),
	}}
	var flows []FlowSpec
	for _, g := range spec.Flows {
		rtt := sim.Time(g.RTTMs * float64(sim.Millisecond))
		for i := 0; i < g.Count; i++ {
			flows = append(flows, FlowSpec{CCA: g.CCA, RTT: rtt})
		}
	}
	if spec.Topology != nil {
		ts, err := compileTopology(spec)
		if err != nil {
			return Setting{}, nil, fmt.Errorf("core: scenario %s: %w", spec.Name, err)
		}
		s.Topology = ts
		// Every link declares its own rate, buffer, and discipline; the
		// dumbbell fields stay zero so they cannot leak into the config
		// hash or mislead a reader of the serialized setting.
		s.Rate, s.Buffer, s.AQM = 0, 0, ""
		s.ECN, s.ECNMarkBytes = false, 0
	}
	return s, flows, nil
}

// compileTopology lowers the document's link graph into a simulator
// TopologySpec: named links become indexed LinkSpecs in declaration
// order, and each flow group's named path becomes one index path per
// flattened flow. The resulting spec is validated in full (chaining,
// reachability, capacities) before it is returned.
func compileTopology(spec schema.JobSpec) (*netem.TopologySpec, error) {
	doc := spec.Topology
	ts := &netem.TopologySpec{Nodes: append([]string(nil), doc.Nodes...)}
	index := make(map[string]int, len(doc.Links))
	for i, l := range doc.Links {
		disc, err := parseAQM(l.AQM)
		if err != nil {
			return nil, fmt.Errorf("link %q: %w", l.Name, err)
		}
		index[l.Name] = i
		ts.Links = append(ts.Links, netem.LinkSpec{
			Name:         l.Name,
			From:         l.From,
			To:           l.To,
			Rate:         units.Bandwidth(l.RateMbps * float64(units.MbitPerSec)),
			Delay:        sim.Time(l.DelayMs * float64(sim.Millisecond)),
			Buffer:       units.ByteCount(l.BufferBytes),
			Discipline:   disc,
			ECN:          l.ECN,
			ECNMarkBytes: units.ByteCount(l.ECNMarkBytes),
			LossRate:     l.LossRate,
		})
	}
	for _, g := range spec.Flows {
		path := make([]int, len(g.Path))
		for k, name := range g.Path {
			i, ok := index[name]
			if !ok {
				return nil, fmt.Errorf("path references undeclared link %q", name)
			}
			path[k] = i
		}
		for i := 0; i < g.Count; i++ {
			ts.Paths = append(ts.Paths, path)
		}
	}
	if err := ts.Validate(); err != nil {
		return nil, err
	}
	return ts, nil
}

// ScenarioBuilder compiles one parsed scenario document into runnable
// configuration. Build it once per document with NewScenarioBuilder;
// every RunConfig it then builds carries the same compiled flows and
// seed — reproduce builds one under its governed copy of the Setting,
// fprint and the benchmark under the Setting as compiled.
type ScenarioBuilder struct {
	scn     *schema.Scenario
	setting Setting
	flows   []FlowSpec
}

// NewScenarioBuilder compiles scn, surfacing every validation and
// graph error at construction. The document envelope's knobs (audit
// policy, series interval) go into the compiled setting.
func NewScenarioBuilder(scn *schema.Scenario) (*ScenarioBuilder, error) {
	if err := scn.Validate(); err != nil {
		return nil, err
	}
	setting, flows, err := CompileSpec(scn.JobSpec)
	if err != nil {
		return nil, err
	}
	setting.Audit = scn.Audit
	setting.SeriesInterval = sim.Time(scn.SeriesIntervalS * float64(sim.Second))
	return &ScenarioBuilder{scn: scn, setting: setting, flows: flows}, nil
}

// Setting returns the compiled setting.
func (b *ScenarioBuilder) Setting() Setting { return b.setting }

// RunConfig builds the scenario's RunConfig from the compiled setting.
func (b *ScenarioBuilder) RunConfig() RunConfig { return b.Build(b.setting) }

// Build builds the scenario's RunConfig under s — the compiled setting,
// or a copy of it a front end has governed (audit, budgets, wall limit) —
// with the document's flows and seed.
func (b *ScenarioBuilder) Build(s Setting) RunConfig {
	return s.Build(b.flows, b.scn.Seed)
}
