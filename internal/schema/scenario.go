package schema

import (
	"bytes"
	"encoding/json"
	"fmt"
)

// Scenario shapes: the versioned JSON document that describes one
// experiment declaratively — flows, network (dumbbell or topology
// graph), ECN/AQM marking, and run-length parameters — and fronts both
// cmd/reproduce (-scenario file.json) and ccserve submission. Like
// every schema type it is plain data: rates in Mbps, delays in
// milliseconds, buffers in bytes, no simulator imports.

// LinkDoc is one directed link of a topology graph.
type LinkDoc struct {
	// Name identifies the link; flow paths reference links by name.
	Name string `json:"name"`
	// From and To are node names; traffic flows From → To.
	From string `json:"from"`
	To   string `json:"to"`
	// RateMbps is the link bandwidth in Mbps.
	RateMbps float64 `json:"rateMbps"`
	// DelayMs is the one-way propagation delay in milliseconds.
	DelayMs float64 `json:"delayMs,omitempty"`
	// BufferBytes is the link's queue capacity.
	BufferBytes int64 `json:"bufferBytes"`
	// AQM selects the queue discipline ("" = drop-tail, "codel").
	AQM string `json:"aqm,omitempty"`
	// ECN enables CE marking on this link's queue.
	ECN bool `json:"ecn,omitempty"`
	// ECNMarkBytes overrides the drop-tail marking threshold
	// (0 = BufferBytes/4; ignored without ECN).
	ECNMarkBytes int64 `json:"ecnMarkBytes,omitempty"`
	// LossRate is an i.i.d. per-packet loss probability on the link,
	// in [0, 1).
	LossRate float64 `json:"lossRate,omitempty"`
}

// TopologyDoc is a network graph replacing the implicit dumbbell: named
// nodes, directed links between them, and (via FlowGroup.Path) the
// per-group forward routes. Validation here is structural — name
// resolution, positive rates, probability ranges; graph-level checks
// (path chaining, reachability) run when the document compiles to a
// simulator topology.
type TopologyDoc struct {
	Nodes []string  `json:"nodes"`
	Links []LinkDoc `json:"links"`
}

// Validate rejects structurally broken topology documents.
func (t *TopologyDoc) Validate() error {
	if len(t.Nodes) == 0 {
		return fmt.Errorf("schema: topology has no nodes")
	}
	if len(t.Links) == 0 {
		return fmt.Errorf("schema: topology has no links")
	}
	nodes := make(map[string]bool, len(t.Nodes))
	for _, n := range t.Nodes {
		if n == "" {
			return fmt.Errorf("schema: topology has an empty node name")
		}
		if nodes[n] {
			return fmt.Errorf("schema: topology declares node %q twice", n)
		}
		nodes[n] = true
	}
	names := make(map[string]bool, len(t.Links))
	for i, l := range t.Links {
		if l.Name == "" {
			return fmt.Errorf("schema: topology link %d has no name", i)
		}
		if names[l.Name] {
			return fmt.Errorf("schema: topology declares link %q twice", l.Name)
		}
		names[l.Name] = true
		if !nodes[l.From] {
			return fmt.Errorf("schema: link %q runs from undeclared node %q", l.Name, l.From)
		}
		if !nodes[l.To] {
			return fmt.Errorf("schema: link %q runs to undeclared node %q", l.Name, l.To)
		}
		if l.RateMbps <= 0 {
			return fmt.Errorf("schema: link %q rateMbps %v must be positive (a zero-capacity link could never drain)", l.Name, l.RateMbps)
		}
		if l.BufferBytes <= 0 {
			return fmt.Errorf("schema: link %q bufferBytes %d must be positive", l.Name, l.BufferBytes)
		}
		if l.DelayMs < 0 {
			return fmt.Errorf("schema: link %q delayMs %v must be non-negative", l.Name, l.DelayMs)
		}
		if l.ECNMarkBytes < 0 {
			return fmt.Errorf("schema: link %q ecnMarkBytes %d must be non-negative", l.Name, l.ECNMarkBytes)
		}
		if l.LossRate < 0 || l.LossRate >= 1 {
			return fmt.Errorf("schema: link %q lossRate %v outside [0, 1)", l.Name, l.LossRate)
		}
	}
	return nil
}

// Link returns the named link, or nil.
func (t *TopologyDoc) Link(name string) *LinkDoc {
	for i := range t.Links {
		if t.Links[i].Name == name {
			return &t.Links[i]
		}
	}
	return nil
}

// Scenario is the top-level experiment document: one JobSpec — the same
// shape ccserve admits — plus the run attachments a file-driven
// invocation wants (audit policy, series sampling) behind a
// schema_version stamp.
type Scenario struct {
	// SchemaVersion must carry a major this build reads; Encode stamps
	// the build's own Version.
	SchemaVersion string `json:"schema_version"`
	// JobSpec is the experiment itself (flows, network, durations).
	JobSpec
	// Audit selects the invariant-auditing policy for the run
	// ("", "off", "warn", or "strict").
	Audit string `json:"audit,omitempty"`
	// SeriesIntervalS enables per-CCA goodput series sampling at this
	// interval in virtual seconds (0 = off).
	SeriesIntervalS float64 `json:"seriesIntervalS,omitempty"`
}

// Validate extends JobSpec validation with the scenario-only fields.
func (s *Scenario) Validate() error {
	if err := s.JobSpec.Validate(); err != nil {
		return err
	}
	switch s.Audit {
	case "", "off", "warn", "strict":
	default:
		return fmt.Errorf("schema: scenario %s: audit %q is not off/warn/strict", s.Name, s.Audit)
	}
	if s.SeriesIntervalS < 0 {
		return fmt.Errorf("schema: scenario %s: seriesIntervalS %v must be non-negative", s.Name, s.SeriesIntervalS)
	}
	return nil
}

// ParseScenario decodes and validates one scenario document. Unknown
// fields are rejected — a typo'd knob silently ignored is an experiment
// that ran with the wrong configuration — and the version check runs
// before shape validation so a future-major document fails with the
// version message, not a confusing field error.
func ParseScenario(data []byte) (*Scenario, error) {
	var probe struct {
		SchemaVersion string `json:"schema_version"`
	}
	if err := json.Unmarshal(data, &probe); err != nil {
		return nil, fmt.Errorf("schema: scenario is not JSON: %w", err)
	}
	if err := Check(probe.SchemaVersion); err != nil {
		return nil, err
	}
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	var s Scenario
	if err := dec.Decode(&s); err != nil {
		return nil, fmt.Errorf("schema: scenario does not parse: %w", err)
	}
	if err := s.Validate(); err != nil {
		return nil, err
	}
	return &s, nil
}

// Encode stamps the build's schema version and renders the scenario as
// indented JSON with a trailing newline, ready to write to a file.
func (s *Scenario) Encode() ([]byte, error) {
	out := *s
	out.SchemaVersion = Version
	data, err := json.MarshalIndent(&out, "", "  ")
	if err != nil {
		return nil, err
	}
	return append(data, '\n'), nil
}
