package schema

import (
	"reflect"
	"strings"
	"testing"
)

// parkingLotScenario is a full-featured topology scenario touching every
// declarative knob: two bottlenecks, per-link ECN and AQM, flow groups
// on distinct paths, audit and series attachments.
func parkingLotScenario() *Scenario {
	return &Scenario{
		JobSpec: JobSpec{
			Name: "parkinglot",
			Seed: 42,
			Topology: &TopologyDoc{
				Nodes: []string{"a", "b", "c"},
				Links: []LinkDoc{
					{Name: "ab", From: "a", To: "b", RateMbps: 50, DelayMs: 5, BufferBytes: 262144, ECN: true},
					{Name: "bc", From: "b", To: "c", RateMbps: 40, DelayMs: 5, BufferBytes: 196608, AQM: "codel", ECN: true},
				},
			},
			Flows: []FlowGroup{
				{CCA: "cubic", RTTMs: 40, Count: 2, Path: []string{"ab", "bc"}},
				{CCA: "bbr2", RTTMs: 20, Count: 1, Path: []string{"bc"}},
			},
			WarmupS:   2,
			DurationS: 8,
			StaggerS:  1,
		},
		Audit:           "strict",
		SeriesIntervalS: 0.5,
	}
}

// TestScenarioRoundTrip pins the serialization contract: Encode stamps
// the build's version, and ParseScenario returns a document deep-equal
// to the original — nothing dropped, renamed, or defaulted differently.
func TestScenarioRoundTrip(t *testing.T) {
	want := parkingLotScenario()
	data, err := want.Encode()
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(data), `"schema_version": "`+Version+`"`) {
		t.Fatalf("encoded document not stamped with version %s:\n%s", Version, data)
	}
	got, err := ParseScenario(data)
	if err != nil {
		t.Fatal(err)
	}
	want.SchemaVersion = Version // Encode stamped it
	if !reflect.DeepEqual(want, got) {
		t.Fatalf("round trip drifted:\nwant %+v\ngot  %+v", want, got)
	}
}

// TestScenarioDumbbellRoundTrip does the same for the dumbbell shape —
// no topology, flat rate/buffer, ECN at the job level.
func TestScenarioDumbbellRoundTrip(t *testing.T) {
	want := &Scenario{
		JobSpec: JobSpec{
			Name: "dumbbell", Seed: 7, RateMbps: 50, BufferBytes: 262144,
			ECN: true, ECNMarkBytes: 65536,
			Flows:     []FlowGroup{{CCA: "reno", RTTMs: 20, Count: 4}},
			DurationS: 8,
		},
	}
	data, err := want.Encode()
	if err != nil {
		t.Fatal(err)
	}
	got, err := ParseScenario(data)
	if err != nil {
		t.Fatal(err)
	}
	want.SchemaVersion = Version
	if !reflect.DeepEqual(want, got) {
		t.Fatalf("round trip drifted:\nwant %+v\ngot  %+v", want, got)
	}
}

// TestParseScenarioRejections pins the failure modes a scenario author
// hits: each malformed document must fail with a message naming the
// problem. Unknown fields are hard errors — a typo'd knob silently
// ignored is an experiment that ran with the wrong configuration.
func TestParseScenarioRejections(t *testing.T) {
	valid := func() *Scenario { return parkingLotScenario() }
	encode := func(t *testing.T, s *Scenario) []byte {
		t.Helper()
		data, err := s.Encode()
		if err != nil {
			t.Fatal(err)
		}
		return data
	}
	cases := []struct {
		name string
		data func(t *testing.T) []byte
		want string
	}{
		{"not json", func(t *testing.T) []byte { return []byte("{") }, "not JSON"},
		{"missing version", func(t *testing.T) []byte {
			data := encode(t, valid())
			return []byte(strings.Replace(string(data), Version, "", 1))
		}, "no schema_version"},
		{"future major", func(t *testing.T) []byte {
			data := encode(t, valid())
			return []byte(strings.Replace(string(data), Version, "99.0", 1))
		}, "has major 99"},
		{"unknown field", func(t *testing.T) []byte {
			data := encode(t, valid())
			return []byte(strings.Replace(string(data), `"audit"`, `"addit"`, 1))
		}, "unknown field"},
		{"bad audit policy", func(t *testing.T) []byte {
			s := valid()
			s.Audit = "paranoid"
			return encode(t, s)
		}, "not off/warn/strict"},
		{"negative series interval", func(t *testing.T) []byte {
			s := valid()
			s.SeriesIntervalS = -1
			return encode(t, s)
		}, "must be non-negative"},
		{"zero-capacity link", func(t *testing.T) []byte {
			s := valid()
			s.Topology.Links[1].RateMbps = 0
			return encode(t, s)
		}, "could never drain"},
		{"negative link ecn threshold", func(t *testing.T) []byte {
			s := valid()
			s.Topology.Links[0].ECNMarkBytes = -5
			return encode(t, s)
		}, `link "ab" ecnMarkBytes -5 must be non-negative`},
		{"path over undeclared link", func(t *testing.T) []byte {
			s := valid()
			s.Flows[0].Path = []string{"ab", "cd"}
			return encode(t, s)
		}, `undeclared link "cd"`},
		{"topology without path", func(t *testing.T) []byte {
			s := valid()
			s.Flows[1].Path = nil
			return encode(t, s)
		}, "needs a path"},
		{"path without topology", func(t *testing.T) []byte {
			s := valid()
			s.Topology = nil
			s.RateMbps, s.BufferBytes = 50, 262144
			return encode(t, s)
		}, "no topology"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			_, err := ParseScenario(tc.data(t))
			if err == nil {
				t.Fatal("expected a parse/validation error")
			}
			if !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("error %q does not mention %q", err, tc.want)
			}
		})
	}
}
