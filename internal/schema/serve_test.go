package schema

import (
	"encoding/json"
	"reflect"
	"strings"
	"testing"
)

func validSpec() JobSpec {
	return JobSpec{
		Name:        "edge-reno.10",
		Seed:        7,
		RateMbps:    100,
		BufferBytes: 3_000_000,
		Flows:       []FlowGroup{{CCA: "reno", RTTMs: 20, Count: 10}},
		WarmupS:     1,
		DurationS:   5,
	}
}

func TestJobSpecValidate(t *testing.T) {
	vs := validSpec()
	if err := vs.Validate(); err != nil {
		t.Fatalf("valid spec rejected: %v", err)
	}
	cases := []struct {
		name   string
		mutate func(*JobSpec)
		want   string
	}{
		{"empty name", func(s *JobSpec) { s.Name = "" }, "no name"},
		{"path separator", func(s *JobSpec) { s.Name = "a/b" }, "not in"},
		{"space", func(s *JobSpec) { s.Name = "a b" }, "not in"},
		{"dotfile", func(s *JobSpec) { s.Name = ".hidden" }, "start with a dot"},
		{"zero rate", func(s *JobSpec) { s.RateMbps = 0 }, "rateMbps"},
		{"negative buffer", func(s *JobSpec) { s.BufferBytes = -1 }, "bufferBytes"},
		{"zero duration", func(s *JobSpec) { s.DurationS = 0 }, "durationS"},
		{"negative warmup", func(s *JobSpec) { s.WarmupS = -1 }, "warmupS"},
		{"no flows", func(s *JobSpec) { s.Flows = nil }, "no flow groups"},
		{"empty cca", func(s *JobSpec) { s.Flows[0].CCA = "" }, "no cca"},
		{"zero rtt", func(s *JobSpec) { s.Flows[0].RTTMs = 0 }, "rttMs"},
		{"zero count", func(s *JobSpec) { s.Flows[0].Count = 0 }, "count"},
	}
	for _, c := range cases {
		s := validSpec()
		c.mutate(&s)
		err := s.Validate()
		if err == nil {
			t.Errorf("%s: validated, want error", c.name)
			continue
		}
		if !strings.Contains(err.Error(), c.want) {
			t.Errorf("%s: error %q does not mention %q", c.name, err, c.want)
		}
	}
}

func TestJobTerminal(t *testing.T) {
	for _, s := range []string{JobDone, JobFailed, JobPoisoned} {
		if !JobTerminal(s) {
			t.Errorf("JobTerminal(%s) = false", s)
		}
	}
	for _, s := range []string{JobQueued, JobRunning, "", "bogus"} {
		if JobTerminal(s) {
			t.Errorf("JobTerminal(%s) = true", s)
		}
	}
}

func TestBatchRequestRoundTrip(t *testing.T) {
	req := BatchRequest{SchemaVersion: Version, Jobs: []JobSpec{validSpec()}}
	data, err := json.Marshal(req)
	if err != nil {
		t.Fatal(err)
	}
	var got BatchRequest
	if err := json.Unmarshal(data, &got); err != nil {
		t.Fatal(err)
	}
	if err := Check(got.SchemaVersion); err != nil {
		t.Fatal(err)
	}
	if len(got.Jobs) != 1 {
		t.Fatalf("round trip lost jobs: %+v", got.Jobs)
	}
	want, have := req.Jobs[0], got.Jobs[0]
	if want.Name != have.Name || want.Seed != have.Seed || want.RateMbps != have.RateMbps ||
		want.BufferBytes != have.BufferBytes || want.DurationS != have.DurationS ||
		len(want.Flows) != len(have.Flows) || !reflect.DeepEqual(want.Flows[0], have.Flows[0]) {
		t.Fatalf("round trip changed the spec: want %+v got %+v", want, have)
	}
}
