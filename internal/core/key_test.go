package core

import (
	"math"
	"os"
	"reflect"
	"sort"
	"testing"

	"ccatscale/internal/schema"
)

// TestResultKeyGolden pins the content addresses existing stores are
// filed under. A key that moves orphans every cached result, so a
// change here is a migration, not a refactor. The two parking-lot rows
// are the same document keyed by each front end: cmd/reproduce folds
// the seed into the job name and carries the document's audit policy in
// the Setting, ccserve keys the bare JobSpec — the keys differ, and
// stay different while the two commit different tables.
func TestResultKeyGolden(t *testing.T) {
	data, err := os.ReadFile("../../examples/scenarios/parkinglot.json")
	if err != nil {
		t.Fatal(err)
	}
	scn, err := schema.ParseScenario(data)
	if err != nil {
		t.Fatal(err)
	}
	b, err := NewScenarioBuilder(scn)
	if err != nil {
		t.Fatal(err)
	}
	compile := func(spec schema.JobSpec) Setting {
		s, _, err := CompileSpec(spec)
		if err != nil {
			t.Fatal(err)
		}
		return s
	}
	smoke := schema.JobSpec{
		Name: "smoke-a", Seed: 7, RateMbps: 10, BufferBytes: 65536, DurationS: 5,
		Flows: []schema.FlowGroup{{CCA: "reno", RTTMs: 20, Count: 2}},
	}
	for _, tc := range []struct {
		name    string
		seed    uint64
		setting Setting
		want    string
	}{
		{"scenario_parkinglot_seed42", 42, b.Setting(), "scenario_parkinglot_seed42-42-d2ed6d93913fa952"},
		{"parkinglot", 42, compile(scn.JobSpec), "parkinglot-42-fcc86be2aeac7db8"},
		{"table1_edge", 7, EdgeScale(), "table1_edge-7-15a11f661a45e075"},
		{"fig8_reno_core", 7, CoreScaleScaled(10), "fig8_reno_core-7-dcf468480ef3c915"},
		{"smoke-a", 7, compile(smoke), "smoke-a-7-765d375ef77a67ae"},
	} {
		got, err := ResultKey(tc.name, tc.seed, tc.setting)
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		if got != tc.want {
			t.Errorf("ResultKey(%s) = %s, want %s", tc.name, got, tc.want)
		}
	}
}

// TestResultKeyUnmarshalable: a setting that cannot be hashed has no
// key — not a key derived from its name, which every other unhashable
// setting of that name would share.
func TestResultKeyUnmarshalable(t *testing.T) {
	s := EdgeScale()
	s.BurstLoss = &BurstLossSpec{MeanLoss: math.NaN(), MeanBurstLen: 4}
	if key, err := ResultKey("job", 7, s); err == nil {
		t.Fatalf("NaN setting was keyed as %q", key)
	}
}

// TestSettingFieldsClassified makes adding a Setting field a decision:
// every field is either part of the experiment's identity (it reaches
// result keys and config hashes) or governance (Identity clears it). A new field fails here until it is put in one
// list, and an identity field that is not omitempty then fails
// TestResultKeyGolden by re-keying every stored result.
func TestSettingFieldsClassified(t *testing.T) {
	identity := []string{
		"Name", "Rate", "Buffer", "FlowCounts", "Warmup", "Duration", "Stagger",
		"Converge", "AQM", "Topology", "ECN", "ECNMarkBytes", "BurstLoss", "Outage",
		"StallEvents", "FaultPanicAt", "Audit", "AuditDrillAt",
	}
	governance := []string{
		"Budget", "Retries", "Fidelity", "WallLimit",
	}

	typ := reflect.TypeOf(Setting{})
	var fields []string
	for i := 0; i < typ.NumField(); i++ {
		fields = append(fields, typ.Field(i).Name)
	}
	listed := append(append([]string(nil), identity...), governance...)
	sort.Strings(fields)
	sort.Strings(listed)
	if !reflect.DeepEqual(fields, listed) {
		t.Fatalf("Setting fields and the two lists disagree (each field belongs in exactly one):\n fields %v\n listed %v", fields, listed)
	}

	// Fill every field with something non-zero, then see what survives.
	var full Setting
	v := reflect.ValueOf(&full).Elem()
	for i := 0; i < v.NumField(); i++ {
		setNonZero(t, v.Field(i), typ.Field(i).Name)
	}
	var cleared []string
	got := reflect.ValueOf(Identity(full))
	for i := 0; i < got.NumField(); i++ {
		if got.Field(i).IsZero() {
			cleared = append(cleared, typ.Field(i).Name)
		}
	}
	sort.Strings(cleared)
	sort.Strings(governance)
	if !reflect.DeepEqual(cleared, governance) {
		t.Fatalf("Identity cleared %v, want exactly the governance list %v", cleared, governance)
	}
}

// setNonZero gives one Setting field an arbitrary non-zero value.
func setNonZero(t *testing.T, f reflect.Value, name string) {
	t.Helper()
	switch f.Kind() {
	case reflect.String:
		f.SetString("x")
	case reflect.Bool:
		f.SetBool(true)
	case reflect.Int, reflect.Int64:
		f.SetInt(1)
	case reflect.Uint64:
		f.SetUint(1)
	case reflect.Slice:
		f.Set(reflect.MakeSlice(f.Type(), 1, 1))
	case reflect.Ptr:
		f.Set(reflect.New(f.Type().Elem()))
	default:
		t.Fatalf("field %s: no non-zero value for kind %s", name, f.Kind())
	}
}
