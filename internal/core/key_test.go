package core

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"reflect"
	"sort"
	"strings"
	"testing"
	"time"

	"ccatscale/internal/budget"
	"ccatscale/internal/schema"
	"ccatscale/internal/telemetry"
)

var update = flag.Bool("update", false, "rewrite testdata/runresult_fields.golden with RunResult's JSON field set and RunRecordVersion")

// TestResultKeyGolden pins the content addresses existing stores are
// filed under. A key that moves orphans every cached result, so a
// change here is a migration, not a refactor. The two parking-lot rows
// are the same document keyed by each front end: cmd/reproduce folds
// the seed into the job name and carries the document's audit policy in
// the Setting, ccserve keys the bare JobSpec — the keys differ, and
// stay different while the two commit different tables. The keys
// predate the removal of Setting.AuditDrillAt and did not move with it.
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
		"StallEvents", "FaultPanicAt", "Audit",
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
	case reflect.Float64:
		f.SetFloat(0.5)
	case reflect.Slice:
		f.Set(reflect.MakeSlice(f.Type(), 1, 1))
	case reflect.Ptr:
		f.Set(reflect.New(f.Type().Elem()))
	default:
		t.Fatalf("field %s: no non-zero value for kind %s", name, f.Kind())
	}
}

// TestRunKeyIgnoresGovernance: a run's key is its config's content with
// the governance cleared, so the budget, wall limit and fidelity tier a
// run is admitted under — and a live collector — never move it, while
// every other field does.
func TestRunKeyIgnoresGovernance(t *testing.T) {
	cfg := EdgeScale().Build(UniformFlows(2, "reno", DefaultRTT), WithSeed(Seed(7)))
	base, err := RunKey(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.HasPrefix(base, fmt.Sprintf("run%d-", RunRecordVersion)) {
		t.Fatalf("key %s does not carry the record version", base)
	}
	governed := cfg
	governed.Budget = &budget.Budget{HeapBytes: 1 << 30}
	governed.WallLimit = time.Minute
	governed.Fidelity = 2
	governed.Collector = noopCollector{}
	if k, _ := RunKey(governed); k != base {
		t.Fatalf("governance moved the run key: %s != %s", k, base)
	}

	typ := reflect.TypeOf(cfg)
	for i := 0; i < typ.NumField(); i++ {
		name := typ.Field(i).Name
		switch name {
		case "Budget", "WallLimit", "Fidelity", "Collector":
			continue
		}
		moved := cfg
		f := reflect.ValueOf(&moved).Elem().Field(i)
		if !f.IsZero() && f.Kind() != reflect.Slice {
			f.Set(reflect.Zero(f.Type()))
		} else {
			setNonZero(t, f, name)
		}
		if k, err := RunKey(moved); err != nil || k == base {
			t.Errorf("changing %s did not move the run key (%v)", name, err)
		}
	}
}

// noopCollector is a live attachment that must not reach a key.
type noopCollector struct{}

func (noopCollector) Emit(telemetry.Event) {}

// TestRunResultFieldsGolden pins the JSON field set of the record a run
// key addresses. A field added to RunResult would decode as zero from
// every record stored before it, so the field set and RunRecordVersion
// move together: bump the version, then rewrite the golden with -update.
func TestRunResultFieldsGolden(t *testing.T) {
	var fields []string
	jsonFields(reflect.TypeOf(RunResult{}), "", map[reflect.Type]bool{}, &fields)
	got := fmt.Sprintf("RunRecordVersion %d\n%s\n", RunRecordVersion, strings.Join(fields, "\n"))
	const golden = "testdata/runresult_fields.golden"
	if *update {
		if err := os.WriteFile(golden, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatal(err)
	}
	if got != string(want) {
		t.Fatalf("RunResult's stored shape moved: bump RunRecordVersion and rerun with -update\n--- got\n%s--- want\n%s", got, want)
	}
}

// jsonFields lists the JSON paths and Go types of typ's encoding, one
// leaf per line.
func jsonFields(typ reflect.Type, path string, open map[reflect.Type]bool, out *[]string) {
	switch typ.Kind() {
	case reflect.Pointer:
		jsonFields(typ.Elem(), path, open, out)
		return
	case reflect.Slice, reflect.Array:
		jsonFields(typ.Elem(), path+"[]", open, out)
		return
	case reflect.Map:
		jsonFields(typ.Elem(), path+"{}", open, out)
		return
	case reflect.Struct:
		marshaler := reflect.TypeOf((*json.Marshaler)(nil)).Elem()
		if open[typ] || typ.Implements(marshaler) || reflect.PointerTo(typ).Implements(marshaler) {
			break
		}
		open[typ] = true
		defer delete(open, typ)
		for i := 0; i < typ.NumField(); i++ {
			f := typ.Field(i)
			name, _, _ := strings.Cut(f.Tag.Get("json"), ",")
			if !f.IsExported() || name == "-" {
				continue
			}
			if name == "" {
				name = f.Name
			}
			if f.Anonymous && f.Tag.Get("json") == "" {
				jsonFields(f.Type, path, open, out)
				continue
			}
			jsonFields(f.Type, strings.TrimPrefix(path+"."+name, "."), open, out)
		}
		return
	}
	*out = append(*out, path+" "+typ.String())
}
