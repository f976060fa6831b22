package core

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"reflect"
	"strings"
	"testing"
	"time"

	"ccatscale/internal/budget"
	"ccatscale/internal/telemetry"
)

var update = flag.Bool("update", false, "rewrite testdata/runresult_fields.golden with RunResult's JSON field set and RunRecordVersion")

// TestRunKeyUnmarshalable: a config that cannot be hashed has no key —
// not a key every other unhashable config would share.
func TestRunKeyUnmarshalable(t *testing.T) {
	cfg := EdgeScale().Build(UniformFlows(2, "reno", DefaultRTT), WithSeed(Seed(7)))
	cfg.BurstLoss = &BurstLossSpec{MeanLoss: math.NaN(), MeanBurstLen: 4}
	if key, err := RunKey(cfg); err == nil {
		t.Fatalf("NaN config was keyed as %q", key)
	}
}

// setNonZero gives one RunConfig field an arbitrary non-zero value.
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
// the governance cleared, so the budget and wall limit a run is
// admitted under — and a live collector — never move it, while every
// other field does.
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
	governed.Collector = noopCollector{}
	if k, _ := RunKey(governed); k != base {
		t.Fatalf("governance moved the run key: %s != %s", k, base)
	}

	typ := reflect.TypeOf(cfg)
	for i := 0; i < typ.NumField(); i++ {
		name := typ.Field(i).Name
		switch name {
		case "Budget", "WallLimit", "Collector":
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
