package main

import (
	"bytes"
	"encoding/json"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"slices"
	"strings"
	"testing"
	"time"

	"ccatscale/internal/core"
	"ccatscale/internal/experiments"
	"ccatscale/internal/report"
	"ccatscale/internal/schema"
	"ccatscale/internal/store"
)

// topoSpec is a small two-bottleneck parking-lot job: ECN at both hops,
// flows entering at different nodes, sized to run in milliseconds.
func topoSpec(name string, seed uint64) schema.JobSpec {
	return schema.JobSpec{
		Name: name,
		Seed: seed,
		Topology: &schema.TopologyDoc{
			Nodes: []string{"a", "b", "c"},
			Links: []schema.LinkDoc{
				{Name: "ab", From: "a", To: "b", RateMbps: 10, DelayMs: 2, BufferBytes: 32768, ECN: true},
				{Name: "bc", From: "b", To: "c", RateMbps: 8, DelayMs: 2, BufferBytes: 32768, ECN: true},
			},
		},
		Flows: []schema.FlowGroup{
			{CCA: "cubic", RTTMs: 20, Count: 1, Path: []string{"ab", "bc"}},
			{CCA: "reno", RTTMs: 20, Count: 1, Path: []string{"bc"}},
		},
		DurationS: 0.5,
	}
}

// TestSubmitTopologyScenario is the service half of the scenario
// acceptance: a topology job admitted over the wire runs through the
// same worker path as dumbbell jobs and commits a schema-versioned
// result to the store.
func TestSubmitTopologyScenario(t *testing.T) {
	cfg := testServerConfig(t, 1)
	s := startServer(t, cfg)
	defer s.Drain()

	resp, rr := submit(t, s, topoSpec("parkinglot", 42))
	if rr.Code != http.StatusCreated {
		t.Fatalf("submit: %d: %s", rr.Code, rr.Body.String())
	}
	final := waitBatch(t, s, resp.Batch, 30*time.Second)
	if final.Jobs[0].State != schema.JobDone {
		t.Fatalf("topology job finished %s (%s), want done", final.Jobs[0].State, final.Jobs[0].Error)
	}
	st, err := store.OpenFS(filepath.Join(cfg.out, "store"), store.OSFS())
	if err != nil {
		t.Fatal(err)
	}
	if !st.Has(final.Jobs[0].Key) {
		t.Fatalf("store is missing topology result %s", final.Jobs[0].Key)
	}

	// Identity: the same document resolves to the same key; a different
	// graph (one rate changed) must not.
	if j := mustBuildJob(t, topoSpec("parkinglot", 42)); j.key != final.Jobs[0].Key {
		t.Fatalf("identical topology keyed %s, want %s", j.key, final.Jobs[0].Key)
	}
	faster := topoSpec("parkinglot", 42)
	faster.Topology.Links[1].RateMbps = 9
	if j := mustBuildJob(t, faster); j.key == final.Jobs[0].Key {
		t.Fatal("changing a link rate did not change the job key")
	}
}

// TestServedTableIsTheScenarioTable: the committed parking-lot document
// run by `reproduce -scenario` and served by ccserve renders one table —
// headers, per-flow rows with the ECN-response column, CE and per-link
// notes — under two titles: both front ends store the run's RunResult
// and render it through experiments.RunTable.
func TestServedTableIsTheScenarioTable(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and runs cmd/reproduce")
	}
	const doc = "../../examples/scenarios/parkinglot.json"
	readTable := func(data []byte, err error) *report.Table {
		t.Helper()
		if err != nil {
			t.Fatal(err)
		}
		tab, err := report.ReadJSON(bytes.NewReader(data))
		if err != nil {
			t.Fatal(err)
		}
		return tab
	}

	out := t.TempDir()
	if msg, err := exec.Command("go", "run", "../reproduce", "-scenario", doc, "-out", out).CombinedOutput(); err != nil {
		t.Fatalf("reproduce -scenario: %v\n%s", err, msg)
	}
	swept := readTable(os.ReadFile(filepath.Join(out, "scenario_parkinglot_seed42.json")))

	data, err := os.ReadFile(doc)
	if err != nil {
		t.Fatal(err)
	}
	scn, err := schema.ParseScenario(data)
	if err != nil {
		t.Fatal(err)
	}
	cfg := testServerConfig(t, 1)
	s := startServer(t, cfg)
	defer s.Drain()
	resp, rr := submit(t, s, scn.JobSpec)
	if rr.Code != http.StatusCreated {
		t.Fatalf("submit: %d: %s", rr.Code, rr.Body.String())
	}
	final := waitBatch(t, s, resp.Batch, 60*time.Second)
	if final.Jobs[0].State != schema.JobDone {
		t.Fatalf("served job finished %s (%s), want done", final.Jobs[0].State, final.Jobs[0].Error)
	}
	st, err := store.OpenFS(filepath.Join(cfg.out, "store"), store.OSFS())
	if err != nil {
		t.Fatal(err)
	}
	payload, err := st.Get(final.Jobs[0].Key)
	if err != nil {
		t.Fatal(err)
	}
	var res core.RunResult
	if err := json.Unmarshal(payload, &res); err != nil {
		t.Fatal(err)
	}
	served := experiments.RunTable(final.Jobs[0].Name, res)

	if !slices.Equal(served.Headers, swept.Headers) || !slices.Equal(served.Notes, swept.Notes) ||
		!slices.EqualFunc(served.Rows, swept.Rows, slices.Equal[[]string]) {
		t.Fatalf("served table differs from reproduce -scenario's\n--- served\n%+v\n--- reproduce\n%+v", served, swept)
	}
	if !slices.Contains(served.Headers, "ecn_resp") || len(served.Notes) < 4 {
		t.Fatalf("served table lost its ECN column or link notes: %+v", served)
	}
}

// TestOneStoreServesBothFrontEnds: `reproduce -scenario` and ccserve key
// a run alike and store it alike, so on one -out each serves what the
// other computed. The document has no envelope knobs (audit policy,
// series interval): those are part of the run, so they move its key.
func TestOneStoreServesBothFrontEnds(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and runs cmd/reproduce")
	}
	bin := filepath.Join(t.TempDir(), "reproduce")
	if msg, err := exec.Command("go", "build", "-o", bin, "../reproduce").CombinedOutput(); err != nil {
		t.Fatalf("building reproduce: %v\n%s", err, msg)
	}
	spec := testSpec("both", 9)
	doc, err := (&schema.Scenario{JobSpec: spec}).Encode()
	if err != nil {
		t.Fatal(err)
	}
	docPath := filepath.Join(t.TempDir(), "both.json")
	if err := os.WriteFile(docPath, doc, 0o644); err != nil {
		t.Fatal(err)
	}
	reproduce := func(out string) string {
		t.Helper()
		msg, err := exec.Command(bin, "-scenario", docPath, "-out", out).CombinedOutput()
		if err != nil {
			t.Fatalf("reproduce -scenario: %v\n%s", err, msg)
		}
		return string(msg)
	}

	// reproduce computes, ccserve serves.
	cfg := testServerConfig(t, 1)
	reproduce(cfg.out)
	s := startServer(t, cfg)
	st := runsDone(t, s, spec)
	if !st.Cached {
		t.Fatalf("ccserve recomputed the run reproduce stored: %+v", st)
	}
	if n := s.reg.Counter("runs_started").Load(); n != 0 {
		t.Fatalf("ccserve started %d runs for a stored run, want 0", n)
	}
	s.Drain()

	// ccserve computes, reproduce serves.
	cfg = testServerConfig(t, 1)
	s = startServer(t, cfg)
	if st := runsDone(t, s, spec); st.Cached {
		t.Fatalf("fresh directory served the run from the store: %+v", st)
	}
	s.Drain()
	if out := reproduce(cfg.out); !strings.Contains(out, "(1 of 1 runs from store)") {
		t.Fatalf("reproduce recomputed the run ccserve stored:\n%s", out)
	}
}

// TestSubmitTopologyRejections: graph defects bounce at admission with
// 400, whether the structural schema check or the compile-time graph
// check catches them — nothing un-runnable may be admitted.
func TestSubmitTopologyRejections(t *testing.T) {
	s := startServer(t, testServerConfig(t, 0))
	defer s.Drain()

	zeroRate := topoSpec("a", 1)
	zeroRate.Topology.Links[0].RateMbps = 0
	if _, rr := submit(t, s, zeroRate); rr.Code != http.StatusBadRequest {
		t.Fatalf("zero-capacity link: %d, want 400", rr.Code)
	}

	unreachable := topoSpec("a", 1)
	unreachable.Topology.Nodes = append(unreachable.Topology.Nodes, "orphan")
	if _, rr := submit(t, s, unreachable); rr.Code != http.StatusBadRequest {
		t.Fatalf("unreachable node: %d, want 400", rr.Code)
	}

	brokenChain := topoSpec("a", 1)
	brokenChain.Flows[0].Path = []string{"bc", "ab"}
	if _, rr := submit(t, s, brokenChain); rr.Code != http.StatusBadRequest {
		t.Fatalf("broken path chain: %d, want 400", rr.Code)
	}

	noPath := topoSpec("a", 1)
	noPath.Flows[0].Path = nil
	if _, rr := submit(t, s, noPath); rr.Code != http.StatusBadRequest {
		t.Fatalf("missing path: %d, want 400", rr.Code)
	}
}
