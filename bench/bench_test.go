package main

import (
	"bytes"
	"encoding/json"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"ccatscale/internal/core"
)

// TestMain lets the test binary stand in for the harness binary as the
// service kernel's spawn target.
func TestMain(m *testing.M) {
	if len(os.Args) == 2 && os.Args[1] == refSpawnArg {
		return
	}
	os.Exit(m.Run())
}

func TestGeneratorDeterminism(t *testing.T) {
	for _, w := range []string{wCoreReno, wMixLoss, wTopoECN} {
		doc := func(seed uint64) []byte {
			scn, err := scenarioFor(w, seed, false)
			if err != nil {
				t.Fatal(err)
			}
			data, err := scn.Encode()
			if err != nil {
				t.Fatal(err)
			}
			return data
		}
		if !bytes.Equal(doc(7), doc(7)) {
			t.Errorf("%s: the same seed generated different documents", w)
		}
		if bytes.Equal(doc(7), doc(8)) {
			t.Errorf("%s: different seeds generated the same document", w)
		}
	}
	enc := func(seed uint64, client, i int) string {
		data, err := json.Marshal(serveJob(seed, client, i))
		if err != nil {
			t.Fatal(err)
		}
		return string(data)
	}
	if enc(7, 1, 3) != enc(7, 1, 3) {
		t.Error("the same seed generated different job specs")
	}
	for _, other := range []string{enc(8, 1, 3), enc(7, 0, 3), enc(7, 1, 4)} {
		if other == enc(7, 1, 3) {
			t.Errorf("distinct (seed, client, index) generated the same job spec %s", other)
		}
	}
	if _, err := scenarioFor(wServe, 1, false); err == nil {
		t.Error("the serving workload has no scenario document, want an error")
	}
}

func TestQuartilesMatchPython(t *testing.T) {
	// statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
	xs := []float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1}
	q1, q3 := quartiles(xs)
	if q1 != 2.75 || q3 != 8.25 || median(xs) != 5.5 {
		t.Errorf("quartiles = %v, %v, median %v; want 2.75, 8.25, 5.5", q1, q3, median(xs))
	}
	if got, want := spread(xs), 5.5/5.5; got != want {
		t.Errorf("spread = %v, want %v", got, want)
	}
	// statistics.quantiles([1, 2, 4], n=4) == [1.0, 2.0, 4.0]
	if q1, q3 := quartiles([]float64{4, 1, 2}); q1 != 1 || q3 != 4 {
		t.Errorf("quartiles of three = %v, %v; want 1, 4", q1, q3)
	}
}

func TestTailPercentile(t *testing.T) {
	ramp := func(n int) []float64 {
		xs := make([]float64, n)
		for i := range xs {
			xs[i] = float64(i)
		}
		return xs
	}
	for _, c := range []struct {
		n   int
		pct float64
	}{
		{8, 50}, {39, 50}, {40, 75}, {99, 75}, {100, 90}, {200, 95}, {1000, 99}, {9999, 99}, {10000, 99.9}, {100000, 99.99},
	} {
		pct, v := tailPercentile(ramp(c.n))
		if pct != c.pct {
			t.Errorf("%d samples: highest percentile with ten beyond it = p%g, want p%g", c.n, pct, c.pct)
		}
		if beyond := float64(c.n-1) - v; pct > 50 && beyond < 9 {
			t.Errorf("%d samples: p%g = %v leaves only %v samples beyond it", c.n, pct, v, beyond)
		}
	}
}

func TestNormalisation(t *testing.T) {
	nominal := time.Duration(RefNominalMs * float64(time.Millisecond))
	if f := cpuKernel.factor(nominal, nominal); math.Abs(f-1) > 1e-12 {
		t.Errorf("host factor at nominal speed = %v, want 1", f)
	}
	if f := cpuKernel.factor(nominal, 2*nominal); math.Abs(f-1.5) > 1e-12 {
		t.Errorf("host factor of slices at 1× and 2× nominal = %v, want 1.5", f)
	}
	r := &runReport{
		setupNorm: []float64{0.003, 0.001, 0.002},
		ops: []opSample{
			{rawMs: 3000, factor: 1.5, work: 6e6},
			{rawMs: 1000, factor: 1.0, work: 6e6},
			{rawMs: 4000, factor: 1.0, work: 6e6},
		},
		peakRSSMB: 42,
	}
	got := r.endToEnd()
	want := map[string]float64{
		"setup_s":         0.002,
		"op_norm_p50_ms":  2000, // normalised: 2000, 1000, 4000
		"work_norm_per_s": 3e6,  // median of 3e6, 6e6, 1.5e6 events per normalised second
		"peak_rss_mb":     42,
	}
	for k, w := range want {
		if math.Abs(got[k]-w) > 1e-9*w {
			t.Errorf("%s = %v, want %v", k, got[k], w)
		}
	}
	if worseBy(100, 110, "lower") != 0.1 || worseBy(100, 90, "higher") != 0.1 || worseBy(100, 90, "lower") != -0.1 {
		t.Error("worseBy does not follow the metric's direction")
	}
}

func TestFingerprintStability(t *testing.T) {
	run := func(seed uint64) core.RunResult {
		scn, err := scenarioFor(wTopoECN, seed, true)
		if err != nil {
			t.Fatal(err)
		}
		b, err := core.NewScenarioBuilder(scn)
		if err != nil {
			t.Fatal(err)
		}
		res, err := core.Run(b.RunConfig())
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	a, b := run(3), run(3)
	if fingerprint(a) != fingerprint(b) {
		t.Errorf("two runs of one seed: fingerprints %s and %s", fingerprint(a), fingerprint(b))
	}
	if fingerprint(a) == fingerprint(run(4)) {
		t.Error("runs of different seeds share a fingerprint")
	}
	moved := a
	moved.Flows = append([]core.FlowResult(nil), a.Flows...)
	moved.Flows[len(moved.Flows)-1].Retransmissions++
	if fingerprint(a) == fingerprint(moved) {
		t.Error("one more retransmission on one flow did not move the fingerprint")
	}
}

func TestSelfTimes(t *testing.T) {
	spans := []span{
		{ID: 1, Parent: 0, Name: "op", StartNs: 0, EndNs: 100},
		{ID: 2, Parent: 1, Name: "a", StartNs: 10, EndNs: 40},
		{ID: 3, Parent: 1, Name: "b", StartNs: 30, EndNs: 60}, // overlaps a
		{ID: 4, Parent: 3, Name: "c", StartNs: 35, EndNs: 45},
	}
	got := selfTimes(spans)
	want := map[string]int64{"op": 50, "a": 30, "b": 20, "c": 10}
	for k, w := range want {
		if got[k] != w {
			t.Errorf("self time of %s = %d, want %d", k, got[k], w)
		}
	}
	var tr *tracer
	tr.end(tr.start("x", 0, 0)) // a nil tracer records nothing and does not panic
	tr.count(0, "k", 1)
}

// TestDeclarationMatchesHarness keeps BENCHMARK.json and the metric
// tables in this package in step.
func TestDeclarationMatchesHarness(t *testing.T) {
	decl, err := readBenchmarkDecl(filepath.Join("..", benchmarkFile))
	if err != nil {
		t.Fatal(err)
	}
	if len(decl.Workloads) != len(workloadNames) {
		t.Fatalf("%d workloads declared, harness has %d", len(decl.Workloads), len(workloadNames))
	}
	for i, w := range decl.Workloads {
		if w.Name != workloadNames[i] {
			t.Errorf("workload %d declared %q, harness has %q", i, w.Name, workloadNames[i])
		}
	}
	if len(decl.EndToEnd) != len(endToEndMetrics) {
		t.Fatalf("%d end-to-end metrics declared, harness prints %d", len(decl.EndToEnd), len(endToEndMetrics))
	}
	for i, m := range decl.EndToEnd {
		if h := endToEndMetrics[i]; m.Name != h.name || m.Unit != h.unit {
			t.Errorf("end-to-end metric %d declared %s [%s], harness prints %s [%s]", i, m.Name, m.Unit, h.name, h.unit)
		}
		if m.Bound <= 0 || m.Bound > 0.25 {
			t.Errorf("%s: bound %v outside (0, 0.25]", m.Name, m.Bound)
		}
	}
	if len(decl.PerLayer) != len(perLayerMetrics) {
		t.Fatalf("%d per-layer metrics declared, harness prints %d", len(decl.PerLayer), len(perLayerMetrics))
	}
	for i, m := range decl.PerLayer {
		if h := perLayerMetrics[i]; m.Name != h.name || m.Unit != h.unit {
			t.Errorf("per-layer metric %d declared %s [%s], harness prints %s [%s]", i, m.Name, m.Unit, h.name, h.unit)
		}
	}
}

// TestQuickSmoke runs every workload down-scaled, timed and traced,
// through the same entry point the command line uses.
func TestQuickSmoke(t *testing.T) {
	bin := filepath.Join(t.TempDir(), "ccserve")
	if out, err := exec.Command("go", "build", "-o", bin, "ccatscale/cmd/ccserve").CombinedOutput(); err != nil {
		t.Fatalf("building ccserve: %v\n%s", err, out)
	}
	for _, w := range workloadNames {
		for _, mode := range []string{"0", "1"} {
			if mode == "1" && testing.Short() {
				continue
			}
			w, mode := w, mode
			t.Run(w+"/trace="+mode, func(t *testing.T) {
				tmp := t.TempDir()
				traceOut := filepath.Join(tmp, "trace.json")
				var stdout, stderr bytes.Buffer
				code := run([]string{"-workload", w, "-quick", "-seconds", "1", "-seed", "5", "-trace", mode,
					"-ccserve", bin, "-tmp", filepath.Join(tmp, "scratch"), "-trace-out", traceOut}, &stdout, &stderr)
				if code != 0 {
					t.Fatalf("exit %d\n%s\n%s", code, stdout.String(), stderr.String())
				}
				lines := strings.Split(strings.TrimSpace(stdout.String()), "\n")
				var v verdict
				if err := json.Unmarshal([]byte(lines[len(lines)-1]), &v); err != nil {
					t.Fatalf("last line is not a verdict: %v\n%s", err, stdout.String())
				}
				if !v.Correct || v.Failed != 0 || v.Attempted < 1 {
					t.Errorf("verdict %+v\n%s", v, stdout.String())
				}
				defs := endToEndMetrics
				if mode == "1" {
					defs = perLayerMetrics
				}
				if len(v.Metrics) != len(defs) {
					t.Errorf("%d metrics printed, want %d", len(v.Metrics), len(defs))
				}
				for _, d := range defs {
					m, ok := v.Metrics[d.name]
					if !ok || m.Unit != d.unit || math.IsNaN(m.Value) || math.IsInf(m.Value, 0) {
						t.Errorf("metric %s [%s]: printed %+v (present=%v)", d.name, d.unit, m, ok)
					}
				}
				if mode == "0" {
					for _, d := range defs {
						if v.Metrics[d.name].Value <= 0 {
							t.Errorf("end-to-end metric %s = %v, want > 0", d.name, v.Metrics[d.name].Value)
						}
					}
					return
				}
				data, err := os.ReadFile(traceOut)
				if err != nil {
					t.Fatal(err)
				}
				var doc struct {
					Spans []span `json:"spans"`
				}
				if err := json.Unmarshal(data, &doc); err != nil {
					t.Fatal(err)
				}
				names := map[string]bool{}
				for _, s := range doc.Spans {
					names[s.Name] = true
					if s.ID != 1 && (s.Parent < 1 || s.Parent >= s.ID) {
						t.Errorf("span %d %q: parent %d is not an earlier span", s.ID, s.Name, s.Parent)
					}
					if s.EndNs < s.StartNs {
						t.Errorf("span %d %q ends before it starts", s.ID, s.Name)
					}
				}
				for _, want := range []string{"traced-run", "op", "core.Run", "layer/sim.ns_per_event_deep", "layer/ccserve", "ccserve.submit", "ccserve.events"} {
					if !names[want] {
						t.Errorf("no %q span recorded", want)
					}
				}
			})
		}
	}
}
