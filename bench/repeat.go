package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"os/exec"
	"strings"
)

// benchmarkFile is where the metric bounds live; -repeat reads them
// from the current directory, the repository root.
const benchmarkFile = "BENCHMARK.json"

// benchmarkDecl is the part of BENCHMARK.json this program reads.
type benchmarkDecl struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []boundedMetric `json:"end_to_end"`
	PerLayer []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"per_layer"`
}

type boundedMetric struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"`
}

func readBenchmarkDecl(path string) (*benchmarkDecl, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var d benchmarkDecl
	if err := json.Unmarshal(data, &d); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &d, nil
}

// childRun is one run of this program as a child process: its own
// process, so its own peak RSS.
type childRun struct {
	verdict verdict
	info    map[string]string // the "name value" lines of the report
}

// runChild re-executes this binary with args and parses its report.
// echo, when not nil, receives the child's whole standard output.
func runChild(args []string, echo io.Writer, stderr io.Writer) (*childRun, error) {
	self, err := os.Executable()
	if err != nil {
		return nil, err
	}
	cmd := exec.Command(self, args...)
	var out bytes.Buffer
	cmd.Stdout = &out
	cmd.Stderr = stderr
	runErr := cmd.Run()
	if echo != nil {
		echo.Write(out.Bytes())
	}
	if runErr != nil {
		return nil, fmt.Errorf("%s %s: %w", self, strings.Join(args, " "), runErr)
	}
	lines := strings.Split(strings.TrimSpace(out.String()), "\n")
	c := &childRun{info: map[string]string{}}
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &c.verdict); err != nil {
		return nil, fmt.Errorf("child's last line is not a verdict: %w", err)
	}
	for _, l := range lines[:len(lines)-1] {
		if f := strings.Fields(l); len(f) >= 2 && !strings.HasPrefix(l, "#") {
			c.info[f[0]] = f[1]
		}
	}
	return c, nil
}

// childArgs renders the options a child needs to repeat this run's
// settings on one workload with one seed.
func childArgs(opt options, workload string, seed uint64) []string {
	args := []string{
		"-workload", workload,
		"-seed", fmt.Sprint(seed),
		"-seconds", fmt.Sprint(opt.window.Seconds()),
		"-ccserve", opt.ccserve,
		"-tmp", opt.tmpRoot,
	}
	if opt.trace {
		args = append(args, "-trace", "1")
	}
	if opt.quick {
		args = append(args, "-quick")
	}
	return args
}

func selectedWorkloads(opt options) []string {
	if opt.workload == "all" {
		return workloadNames
	}
	return []string{opt.workload}
}

// runAll runs every workload, each in its own process.
func runAll(opt options, stdout, stderr io.Writer) int {
	for _, w := range workloadNames {
		if _, err := runChild(childArgs(opt, w, opt.seed), stdout, stderr); err != nil {
			fmt.Fprintf(stderr, "bench: %v\n", err)
			return 1
		}
	}
	return 0
}

// worseBy returns by what share of a's value b is worse than a, given
// the metric's direction; negative when b is better.
func worseBy(a, b float64, better string) float64 {
	if better == "higher" {
		return (a - b) / a
	}
	return (b - a) / a
}

// repeatMode is the tool behind the acceptance rule "two sets of runs
// of one commit agree within the benchmark's own bounds". It runs two
// sets of n timed runs per workload, run i of either set with seed
// base+i, and prints, per end-to-end metric, each set's median,
// quartiles and spread against the bound. It fails when a set's spread
// exceeds the bound (set-up time excepted: its spread is reported, its
// medians are held to the bound), when the medians of the two sets
// disagree by more than the bound, when any run had a failed op, or
// when two runs of one seed disagree on the fingerprint, the event
// count, or — by more than 0.1 % — the allocation count.
func repeatMode(n int, opt options, stdout, stderr io.Writer) int {
	decl, err := readBenchmarkDecl(benchmarkFile)
	if err != nil {
		fmt.Fprintf(stderr, "bench: -repeat needs the bounds: %v\n", err)
		return 1
	}
	opt.trace = false
	bad := 0
	fail := func(format string, a ...any) {
		bad++
		fmt.Fprintf(stdout, "FAIL "+format+"\n", a...)
	}
	for _, w := range selectedWorkloads(opt) {
		var sets [2][]*childRun
		for s := range sets {
			for i := 0; i < n; i++ {
				c, err := runChild(childArgs(opt, w, opt.seed+uint64(i)), nil, stderr)
				if err != nil {
					fmt.Fprintf(stderr, "bench: %v\n", err)
					return 1
				}
				line := fmt.Sprintf("# %s set %d run %d seed %d: ops=%s failed=%d fingerprint=%s host_factor_p50=%s",
					w, s+1, i+1, opt.seed+uint64(i), c.info["ops"], c.verdict.Failed, c.info["fingerprint"], c.info["host_factor_p50"])
				for _, m := range decl.EndToEnd {
					line += fmt.Sprintf(" %s=%.6g", m.Name, c.verdict.Metrics[m.Name].Value)
				}
				fmt.Fprintln(stdout, line)
				if !c.verdict.Correct {
					fail("%s set %d run %d: %d of %d ops failed", w, s+1, i+1, c.verdict.Failed, c.verdict.Attempted)
				}
				sets[s] = append(sets[s], c)
			}
		}
		for i := 0; i < n; i++ {
			a, b := sets[0][i].info, sets[1][i].info
			for _, k := range []string{"fingerprint", "events_per_op"} {
				if a[k] != b[k] {
					fail("%s seed %d: %s differs between sets: %s vs %s", w, opt.seed+uint64(i), k, a[k], b[k])
				}
			}
			var x, y float64
			fmt.Sscan(a["allocs_per_op"], &x)
			fmt.Sscan(b["allocs_per_op"], &y)
			if x > 0 && math.Abs(x-y)/x > 0.001 {
				fail("%s seed %d: allocs_per_op differs by more than 0.1%%: %v vs %v", w, opt.seed+uint64(i), x, y)
			}
		}
		fmt.Fprintf(stdout, "## %s: two sets of %d runs\n", w, n)
		fmt.Fprintf(stdout, "%-18s %-4s %14s %14s %14s %8s | %14s %14s %14s %8s | %8s %6s\n",
			"metric", "unit", "A.q1", "A.median", "A.q3", "A.spread", "B.q1", "B.median", "B.q3", "B.spread", "B-worse", "bound")
		// The raw counterparts of the two timing metrics ride along,
		// unjudged: the gap between their spread and the normalised
		// one is what the reference kernel buys.
		rows := append([]boundedMetric(nil), decl.EndToEnd...)
		rows = append(rows,
			boundedMetric{Name: "raw_op_p50_ms", Unit: "ms", Better: "lower"},
			boundedMetric{Name: "raw_work_per_s", Unit: "1/s", Better: "higher"})
		for _, m := range rows {
			var med, sp [2]float64
			row := fmt.Sprintf("%-18s %-4s", m.Name, m.Unit)
			for s := range sets {
				xs := make([]float64, n)
				for i, c := range sets[s] {
					if v, ok := c.verdict.Metrics[m.Name]; ok {
						xs[i] = v.Value
					} else {
						fmt.Sscan(c.info[m.Name], &xs[i])
					}
				}
				q1, q3 := quartiles(xs)
				med[s], sp[s] = median(xs), spread(xs)
				row += fmt.Sprintf(" %14.4f %14.4f %14.4f %7.2f%% |", q1, med[s], q3, sp[s]*100)
			}
			diff := worseBy(med[0], med[1], m.Better)
			if m.Bound == 0 {
				fmt.Fprintf(stdout, "%s %7.2f%%      -\n", row, diff*100)
				continue
			}
			fmt.Fprintf(stdout, "%s %7.2f%% %5.0f%%\n", row, diff*100, m.Bound*100)
			if math.Abs(diff) > m.Bound {
				fail("%s %s: set medians disagree by %.2f%% > bound %.0f%%", w, m.Name, math.Abs(diff)*100, m.Bound*100)
			}
			if m.Name != "setup_s" && (sp[0] > m.Bound || sp[1] > m.Bound) {
				fail("%s %s: spread %.2f%% / %.2f%% > bound %.0f%%", w, m.Name, sp[0]*100, sp[1]*100, m.Bound*100)
			}
		}
	}
	if bad > 0 {
		fmt.Fprintf(stdout, "repeat: %d disagreements\n", bad)
		return 1
	}
	fmt.Fprintln(stdout, "repeat: the sets agree within every bound")
	return 0
}
