// Command bench is the repository's benchmark: four workloads, four
// host-normalised end-to-end metrics, a per-layer ladder, and a traced
// run. README.md explains the measurement design; BENCHMARK.json at the
// repository root declares the metrics and their regression bounds.
//
// It is run from the repository root (bench/run.sh builds it and the
// ccserve binary it drives):
//
//	bash bench/run.sh --workload core-reno-2000 --seed 1 --seconds 24 --trace 0
//
// The last line of standard output is one JSON object with the run's
// verdict and metrics; everything above it is for people.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"time"
)

// options are the command-line settings of one run.
type options struct {
	workload string
	seed     uint64
	window   time.Duration
	trace    bool
	traceOut string
	quick    bool
	ccserve  string
	tmpRoot  string
}

// metric is one named, united value of the final JSON line.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// verdict is the final JSON line.
type verdict struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func main() {
	// The service kernel's spawn target: this binary, exiting at once.
	if len(os.Args) == 2 && os.Args[1] == refSpawnArg {
		return
	}
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(argv []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("bench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		workload = fs.String("workload", "all", "workload to run: one of core-reno-2000, mix-bbr-cubic-400, topo-parkinglot-ecn, serve-small-jobs, or all")
		seed     = fs.Uint64("seed", 1, "input seed: the same seed generates the same scenario documents and job specs")
		seconds  = fs.Float64("seconds", 26, "length of the timed window in seconds")
		trace    = fs.Int("trace", 0, "1 = traced run (per-layer metrics, spans); 0 = timed run (end-to-end metrics)")
		traceOut = fs.String("trace-out", "", "where the traced run writes its spans (default <tmp>/../trace-<workload>.json)")
		quick    = fs.Bool("quick", false, "down-scaled workloads for smoke tests; the numbers mean nothing")
		repeat   = fs.Int("repeat", 0, "run two sets of N timed runs of this build and hold them to the bounds in ./BENCHMARK.json")
		ccserve  = fs.String("ccserve", filepath.Join(".bench_build", "ccserve"), "path of the built cmd/ccserve binary")
		tmpRoot  = fs.String("tmp", filepath.Join(".bench_build", "tmp"), "directory for scratch files (store, scenario documents, ccserve -out)")
	)
	if err := fs.Parse(argv); err != nil {
		return 2
	}
	if *seconds <= 0 {
		fmt.Fprintln(stderr, "bench: -seconds must be positive")
		return 2
	}
	opt := options{
		workload: *workload,
		seed:     *seed,
		window:   time.Duration(*seconds * float64(time.Second)),
		trace:    *trace != 0,
		traceOut: *traceOut,
		quick:    *quick,
		ccserve:  *ccserve,
		tmpRoot:  *tmpRoot,
	}
	known := opt.workload == "all"
	for _, w := range workloadNames {
		known = known || w == opt.workload
	}
	if !known {
		fmt.Fprintf(stderr, "bench: unknown workload %q (have %v and all)\n", opt.workload, workloadNames)
		return 2
	}
	if err := os.MkdirAll(opt.tmpRoot, 0o755); err != nil {
		fmt.Fprintf(stderr, "bench: %v\n", err)
		return 1
	}
	if opt.traceOut == "" {
		opt.traceOut = filepath.Join(filepath.Dir(filepath.Clean(opt.tmpRoot)), "trace-"+opt.workload+".json")
	}

	if *repeat > 0 {
		return repeatMode(*repeat, opt, stdout, stderr)
	}
	if opt.workload == "all" {
		return runAll(opt, stdout, stderr)
	}

	v, err := runWorkload(opt, stdout)
	if err != nil {
		// No verdict line: the run could not measure anything.
		fmt.Fprintf(stderr, "bench: %s: %v\n", opt.workload, err)
		return 1
	}
	line, err := json.Marshal(v)
	if err != nil {
		fmt.Fprintf(stderr, "bench: %v\n", err)
		return 1
	}
	fmt.Fprintf(stdout, "%s\n", line)
	return 0
}

// runWorkload dispatches one workload in one mode and renders its
// verdict. out receives the human-readable report.
func runWorkload(opt options, out io.Writer) (verdict, error) {
	// The machine first: a number is never read without it.
	fmt.Fprintf(out, "# bench %s seed=%d window=%v trace=%v quick=%v\n", opt.workload, opt.seed, opt.window, opt.trace, opt.quick)
	fmt.Fprintf(out, "# nproc=%d GOMAXPROCS=%d %s %s/%s scratch_fs=%s\n",
		runtime.NumCPU(), runtime.GOMAXPROCS(0), runtime.Version(), runtime.GOOS, runtime.GOARCH, fsTypeOf(opt.tmpRoot))

	var r *runReport
	var err error
	if opt.workload == wServe {
		r, err = runServe(opt)
	} else {
		r, err = runSim(opt)
	}
	if err != nil {
		return verdict{}, err
	}
	r.print(out)

	v := verdict{
		Correct:   r.failed == 0 && len(r.ops) > 0,
		Attempted: len(r.ops) + r.attemptedExtra,
		Failed:    r.failed,
		Metrics:   map[string]metric{},
	}
	if opt.trace {
		for _, m := range perLayerMetrics {
			v.Metrics[m.name] = metric{Value: r.layer[m.name], Unit: m.unit}
		}
	} else {
		e2e := r.endToEnd()
		for _, m := range endToEndMetrics {
			v.Metrics[m.name] = metric{Value: e2e[m.name], Unit: m.unit}
		}
	}
	return v, nil
}
