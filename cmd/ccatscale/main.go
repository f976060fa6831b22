// Command ccatscale regenerates one table or figure of "Revisiting TCP
// Congestion Control Throughput Models & Fairness Properties At Scale"
// (IMC 2021) on the simulated testbed per invocation:
//
//	ccatscale <experiment> [flags]
//
// The experiments are the entries of internal/experiments' catalog plus
// run, timeseries and replay; `ccatscale help` lists them with every
// flag.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"strconv"
	"strings"
	"time"

	"ccatscale/internal/core"
	"ccatscale/internal/experiments"
	"ccatscale/internal/report"
	"ccatscale/internal/sim"
	"ccatscale/internal/units"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(argv []string, stdout, stderr io.Writer) int {
	if len(argv) < 1 {
		usage(stderr)
		return 2
	}
	cmd := argv[0]
	fs := flag.NewFlagSet(cmd, flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		scale    = fs.Int("scale", 10, "CoreScale divisor (10 → 1 Gbps / 100–500 flows)")
		full     = fs.Bool("full", false, "paper-scale CoreScale (10 Gbps, 1000–5000 flows; minutes per table)")
		edge     = fs.Bool("edge", false, "run the EdgeScale setting")
		rttFlag  = fs.String("rtt", "", "restrict fairness sweeps to one base RTT (e.g. 20ms)")
		seed     = fs.Uint64("seed", 1, "experiment seed")
		parallel = fs.Int("parallel", runtime.GOMAXPROCS(0), "concurrent runs")
		csv      = fs.Bool("csv", false, "emit CSV")
		ccaName  = fs.String("cca", "reno", "CCA for the intra, rttmix and churn experiments")
		vs       = fs.String("vs", "reno", "competitor for fig8 (reno|cubic)")
		flowSpec = fs.String("flows", "8xreno@20ms", "custom run flows, e.g. 4xbbr@20ms,4xcubic@100ms")
		duration = fs.Duration("duration", 0, "override measurement window (max length when -converge is set)")
		converge = fs.Duration("converge", 0, "enable the paper's early-stop rule with this window (e.g. 20s)")
		aqm      = fs.String("aqm", "", "bottleneck discipline: droptail (default) or codel")
		rateBps  = fs.Int64("rate-bps", 0, "override bottleneck rate in bits/sec (replay)")
		bufBytes = fs.Int64("buffer-bytes", 0, "override bottleneck buffer in bytes (replay)")
		warmup   = fs.Duration("warmup", 0, "override warm-up exclusion window")
		stagger  = fs.Duration("stagger", -1, "override flow start-stagger window")
		burst    = fs.String("burst", "", "Gilbert–Elliott burst loss \"meanLoss,meanBurstLen\" (e.g. 0.005,8)")
		outage   = fs.String("outage", "", "link outage schedule \"start,down,period,count[,hold]\" (e.g. 2s,1s,10s,3)")
		panicAt  = fs.Duration("panic-at", 0, "inject a panic at this virtual time (supervisor drill)")
		auditPol = fs.String("audit", "", "invariant auditing: off (default), warn, or strict")
		auditAt  = fs.Duration("audit-drill", 0, "corrupt queue accounting at this virtual time (auditor drill; needs -audit)")
		inFile   = fs.String("in", "", "failure record for the replay experiment")
	)
	if err := fs.Parse(argv[1:]); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return 0
		}
		return 2
	}
	fail := func(err error) int {
		fmt.Fprintln(stderr, "ccatscale:", err)
		return 1
	}
	if *scale < 1 {
		fmt.Fprintln(stderr, "ccatscale: -scale must be at least 1")
		return 2
	}

	// A catalog entry declares its own run length and RTT set; the flags
	// below override what it declares.
	setting := pickSetting(*edge, *full, *scale)
	args := experiments.Args{Seed: *seed, CCA: *ccaName, Vs: *vs}
	entry, isEntry := experiments.Lookup(cmd)
	if isEntry {
		setting, args = entry.Bind(setting, args)
	}
	if *duration > 0 {
		setting.Duration = sim.Duration(*duration)
	}
	if *converge > 0 {
		setting.Converge = sim.Duration(*converge)
	}
	setting.AQM = *aqm
	if *rateBps > 0 {
		setting.Rate = units.Bandwidth(*rateBps)
	}
	if *bufBytes > 0 {
		setting.Buffer = units.ByteCount(*bufBytes)
	}
	if *warmup > 0 {
		setting.Warmup = sim.Duration(*warmup)
	}
	if *stagger >= 0 {
		setting.Stagger = sim.Duration(*stagger)
	}
	if *burst != "" {
		spec, err := core.ParseBurstLoss(*burst)
		if err != nil {
			return fail(err)
		}
		setting.BurstLoss = spec
	}
	if *outage != "" {
		spec, err := core.ParseOutage(*outage)
		if err != nil {
			return fail(err)
		}
		setting.Outage = spec
	}
	if *panicAt > 0 {
		setting.FaultPanicAt = sim.Duration(*panicAt)
	}
	setting.Audit = *auditPol
	if *auditAt > 0 {
		setting.AuditDrillAt = sim.Duration(*auditAt)
	}
	if *rttFlag != "" {
		d, err := time.ParseDuration(*rttFlag)
		if err != nil {
			return fail(err)
		}
		args.RTTs = []sim.Time{sim.Duration(d)}
	}

	start := time.Now()
	var tab *report.Table
	var err error
	switch cmd {
	case "help", "-h", "--help":
		usage(stderr)
		return 0
	case "run":
		tab, err = runCustom(setting, *flowSpec, *seed)
	case "timeseries":
		err = runTimeseries(stdout, setting, *flowSpec, *seed)
	case "replay":
		tab, err = runReplay(stderr, *inFile)
	default:
		if !isEntry {
			fmt.Fprintf(stderr, "unknown experiment %q\n\n", cmd)
			usage(stderr)
			return 2
		}
		var results []core.RunResult
		results, err = core.RunManyCtx(context.Background(), entry.Configs(setting, args),
			core.SweepOptions{Parallelism: *parallel})
		if err == nil {
			tab = entry.Table(setting, args, results)
		}
	}
	if err != nil {
		return fail(err)
	}
	if tab == nil { // timeseries streamed its CSV itself
		return 0
	}
	if *csv {
		err = tab.WriteCSV(stdout)
	} else {
		err = tab.WriteText(stdout)
		fmt.Fprintf(stdout, "\n[%s, seed %d, wall %s]\n", setting.Name, *seed, time.Since(start).Round(time.Millisecond))
	}
	if err != nil {
		return fail(err)
	}
	return 0
}

func pickSetting(edge, full bool, scale int) core.Setting {
	switch {
	case edge:
		return core.EdgeScale()
	case full:
		return core.CoreScale()
	default:
		return core.CoreScaleScaled(scale)
	}
}

// runTimeseries runs one custom experiment and streams the per-CCA
// goodput time series as CSV to w.
func runTimeseries(w io.Writer, s core.Setting, spec string, seed uint64) error {
	flows, err := parseFlows(spec)
	if err != nil {
		return err
	}
	cfg := s.Build(flows, core.WithSeed(core.Seed(seed)))
	cfg.SeriesInterval = sim.Second
	res, err := core.Run(cfg)
	if err != nil {
		return err
	}
	fmt.Fprint(w, "seconds")
	for _, n := range res.SeriesNames {
		fmt.Fprintf(w, ",%s_bps", n)
	}
	fmt.Fprintln(w)
	for _, p := range res.Series {
		fmt.Fprintf(w, "%.3f", p.At.Seconds())
		for _, r := range p.Rates {
			fmt.Fprintf(w, ",%d", int64(r))
		}
		fmt.Fprintln(w)
	}
	return nil
}

// runCustom executes one run with a flow spec like
// "4xbbr@20ms,4xcubic@100ms".
func runCustom(s core.Setting, spec string, seed uint64) (*report.Table, error) {
	flows, err := parseFlows(spec)
	if err != nil {
		return nil, err
	}
	res, err := core.Run(s.Build(flows, core.WithSeed(core.Seed(seed))))
	if err != nil {
		return nil, err
	}
	title := fmt.Sprintf("Custom run: %s (JFI %.3f, util %.3f, drops %d, burstiness %.3f)",
		spec, res.JFI(), res.Utilization, res.TotalDrops, res.DropBurstiness)
	if res.AuditViolations > 0 {
		title += fmt.Sprintf(" [AUDIT: %d violations, first: %v]",
			res.AuditViolations, res.AuditViolationSample[0].Error())
	}
	return flowTable(title, res), nil
}

// runReplay re-executes a failed run from the JSON failure record
// (<key>.failed.json) that reproduce and ccserve park beside the store. A deterministic failure
// reproduces exactly; a repaired one yields the per-flow table.
func runReplay(stderr io.Writer, path string) (*report.Table, error) {
	if path == "" {
		return nil, fmt.Errorf("replay needs -in <key>.failed.json")
	}
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	re, err := core.ReadRunError(f)
	if err != nil {
		return nil, err
	}
	fmt.Fprintf(stderr, "replaying: %s (seed %d, failed at vt=%v after %d events)\n",
		re.Reason, re.Seed, re.VirtualTime, re.Events)
	res, err := core.Run(re.Config)
	if err != nil {
		return nil, fmt.Errorf("failure reproduced: %w", err)
	}
	title := fmt.Sprintf("Replay of %s: no failure this time (JFI %.3f, util %.3f, drops %d)",
		path, res.JFI(), res.Utilization, res.TotalDrops)
	return flowTable(title, res), nil
}

// flowTable is the per-flow table of one run.
func flowTable(title string, res core.RunResult) *report.Table {
	tab := report.NewTable(title, "flow", "cca", "rtt", "goodput", "loss%", "halve%", "meanRTT")
	for i, f := range res.Flows {
		tab.AddRow(i, f.Spec.CCA, f.Spec.RTT.String(), f.Goodput.String(),
			f.LossRate*100, f.HalvingRate*100, f.MeanRTT.String())
	}
	return tab
}

// parseFlows parses "NxCCA@RTT[,...]".
func parseFlows(spec string) ([]core.FlowSpec, error) {
	var out []core.FlowSpec
	for _, part := range strings.Split(spec, ",") {
		part = strings.TrimSpace(part)
		xi := strings.Index(part, "x")
		ai := strings.Index(part, "@")
		if xi < 0 || ai < 0 || ai < xi {
			return nil, fmt.Errorf("bad flow spec %q (want NxCCA@RTT)", part)
		}
		n, err := strconv.Atoi(part[:xi])
		if err != nil || n <= 0 {
			return nil, fmt.Errorf("bad flow count in %q", part)
		}
		name := part[xi+1 : ai]
		d, err := time.ParseDuration(part[ai+1:])
		if err != nil {
			return nil, fmt.Errorf("bad RTT in %q: %v", part, err)
		}
		for i := 0; i < n; i++ {
			out = append(out, core.FlowSpec{CCA: name, RTT: sim.Duration(d)})
		}
	}
	return out, nil
}

// usage lists the catalog's entries, so an experiment added there is
// documented here.
func usage(w io.Writer) {
	fmt.Fprint(w, `ccatscale — reproduce "Revisiting TCP CC Throughput Models & Fairness At Scale" (IMC'21)

usage: ccatscale <experiment> [flags]

experiments:
`)
	for _, e := range experiments.Catalog {
		fmt.Fprintf(w, "  %-11s %s\n", e.Name, e.Desc)
	}
	fmt.Fprint(w, `  run         one custom run of -flows 4xbbr@20ms,4xreno@20ms
  timeseries  per-CCA goodput series of a custom run (-flows), as CSV
  replay      re-execute a failed run from its failure record: -in <key>.failed.json

CCAs: reno, cubic, bbr, vegas, bbr2 (vegas and bbr2 extend beyond the
paper's three measured algorithms).

flags: -scale N | -full | -edge | -rtt 20ms | -seed N | -parallel N | -csv |
-duration 60s | -converge 20s | -aqm codel | -cca reno (intra/rttmix/churn) |
-vs cubic (fig8)

fault injection (run/burstloss/outage): -burst meanLoss,meanBurstLen |
-outage start,down,period,count[,hold] | -panic-at 5s (supervisor drill);
replay overrides: -rate-bps N | -buffer-bytes N | -warmup 15s | -stagger 5s

self-verification: -audit warn|strict enables the invariant auditor
(conservation ledgers, TCP/CCA state checks); -audit-drill 5s corrupts
queue accounting at that virtual time to prove the ledger catches it.
`)
}
