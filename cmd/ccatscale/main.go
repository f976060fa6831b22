// Command ccatscale regenerates the tables and figures of "Revisiting
// TCP Congestion Control Throughput Models & Fairness Properties At
// Scale" (IMC 2021) on the simulated testbed.
//
// Usage:
//
//	ccatscale <experiment> [flags]
//
// Experiments:
//
//	table1      Mathis constant C via packet-loss vs CWND-halving rate
//	fig2        Mathis median prediction error per flow count
//	fig3        packet-loss to CWND-halving ratio per flow count
//	burstiness  Goh–Barabási drop burstiness (edge vs core)
//	fig4        BBR intra-CCA fairness (JFI) at 20/100/200 ms
//	intra       intra-CCA fairness for any CCA (--cca)
//	fig5        Cubic share vs equal NewReno
//	fig6        one BBR flow vs NewReno crowd
//	fig7        one BBR flow vs Cubic crowd
//	fig8        BBR share vs equal NewReno/Cubic (--vs)
//	run         one custom run (--flows spec)
//
// Common flags (after the experiment name):
//
//	-scale N    CoreScale divisor: 10 → 1 Gbps/100–500 flows (default 10)
//	-full       use the paper's full CoreScale (10 Gbps, 1000–5000 flows)
//	-edge       run the EdgeScale setting instead of CoreScale
//	-rtt D      restrict fairness sweeps to one base RTT (e.g. 20ms)
//	-seed N     experiment seed (default 1)
//	-parallel N concurrent runs (default GOMAXPROCS)
//	-csv        emit CSV instead of the aligned table
package main

import (
	"flag"
	"fmt"
	"os"
	"runtime"
	"strconv"
	"strings"
	"time"

	"ccatscale/internal/core"
	"ccatscale/internal/report"
	"ccatscale/internal/sim"
	"ccatscale/internal/units"
	"ccatscale/internal/waremodel"
)

func main() {
	if len(os.Args) < 2 {
		usage()
		os.Exit(2)
	}
	cmd := os.Args[1]
	fs := flag.NewFlagSet(cmd, flag.ExitOnError)
	var (
		scale    = fs.Int("scale", 10, "CoreScale divisor (10 → 1 Gbps / 100–500 flows)")
		full     = fs.Bool("full", false, "paper-scale CoreScale (10 Gbps, 1000–5000 flows; hours of CPU)")
		edge     = fs.Bool("edge", false, "run the EdgeScale setting")
		rttFlag  = fs.String("rtt", "", "restrict fairness sweeps to one base RTT (e.g. 20ms)")
		seed     = fs.Uint64("seed", 1, "experiment seed")
		parallel = fs.Int("parallel", runtime.GOMAXPROCS(0), "concurrent runs")
		csv      = fs.Bool("csv", false, "emit CSV")
		ccaName  = fs.String("cca", "reno", "CCA for the intra experiment")
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
	if err := fs.Parse(os.Args[2:]); err != nil {
		os.Exit(2)
	}

	setting := pickSetting(*edge, *full, *scale)
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
			fatal(err)
		}
		setting.BurstLoss = spec
	}
	if *outage != "" {
		spec, err := core.ParseOutage(*outage)
		if err != nil {
			fatal(err)
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
	rtts := core.RTTs
	if *rttFlag != "" {
		d, err := time.ParseDuration(*rttFlag)
		if err != nil {
			fatal(err)
		}
		rtts = []sim.Time{sim.Duration(d)}
	}

	start := time.Now()
	var tab *report.Table
	var err error
	switch cmd {
	case "table1":
		tab, err = runTable1(setting, *seed, *parallel)
	case "fig2":
		tab, err = runFig2(setting, *seed, *parallel)
	case "fig3":
		tab, err = runFig3(setting, *seed, *parallel)
	case "burstiness":
		tab, err = runBurstiness(setting, *seed, *parallel)
	case "fig4":
		tab, err = runIntra(setting, "bbr", rtts, *seed, *parallel)
	case "intra":
		tab, err = runIntra(setting, *ccaName, rtts, *seed, *parallel)
	case "fig5":
		tab, err = runInter(setting, core.EqualSplit, "cubic", "reno", rtts, *seed, *parallel)
	case "fig6":
		tab, err = runInter(setting, core.OneVersusMany, "bbr", "reno", rtts, *seed, *parallel)
	case "fig7":
		tab, err = runInter(setting, core.OneVersusMany, "bbr", "cubic", rtts, *seed, *parallel)
	case "fig8":
		tab, err = runInter(setting, core.EqualSplit, "bbr", *vs, rtts, *seed, *parallel)
	case "rttmix":
		tab, err = runRTTMix(setting, *ccaName, *seed, *parallel)
	case "churn":
		tab, err = runChurn(setting, *ccaName, *seed, *parallel)
	case "burstloss":
		tab, err = runBurstLoss(setting, *seed, *parallel)
	case "outage":
		tab, err = runOutage(setting, *seed, *parallel)
	case "replay":
		tab, err = runReplay(*inFile)
	case "timeseries":
		err = runTimeseries(setting, *flowSpec, *seed)
		return
	case "run":
		tab, err = runCustom(setting, *flowSpec, *seed)
	case "help", "-h", "--help":
		usage()
		return
	default:
		fmt.Fprintf(os.Stderr, "unknown experiment %q\n\n", cmd)
		usage()
		os.Exit(2)
	}
	if err != nil {
		fatal(err)
	}
	if *csv {
		err = tab.WriteCSV(os.Stdout)
	} else {
		err = tab.WriteText(os.Stdout)
		fmt.Printf("\n[%s, seed %d, wall %s]\n", setting.Name, *seed, time.Since(start).Round(time.Millisecond))
	}
	if err != nil {
		fatal(err)
	}
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

func runTable1(s core.Setting, seed uint64, parallel int) (*report.Table, error) {
	rows, err := core.MathisSweep(s, seed, parallel)
	if err != nil {
		return nil, err
	}
	tab := report.NewTable(
		"Table 1: Mathis constant C (packet-loss vs CWND-halving rate)",
		"setting", "flows", "C(loss)", "C(halving)", "utilization")
	for _, r := range rows {
		tab.AddRow(r.Setting, r.FlowCount, r.CLoss, r.CHalve, r.Utilization)
	}
	return tab, nil
}

func runFig2(s core.Setting, seed uint64, parallel int) (*report.Table, error) {
	rows, err := core.MathisSweep(s, seed, parallel)
	if err != nil {
		return nil, err
	}
	tab := report.NewTable(
		"Figure 2: Mathis median prediction error (%)",
		"setting", "flows", "err(loss)%", "err(halving)%")
	for _, r := range rows {
		tab.AddRow(r.Setting, r.FlowCount, r.MedianErrLoss*100, r.MedianErrHalve*100)
	}
	return tab, nil
}

func runFig3(s core.Setting, seed uint64, parallel int) (*report.Table, error) {
	rows, err := core.MathisSweep(s, seed, parallel)
	if err != nil {
		return nil, err
	}
	tab := report.NewTable(
		"Figure 3: packet-loss to CWND-halving ratio",
		"setting", "flows", "ratio")
	for _, r := range rows {
		tab.AddRow(r.Setting, r.FlowCount, r.LossToHalvingRatio)
	}
	return tab, nil
}

func runBurstiness(s core.Setting, seed uint64, parallel int) (*report.Table, error) {
	rows, err := core.MathisSweep(s, seed, parallel)
	if err != nil {
		return nil, err
	}
	tab := report.NewTable(
		"Drop burstiness (Goh–Barabási; paper: ≈0.2 edge, ≈0.35 core)",
		"setting", "flows", "burstiness")
	for _, r := range rows {
		tab.AddRow(r.Setting, r.FlowCount, r.DropBurstiness)
	}
	return tab, nil
}

func runIntra(s core.Setting, ccaName string, rtts []sim.Time, seed uint64, parallel int) (*report.Table, error) {
	rows, err := core.IntraCCASweep(s, ccaName, rtts, seed, parallel)
	if err != nil {
		return nil, err
	}
	tab := report.NewTable(
		fmt.Sprintf("Intra-CCA fairness: %s (JFI; Fig 4 for bbr, Finding 4 for reno/cubic)", ccaName),
		"setting", "rtt", "flows", "JFI", "utilization")
	for _, r := range rows {
		tab.AddRow(r.Setting, r.RTT.String(), r.FlowCount, r.JFI, r.Utilization)
	}
	return tab, nil
}

func runInter(s core.Setting, mode core.InterCCAMode, a, b string, rtts []sim.Time, seed uint64, parallel int) (*report.Table, error) {
	rows, err := core.InterCCASweep(s, mode, a, b, rtts, seed, parallel)
	if err != nil {
		return nil, err
	}
	modeName := map[core.InterCCAMode]string{
		core.EqualSplit:    "50/50",
		core.OneVersusMany: "1 vs crowd",
	}[mode]
	title := fmt.Sprintf("Inter-CCA fairness: %s vs %s (%s): %s share of goodput", a, b, modeName, a)
	if mode == core.OneVersusMany && a == "bbr" {
		bufferBDP := float64(s.Buffer) / float64(units.BDP(s.Rate, core.DefaultRTT))
		title += fmt.Sprintf(" [Ware model: %s]", report.Pct(waremodel.SingleBBRShare(bufferBDP)))
	}
	tab := report.NewTable(title, "setting", "rtt", "flows", a+" share %", "utilization")
	for _, r := range rows {
		tab.AddRow(r.Setting, r.RTT.String(), r.FlowCount, r.Share[a]*100, r.Utilization)
	}
	return tab, nil
}

// runRTTMix runs the mixed-RTT extension: half the flows at 20 ms, half
// at 100 ms, one CCA, reporting the short-RTT class's share.
func runRTTMix(s core.Setting, ccaName string, seed uint64, parallel int) (*report.Table, error) {
	short, long := 20*sim.Millisecond, 100*sim.Millisecond
	rows, err := core.RTTMixSweep(s, ccaName, short, long, seed, parallel)
	if err != nil {
		return nil, err
	}
	tab := report.NewTable(
		fmt.Sprintf("Mixed-RTT fairness (%s): share of the %v class vs the %v class", ccaName, short, long),
		"setting", "flows", "short-RTT share %", "JFI(short)", "JFI(long)", "utilization")
	for _, r := range rows {
		tab.AddRow(r.Setting, r.FlowCount, r.ShortShare*100, r.ShortJFI, r.LongJFI, r.Utilization)
	}
	return tab, nil
}

// runTimeseries runs one custom experiment and streams the per-CCA
// goodput time series as CSV to stdout.
func runTimeseries(s core.Setting, spec string, seed uint64) error {
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
	fmt.Print("seconds")
	for _, n := range res.SeriesNames {
		fmt.Printf(",%s_bps", n)
	}
	fmt.Println()
	for _, p := range res.Series {
		fmt.Printf("%.3f", p.At.Seconds())
		for _, r := range p.Rates {
			fmt.Printf(",%d", int64(r))
		}
		fmt.Println()
	}
	return nil
}

// runChurn runs the flow-churn extension at three offered loads.
func runChurn(s core.Setting, ccaName string, seed uint64, parallel int) (*report.Table, error) {
	rows, err := core.ChurnSweep(s, ccaName, seed, parallel)
	if err != nil {
		return nil, err
	}
	tab := report.NewTable(
		fmt.Sprintf("Extension: Poisson flow churn (%s, %v transfers) — flow completion times", ccaName, core.ChurnTransferBytes),
		"load", "arrivals", "completed", "p50 FCT (s)", "p95 FCT (s)", "p99 FCT (s)", "drops")
	for i, res := range rows {
		a := res.Arrivals
		tab.AddRow(fmt.Sprintf("%.0f%%", core.ChurnLoads[i]*100), a.Arrived, a.Completed,
			a.FCTQuantile(0.5), a.FCTQuantile(0.95), a.FCTQuantile(0.99), a.Drops)
	}
	return tab, nil
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
	tab := report.NewTable(title,
		"flow", "cca", "rtt", "goodput", "loss%", "halve%", "meanRTT")
	for i, f := range res.Flows {
		tab.AddRow(i, f.Spec.CCA, f.Spec.RTT.String(), f.Goodput.String(),
			f.LossRate*100, f.HalvingRate*100, f.MeanRTT.String())
	}
	return tab, nil
}

// runBurstLoss runs the burst-loss extension: fixed mean loss rate,
// growing mean burst length, against the iid Mathis prediction.
func runBurstLoss(s core.Setting, seed uint64, parallel int) (*report.Table, error) {
	rows, err := core.BurstLossSweep(s, seed, parallel)
	if err != nil {
		return nil, err
	}
	tab := report.NewTable(
		fmt.Sprintf("Extension: Gilbert–Elliott burst loss (mean loss %.1f%%, %d reno flows) vs iid Mathis prediction",
			core.BurstMeanLoss*100, rows[0].Flows),
		"setting", "burst len", "goodput/flow", "iid predict", "measured/model", "drops/halving", "burst drops")
	for _, r := range rows {
		tab.AddRow(r.Setting, r.BurstLen, r.GoodputPerFlow.String(), r.PredictIID.String(),
			r.ModelRatio, r.DropsPerHalving, r.BurstDrops)
	}
	return tab, nil
}

// runOutage runs the link-flap extension: per-CCA goodput retention,
// RTOs, and fairness under periodic dark windows.
func runOutage(s core.Setting, seed uint64, parallel int) (*report.Table, error) {
	rows, err := core.OutageSweep(s, seed, parallel)
	if err != nil {
		return nil, err
	}
	tab := report.NewTable(
		"Extension: link outages (periodic flaps; goodput relative to a clean run of the same CCA)",
		"setting", "cca", "down", "flaps", "goodput", "vs clean %", "RTOs", "outage drops", "JFI")
	for _, r := range rows {
		tab.AddRow(r.Setting, r.CCA, r.Down.String(), r.Flaps, r.Goodput.String(),
			r.GoodputFrac*100, r.RTOs, r.OutageDrops, r.JFI)
	}
	return tab, nil
}

// runReplay re-executes a failed run from the JSON failure record the
// reproduce sweep writes next to its results. A deterministic failure
// reproduces exactly; a repaired one yields the per-flow table.
func runReplay(path string) (*report.Table, error) {
	if path == "" {
		return nil, fmt.Errorf("replay needs -in <job>.failed.json")
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
	fmt.Fprintf(os.Stderr, "replaying: %s (seed %d, failed at vt=%v after %d events)\n",
		re.Reason, re.Seed, re.VirtualTime, re.Events)
	res, err := core.Run(re.Config)
	if err != nil {
		return nil, fmt.Errorf("failure reproduced: %w", err)
	}
	tab := report.NewTable(
		fmt.Sprintf("Replay of %s: no failure this time (JFI %.3f, util %.3f, drops %d)",
			path, res.JFI(), res.Utilization, res.TotalDrops),
		"flow", "cca", "rtt", "goodput", "loss%", "halve%", "meanRTT")
	for i, fl := range res.Flows {
		tab.AddRow(i, fl.Spec.CCA, fl.Spec.RTT.String(), fl.Goodput.String(),
			fl.LossRate*100, fl.HalvingRate*100, fl.MeanRTT.String())
	}
	return tab, nil
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

func usage() {
	fmt.Fprint(os.Stderr, `ccatscale — reproduce "Revisiting TCP CC Throughput Models & Fairness At Scale" (IMC'21)

usage: ccatscale <experiment> [flags]

experiments:
  table1 | fig2 | fig3 | burstiness     Mathis-model analysis (§4)
  fig4 | intra -cca=reno|cubic|bbr      intra-CCA fairness (§5.1)
  fig5 | fig6 | fig7 | fig8 -vs=cubic   inter-CCA fairness (§5.2)
  rttmix -cca=reno                      mixed-RTT extension (20ms vs 100ms classes)
  churn -cca=reno [-aqm codel]          Poisson flow-churn extension (FCT quantiles)
  burstloss                             Gilbert–Elliott burst loss vs the iid Mathis model
  outage                                per-CCA recovery under periodic link flaps
  timeseries -flows=2xbbr@20ms,...      per-CCA goodput series as CSV
  run -flows=4xbbr@20ms,4xreno@20ms     custom run
  replay -in=<job>.failed.json          re-execute a failed run from its failure record

CCAs: reno, cubic, bbr, vegas, bbr2 (vegas and bbr2 extend beyond the
paper's three measured algorithms).

flags: -scale N | -full | -edge | -rtt 20ms | -seed N | -parallel N | -csv | -duration 60s | -converge 20s

fault injection (run/burstloss/outage): -burst meanLoss,meanBurstLen |
-outage start,down,period,count[,hold] | -panic-at 5s (supervisor drill);
replay overrides: -rate-bps N | -buffer-bytes N | -warmup 15s | -stagger 5s

self-verification: -audit warn|strict enables the invariant auditor
(conservation ledgers, TCP/CCA state checks); -audit-drill 5s corrupts
queue accounting at that virtual time to prove the ledger catches it.
`)
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "ccatscale:", err)
	os.Exit(1)
}
