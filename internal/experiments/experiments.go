// Package experiments is the catalog of the paper's tables and figures
// and of this repository's extensions. Each entry is declared once, as a
// plan (the runs it needs, as data) plus the table its results fill; a
// front end looks an entry up, runs the plan under whatever governance
// it has — context, budgets, retries, telemetry — and renders the table.
// cmd/ccatscale runs one entry per invocation, cmd/reproduce binds
// entries to the two regimes as jobs; neither defines a table of its
// own.
package experiments

import (
	"fmt"

	"ccatscale/internal/core"
	"ccatscale/internal/report"
	"ccatscale/internal/sim"
	"ccatscale/internal/units"
	"ccatscale/internal/waremodel"
)

// Args is what a front end's flags choose beyond the Setting.
type Args struct {
	// Seed is the experiment seed; every entry derives its runs' seeds
	// from it.
	Seed uint64
	// CCA is the algorithm of the intra, rttmix and churn entries.
	CCA string
	// Vs is fig8's loss-based competitor (reno or cubic).
	Vs string
	// RTTs are the base RTTs the fairness entries sweep.
	RTTs []sim.Time
}

// Entry is one experiment of the catalog.
type Entry struct {
	// Name is the entry's command name (ccatscale <name>).
	Name string
	// Desc is the one-line description the usage text prints.
	Desc string
	// Headers is the table's header row. It is data, not only an
	// argument of Table, because a stored result is only as current as
	// its columns: cmd/reproduce hashes it into the manifest's
	// configHash.
	Headers []string
	// Configs is the plan: every run the entry needs, in the order
	// Table expects their results.
	Configs func(s core.Setting, a Args) []core.RunConfig
	// Table renders the results of Configs(s, a), every run successful,
	// under Headers.
	Table func(s core.Setting, a Args, results []core.RunResult) *report.Table
}

// Catalog lists every entry, in the order the usage text prints them.
var Catalog = []Entry{
	mathisEntry("table1", "Mathis constant C via packet-loss vs CWND-halving rate (§4)",
		"Table 1: Mathis constant C (packet-loss vs CWND-halving rate)",
		[]string{"C(loss)", "C(halving)", "utilization"},
		func(r core.MathisRow) []any { return []any{r.CLoss, r.CHalve, r.Utilization} }),
	mathisEntry("fig2", "Mathis median prediction error per flow count (§4)",
		"Figure 2: Mathis median prediction error (%)",
		[]string{"err(loss)%", "err(halving)%"},
		func(r core.MathisRow) []any { return []any{r.MedianErrLoss * 100, r.MedianErrHalve * 100} }),
	mathisEntry("fig3", "packet-loss to CWND-halving ratio per flow count (§4)",
		"Figure 3: packet-loss to CWND-halving ratio",
		[]string{"ratio"},
		func(r core.MathisRow) []any { return []any{r.LossToHalvingRatio} }),
	mathisEntry("burstiness", "Goh–Barabási drop burstiness, edge vs core (§4)",
		"Drop burstiness (Goh–Barabási; paper: ≈0.2 edge, ≈0.35 core)",
		[]string{"burstiness"},
		func(r core.MathisRow) []any { return []any{r.DropBurstiness} }),
	intraEntry("fig4", "BBR intra-CCA fairness, JFI at 20/100/200 ms (§5.1)",
		func(Args) string { return "bbr" }),
	intraEntry("intra", "intra-CCA fairness of -cca reno|cubic|bbr|… (Finding 4)",
		func(a Args) string { return a.CCA }),
	interEntry("fig5", "Cubic share vs an equal number of NewReno flows (§5.2)",
		core.EqualSplit, "cubic", func(Args) string { return "reno" }),
	interEntry("fig6", "one BBR flow vs a NewReno crowd (§5.2)",
		core.OneVersusMany, "bbr", func(Args) string { return "reno" }),
	interEntry("fig7", "one BBR flow vs a Cubic crowd (§5.2)",
		core.OneVersusMany, "bbr", func(Args) string { return "cubic" }),
	interEntry("fig8", "BBR share vs an equal number of -vs reno|cubic flows (§5.2)",
		core.EqualSplit, "bbr", func(a Args) string { return a.Vs }),
	define("rttmix", "mixed-RTT extension: -cca flows split between a 20 ms and a 100 ms class",
		[]string{"setting", "flows", "short-RTT share %", "JFI(short)", "JFI(long)", "utilization"},
		func(s core.Setting, a Args) []core.RunConfig {
			return core.RTTMixConfigs(s, a.CCA, rttMixShort, rttMixLong, a.Seed)
		},
		func(_ core.Setting, a Args) string {
			return fmt.Sprintf("Mixed-RTT fairness (%s): share of the %v class vs the %v class", a.CCA, rttMixShort, rttMixLong)
		},
		func(tab *report.Table, s core.Setting, a Args, results []core.RunResult) {
			for _, r := range core.RTTMixRows(s, a.CCA, rttMixShort, rttMixLong, results) {
				tab.AddRow(r.Setting, r.FlowCount, r.ShortShare*100, r.ShortJFI, r.LongJFI, r.Utilization)
			}
		}),
	define("churn", "Poisson flow-churn extension: FCT quantiles of -cca transfers at three loads",
		[]string{"load", "arrivals", "completed", "p50 FCT (s)", "p95 FCT (s)", "p99 FCT (s)", "drops"},
		func(s core.Setting, a Args) []core.RunConfig { return core.ChurnConfigs(s, a.CCA, a.Seed) },
		func(_ core.Setting, a Args) string {
			return fmt.Sprintf("Extension: Poisson flow churn (%s, %v transfers) — flow completion times", a.CCA, core.ChurnTransferBytes)
		},
		func(tab *report.Table, _ core.Setting, _ Args, results []core.RunResult) {
			for i, res := range results {
				st := res.Arrivals
				tab.AddRow(fmt.Sprintf("%.0f%%", core.ChurnLoads[i]*100), st.Arrived, st.Completed,
					st.FCTQuantile(0.5), st.FCTQuantile(0.95), st.FCTQuantile(0.99), st.Drops)
			}
		}),
	define("burstloss", "Gilbert–Elliott burst loss vs the iid Mathis model (extension)",
		[]string{"setting", "burst len", "goodput/flow", "iid predict", "measured/model", "drops/halving", "burst drops"},
		func(s core.Setting, a Args) []core.RunConfig { return core.BurstLossConfigs(s, a.Seed) },
		func(core.Setting, Args) string {
			return fmt.Sprintf("Extension: Gilbert–Elliott burst loss (mean loss %.1f%%, %d reno flows) vs iid Mathis prediction",
				core.BurstMeanLoss*100, core.BurstFlows)
		},
		func(tab *report.Table, s core.Setting, _ Args, results []core.RunResult) {
			for _, r := range core.BurstLossRows(s, results) {
				tab.AddRow(r.Setting, r.BurstLen, r.GoodputPerFlow.String(), r.PredictIID.String(),
					r.ModelRatio, r.DropsPerHalving, r.BurstDrops)
			}
		}),
	define("outage", "per-CCA recovery under periodic link flaps (extension)",
		[]string{"setting", "cca", "down", "flaps", "goodput", "vs clean %", "RTOs", "outage drops", "JFI"},
		func(s core.Setting, a Args) []core.RunConfig { return core.OutageConfigs(s, a.Seed) },
		func(core.Setting, Args) string {
			return "Extension: link outages (periodic flaps; goodput relative to a clean run of the same CCA)"
		},
		func(tab *report.Table, s core.Setting, _ Args, results []core.RunResult) {
			for _, r := range core.OutageRows(s, results) {
				tab.AddRow(r.Setting, r.CCA, r.Down.String(), r.Flaps, r.Goodput.String(),
					r.GoodputFrac*100, r.RTOs, r.OutageDrops, r.JFI)
			}
		}),
}

// The RTT pair of the mixed-RTT extension.
const rttMixShort, rttMixLong = 20 * sim.Millisecond, 100 * sim.Millisecond

// Lookup returns the catalog entry of that name.
func Lookup(name string) (Entry, bool) {
	for _, e := range Catalog {
		if e.Name == name {
			return e, true
		}
	}
	return Entry{}, false
}

// define builds an entry whose table is a title, the header row and one
// AddRow per row — the one place a catalog table is constructed.
func define(name, desc string, headers []string,
	configs func(core.Setting, Args) []core.RunConfig,
	title func(core.Setting, Args) string,
	rows func(*report.Table, core.Setting, Args, []core.RunResult)) Entry {
	return Entry{
		Name: name, Desc: desc, Headers: headers, Configs: configs,
		Table: func(s core.Setting, a Args, results []core.RunResult) *report.Table {
			tab := report.NewTable(title(s, a), headers...)
			rows(tab, s, a, results)
			return tab
		},
	}
}

// mathisEntry is one view of the §4 sweep: table1, fig2, fig3 and
// burstiness run the same plan and differ in the columns they show.
func mathisEntry(name, desc, title string, columns []string, cells func(core.MathisRow) []any) Entry {
	return define(name, desc, append([]string{"setting", "flows"}, columns...),
		func(s core.Setting, a Args) []core.RunConfig { return core.MathisConfigs(s, a.Seed) },
		func(core.Setting, Args) string { return title },
		func(tab *report.Table, s core.Setting, _ Args, results []core.RunResult) {
			for _, r := range core.MathisRows(s, results) {
				tab.AddRow(append([]any{r.Setting, r.FlowCount}, cells(r)...)...)
			}
		})
}

// intraEntry is the intra-CCA fairness experiment of one algorithm.
func intraEntry(name, desc string, cca func(Args) string) Entry {
	return define(name, desc, []string{"setting", "rtt", "flows", "JFI", "utilization"},
		func(s core.Setting, a Args) []core.RunConfig { return core.IntraCCAConfigs(s, cca(a), a.RTTs, a.Seed) },
		func(_ core.Setting, a Args) string {
			return fmt.Sprintf("Intra-CCA fairness: %s (JFI; Fig 4 for bbr, Finding 4 for reno/cubic)", cca(a))
		},
		func(tab *report.Table, s core.Setting, a Args, results []core.RunResult) {
			for _, r := range core.FairnessRows(s, a.RTTs, results) {
				tab.AddRow(r.Setting, r.RTT.String(), r.FlowCount, r.JFI, r.Utilization)
			}
		})
}

// interEntry is an inter-CCA fairness experiment reporting ccaA's share
// against the competitor vs picks. A lone BBR flow against a loss-based
// crowd is the case Ware et al. model, so its title carries their
// prediction for the setting's buffer.
func interEntry(name, desc string, mode core.InterCCAMode, ccaA string, vs func(Args) string) Entry {
	return define(name, desc, []string{"setting", "rtt", "flows", ccaA + " share %", "utilization"},
		func(s core.Setting, a Args) []core.RunConfig {
			return core.InterCCAConfigs(s, mode, ccaA, vs(a), a.RTTs, a.Seed)
		},
		func(s core.Setting, a Args) string {
			modeName := "50/50"
			if mode == core.OneVersusMany {
				modeName = "1 vs crowd"
			}
			title := fmt.Sprintf("Inter-CCA fairness: %s vs %s (%s): %s share of goodput", ccaA, vs(a), modeName, ccaA)
			if mode == core.OneVersusMany && ccaA == "bbr" {
				bufferBDP := float64(s.Buffer) / float64(units.BDP(s.Rate, core.DefaultRTT))
				title += fmt.Sprintf(" [Ware model: %s]", report.Pct(waremodel.SingleBBRShare(bufferBDP)))
			}
			return title
		},
		func(tab *report.Table, s core.Setting, a Args, results []core.RunResult) {
			for _, r := range core.FairnessRows(s, a.RTTs, results) {
				tab.AddRow(r.Setting, r.RTT.String(), r.FlowCount, r.Share[ccaA]*100, r.Utilization)
			}
		})
}
