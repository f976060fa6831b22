// Package experiments is the catalog of the paper's tables and figures
// and of this repository's extensions. Each entry is declared once, as a
// plan (the runs it needs, as data) plus the table its results fill; a
// front end looks an entry up, runs the plan under whatever governance
// it has — context, budgets, telemetry — and renders the table.
// cmd/reproduce binds entries to the two regimes as jobs and defines no
// table of its own.
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
	// RTTs are the base RTTs the fairness entries sweep: the entry's
	// declared set once Bind has run.
	RTTs []sim.Time
}

// Entry is one experiment of the catalog.
type Entry struct {
	// Name identifies the entry; reproduce's jobs look it up by name.
	Name string
	// Headers is the table's header row, as data so that what a job
	// writes can be checked against the declaration.
	Headers []string
	// Window is the entry's run length, as a multiple of the setting's
	// measurement window (0 = 1×): the slow-converging experiments
	// declare the longer run their recorded results need, and it scales
	// with whatever tier the setting is.
	Window float64
	// RTTs is the set of base RTTs the entry sweeps (nil = core.RTTs).
	RTTs []sim.Time
	// Configs is the plan: every run the entry needs, in the order
	// Table expects their results.
	Configs func(s core.Setting, a Args) []core.RunConfig
	// Table renders the results of Configs(s, a), every run successful,
	// under Headers.
	Table func(s core.Setting, a Args, results []core.RunResult) *report.Table
}

// Catalog lists every entry.
var Catalog = []Entry{
	define("mathis", []string{"setting", "flows", "C(loss)", "C(halving)", "err(loss)%", "err(halving)%", "loss:halving", "burstiness", "utilization"},
		func(s core.Setting, a Args) []core.RunConfig { return core.MathisConfigs(s, a.Seed) },
		func(core.Setting, Args) string {
			return "Mathis model (§4): Table 1 constant C, Fig 2 median error %, Fig 3 loss:halving ratio, drop burstiness (paper: ≈0.2 edge, ≈0.35 core)"
		},
		func(tab *report.Table, s core.Setting, _ Args, results []core.RunResult) {
			for _, r := range core.MathisRows(s, results) {
				tab.AddRow(r.Setting, r.FlowCount, r.CLoss, r.CHalve, r.MedianErrLoss*100, r.MedianErrHalve*100,
					r.LossToHalvingRatio, r.DropBurstiness, r.Utilization)
			}
		}),
	intraEntry("fig4", func(Args) string { return "bbr" }).runs(1.5),
	intraEntry("intra", func(a Args) string { return a.CCA }).runs(2, core.DefaultRTT),
	interEntry("fig5", core.EqualSplit, "cubic", func(Args) string { return "reno" }),
	interEntry("fig6", core.OneVersusMany, "bbr", func(Args) string { return "reno" }).runs(2),
	interEntry("fig7", core.OneVersusMany, "bbr", func(Args) string { return "cubic" }).runs(2),
	interEntry("fig8", core.EqualSplit, "bbr", func(a Args) string { return a.Vs }).runs(2.5),
	define("rttmix", []string{"setting", "flows", "short-RTT share %", "JFI(short)", "JFI(long)", "utilization"},
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
	define("churn", []string{"load", "arrivals", "completed", "p50 FCT (s)", "p95 FCT (s)", "p99 FCT (s)", "drops"},
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
	define("burstloss", []string{"setting", "burst len", "goodput/flow", "iid predict", "measured/model", "drops/halving", "burst drops"},
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
	define("outage", []string{"setting", "cca", "down", "flaps", "goodput", "vs clean %", "RTOs", "outage drops", "JFI"},
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

// Bind applies what the entry declares about its runs to a front end's
// setting and args: the measurement window is scaled by Window and the
// RTT set is the entry's. cmd/reproduce calls it when it binds a job, so
// the run length is part of the job's setting and of every run's key.
func (e Entry) Bind(s core.Setting, a Args) (core.Setting, Args) {
	if e.Window > 0 {
		s.Duration = sim.Time(float64(s.Duration) * e.Window)
	}
	a.RTTs = e.RTTs
	if a.RTTs == nil {
		a.RTTs = core.RTTs
	}
	return s, a
}

// runs declares the entry's run length: its window factor and, when
// given, the base RTTs it sweeps instead of core.RTTs.
func (e Entry) runs(window float64, rtts ...sim.Time) Entry {
	e.Window, e.RTTs = window, rtts
	return e
}

// define builds an entry whose table is a title, the header row and one
// AddRow per row — the one place a catalog table is constructed.
func define(name string, headers []string,
	configs func(core.Setting, Args) []core.RunConfig,
	title func(core.Setting, Args) string,
	rows func(*report.Table, core.Setting, Args, []core.RunResult)) Entry {
	return Entry{
		Name: name, Headers: headers, Configs: configs,
		Table: func(s core.Setting, a Args, results []core.RunResult) *report.Table {
			tab := report.NewTable(title(s, a), headers...)
			rows(tab, s, a, results)
			return tab
		},
	}
}

// intraEntry is the intra-CCA fairness experiment of one algorithm.
func intraEntry(name string, cca func(Args) string) Entry {
	return define(name, []string{"setting", "rtt", "flows", "JFI", "utilization"},
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
func interEntry(name string, mode core.InterCCAMode, ccaA string, vs func(Args) string) Entry {
	return define(name, []string{"setting", "rtt", "flows", ccaA + " share %", "utilization"},
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

// RunHeaders is the header row of RunTable.
var RunHeaders = []string{"flow", "cca", "rtt_ms", "goodput_mbps", "delivered_segs", "drops", "ecn_resp", "retx_rate"}

// RunTable is the per-flow table of one run, the result a scenario
// document produces under cmd/reproduce -scenario and under ccserve, and
// what reproduce -replay prints when a recorded failure does not recur:
// one row per flow, the aggregate in a note, and for an ECN or topology
// run the fabric's CE marks and one note per link. Everything in it
// derives from the deterministic simulation — no wall clock, no host
// name — so the bytes committed to a store are identical across reruns,
// processes and crash recoveries.
func RunTable(title string, res core.RunResult) *report.Table {
	tab := report.NewTable(title, RunHeaders...)
	for i, f := range res.Flows {
		retx := 0.0
		if f.SegmentsSent > 0 {
			retx = max(0, 1-float64(f.SegmentsDelivered)/float64(f.SegmentsSent))
		}
		tab.AddRow(i, f.Spec.CCA,
			float64(f.Spec.RTT)/float64(sim.Millisecond),
			float64(f.Goodput)/float64(units.MbitPerSec),
			f.SegmentsDelivered, f.Drops, f.ECNResponses, report.Pct(retx))
	}
	tab.AddNote("aggregate goodput %.2f Mbps, utilization %s, JFI %.4f",
		float64(res.AggregateGoodput)/float64(units.MbitPerSec),
		report.Pct(res.Utilization), res.JFI())
	if res.CEMarks > 0 {
		tab.AddNote("ECN: %d CE marks across the fabric", res.CEMarks)
	}
	for _, l := range res.Links {
		tab.AddNote("link %-12s rate %7.1f Mbps  util %6s  tx %d pkts  drops %d B  CE %d",
			l.Name, float64(l.Rate)/float64(units.MbitPerSec),
			report.Pct(l.Utilization), l.TxPackets, l.DropWire, l.CEMarks)
	}
	if res.Converged {
		tab.AddNote("converged at %v (window %v)", res.Window, res.Window)
	}
	return tab
}
