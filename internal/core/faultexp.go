package core

import (
	"math"

	"ccatscale/internal/mathis"
	"ccatscale/internal/netem"
	"ccatscale/internal/sim"
	"ccatscale/internal/units"
)

// This file is the experiment wiring over the fault-injection layer:
// two extension scenarios beyond the paper's clean testbed. The
// burst-loss sweep holds the mean loss rate fixed and varies how
// bursty its arrival is — the axis along which the Mathis model's
// independent-loss assumption fails (a burst of drops triggers one
// window halving, so throughput rises above the iid prediction as
// bursts lengthen, the mechanism behind the paper's Finding 1). The
// outage sweep flaps the link dark for configured windows and measures
// each CCA's recovery — the regime where loss-based and model-based
// algorithms diverge hardest (cf. the BBR evaluation literature).

// BurstFlows is the flow count of the burst-loss sweep: few enough
// that the injected loss — not the bottleneck share — limits each
// flow, so the measured throughput tracks the loss model rather than
// the fair-share line.
const BurstFlows = 8

// BurstMeanLoss is the stationary loss rate every burst-loss row
// injects; only the burst structure varies across rows.
const BurstMeanLoss = 0.02

// BurstLens are the mean burst lengths the sweep compares; length 1 is
// exactly independent Bernoulli loss, the model's home regime.
var BurstLens = []float64{1, 4, 16}

// BurstRow is one cell of the burst-loss extension table.
type BurstRow struct {
	Setting string
	// MeanLoss and BurstLen echo the injected channel parameters.
	MeanLoss float64
	BurstLen float64
	Flows    int

	// GoodputPerFlow is the mean per-flow goodput.
	GoodputPerFlow units.Bandwidth
	// PredictIID is the Mathis prediction MSS·√(3/2)/(RTT·√p) with p
	// the injected mean loss — the iid-model baseline.
	PredictIID units.Bandwidth
	// ModelRatio is measured/predicted: ≈1 at burst length 1, rising
	// above 1 as bursts lengthen and the iid assumption breaks.
	ModelRatio float64

	// BurstDrops counts channel drops; Halvings sums window halvings.
	BurstDrops uint64
	Halvings   uint64
	// DropsPerHalving is total drops (channel + bottleneck) over total
	// halvings — the Figure 3 quantity under injected bursts.
	DropsPerHalving float64
}

// BurstLossConfigs is the plan of the burst-loss extension: one run per
// mean burst length.
func BurstLossConfigs(s Setting, seed uint64) []RunConfig {
	cfgs := make([]RunConfig, len(BurstLens))
	for i, blen := range BurstLens {
		cfg := s.Build(UniformFlows(BurstFlows, "reno", DefaultRTT), seed+uint64(i))
		cfg.BurstLoss = &netem.BurstLossSpec{MeanLoss: BurstMeanLoss, MeanBurstLen: blen}
		cfgs[i] = cfg
	}
	return cfgs
}

// BurstLossRows analyzes the results of BurstLossConfigs, one row per
// burst length.
func BurstLossRows(s Setting, results []RunResult) []BurstRow {
	rows := make([]BurstRow, len(results))
	for i, res := range results {
		rows[i] = burstAnalyze(s.Name, BurstLens[i], res)
	}
	return rows
}

func burstAnalyze(setting string, blen float64, res RunResult) BurstRow {
	row := BurstRow{
		Setting:    setting,
		MeanLoss:   BurstMeanLoss,
		BurstLen:   blen,
		Flows:      len(res.Flows),
		BurstDrops: res.BurstDrops,
	}
	pred := mathis.Predict(math.Sqrt(1.5), mathis.Sample{
		P:          BurstMeanLoss,
		RTTSeconds: DefaultRTT.Seconds(),
		MSSBytes:   float64(res.Config.MSS),
	})
	row.PredictIID = units.Bandwidth(pred * 8)
	var drops, halvings float64
	for _, f := range res.Flows {
		row.GoodputPerFlow += f.Goodput
		row.Halvings += f.Halvings
		drops += float64(f.Drops)
		halvings += float64(f.Halvings)
	}
	row.GoodputPerFlow /= units.Bandwidth(len(res.Flows))
	drops += float64(res.BurstDrops)
	if halvings > 0 {
		row.DropsPerHalving = drops / halvings
	}
	if pred > 0 {
		row.ModelRatio = row.GoodputPerFlow.BytesPerSec() / pred
	}
	return row
}

// OutageDowns are the dark-window durations the outage sweep compares:
// below, at, and well above a retransmission timeout.
var OutageDowns = []sim.Time{200 * sim.Millisecond, sim.Second, 3 * sim.Second}

// OutageCCAs are the algorithms the outage sweep compares.
var OutageCCAs = []string{"reno", "cubic", "bbr"}

// outagePeriod spaces the flaps far enough apart that a flow can
// recover between them.
const outagePeriod = 10 * sim.Second

// OutageRow is one (CCA, down-time) cell of the outage extension.
type OutageRow struct {
	Setting string
	CCA     string
	Down    sim.Time
	Flaps   int

	// Goodput is aggregate goodput over the measurement window;
	// GoodputFrac is its fraction of the clean (no-outage) baseline for
	// the same CCA — the recovery cost of the flaps.
	Goodput     units.Bandwidth
	GoodputFrac float64
	Utilization float64
	// RTOs sums retransmission timeouts across flows: the loss-based
	// recovery path outages exercise.
	RTOs uint64
	// OutageDrops counts packets lost to the dark windows.
	OutageDrops uint64
	// JFI qualifies post-outage fairness: flaps resynchronize flows.
	JFI float64
}

// outageFlaps is how many flaps fit the setting's measurement window.
func outageFlaps(s Setting) int {
	return max(1, int(s.Duration/outagePeriod))
}

// OutageConfigs is the plan of the link-flap extension: for every CCA
// and every down-time, n flows ride a bottleneck whose forward path
// goes dark periodically, after one clean baseline per CCA for
// normalization. CCA-major: baseline first, then one run per down-time.
func OutageConfigs(s Setting, seed uint64) []RunConfig {
	n := s.FlowCounts[0]
	var cfgs []RunConfig
	for ci, cca := range OutageCCAs {
		base := s.Build(UniformFlows(n, cca, DefaultRTT), seed+uint64(100*ci))
		cfgs = append(cfgs, base)
		for di, down := range OutageDowns {
			cfg := s.Build(UniformFlows(n, cca, DefaultRTT), seed+uint64(100*ci+di+1))
			cfg.Outage = &netem.OutageSpec{
				Start:  s.Warmup + outagePeriod/2,
				Down:   down,
				Period: outagePeriod,
				Count:  outageFlaps(s),
			}
			cfgs = append(cfgs, cfg)
		}
	}
	return cfgs
}

// OutageRows analyzes the results of OutageConfigs: one row per CCA and
// down-time (CCA-major), each normalized by its CCA's clean baseline.
func OutageRows(s Setting, results []RunResult) []OutageRow {
	var rows []OutageRow
	per := 1 + len(OutageDowns)
	for ci, cca := range OutageCCAs {
		clean := results[ci*per]
		for di, down := range OutageDowns {
			res := results[ci*per+di+1]
			row := OutageRow{
				Setting:     s.Name,
				CCA:         cca,
				Down:        down,
				Flaps:       outageFlaps(s),
				Goodput:     res.AggregateGoodput,
				Utilization: res.Utilization,
				OutageDrops: res.OutageDrops,
				JFI:         res.JFI(),
			}
			for _, f := range res.Flows {
				row.RTOs += f.RTOs
			}
			if clean.AggregateGoodput > 0 {
				row.GoodputFrac = float64(res.AggregateGoodput) / float64(clean.AggregateGoodput)
			}
			rows = append(rows, row)
		}
	}
	return rows
}
