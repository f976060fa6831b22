package ccatscale

// Benchmark harness: one benchmark per table and figure of the paper's
// evaluation, plus ablations for the design choices DESIGN.md calls
// out. Each benchmark iteration executes the experiment at a reduced
// "bench tier" (shortened windows, scaled flow counts) and reports the
// paper's metric via b.ReportMetric, so
//
//	go test -bench . -benchmem
//
// regenerates the shape of every result in one command. EXPERIMENTS.md
// records the numbers cmd/reproduce commits to results/.
//
// Benchmarks are heavyweight (each iteration simulates tens of virtual
// seconds); use -benchtime=1x for a single pass.

import (
	"context"
	"testing"

	"ccatscale/internal/core"
	"ccatscale/internal/sim"
	"ccatscale/internal/units"
	"ccatscale/internal/waremodel"
)

// shortEdge is EdgeScale with shortened windows.
func shortEdge() core.Setting {
	s := core.EdgeScale()
	s.Warmup = 10 * sim.Second
	s.Duration = 30 * sim.Second
	s.Stagger = 3 * sim.Second
	return s
}

// benchCore is the scaled CoreScale bench tier: 200 Mbps, 20–100 flows,
// shortened windows. Per-flow bandwidth and buffer/BDP match the paper.
func benchCore() core.Setting {
	s := core.CoreScaleScaled(50)
	s.Warmup = 10 * sim.Second
	s.Duration = 30 * sim.Second
	s.Stagger = 3 * sim.Second
	return s
}

const benchRTT = 20 * sim.Millisecond

func reportMathisRow(b *testing.B, r core.MathisRow) {
	b.ReportMetric(r.CLoss, "C_loss")
	b.ReportMetric(r.CHalve, "C_halving")
	b.ReportMetric(r.MedianErrLoss*100, "errLoss_%")
	b.ReportMetric(r.MedianErrHalve*100, "errHalving_%")
	b.ReportMetric(r.LossToHalvingRatio, "loss:halving")
	b.ReportMetric(r.DropBurstiness, "burstiness")
}

func mathisBench(b *testing.B, s core.Setting, flows int) core.MathisRow {
	b.Helper()
	var row core.MathisRow
	for i := 0; i < b.N; i++ {
		cfg := s.Build(core.UniformFlows(flows, "reno", core.DefaultRTT), core.WithSeed(core.Seed(uint64(i+1))))
		cfg.MaxDropTimestamps = 1 << 20
		res, err := core.Run(cfg)
		if err != nil {
			b.Fatal(err)
		}
		row = core.MathisAnalyze(s.Name, flows, res)
	}
	return row
}

// BenchmarkTable1MathisConstant regenerates Table 1: the fitted Mathis
// constant under both interpretations of p, at the edge and core
// tiers. Paper: C(loss) is setting/flow-count dependent (1.78 → 3.2–4.0)
// while C(halving) stays ≈1.34–1.47.
func BenchmarkTable1MathisConstant(b *testing.B) {
	b.Run("EdgeScale/flows=30", func(b *testing.B) {
		reportMathisRow(b, mathisBench(b, shortEdge(), 30))
	})
	b.Run("CoreScale/flows=100", func(b *testing.B) {
		reportMathisRow(b, mathisBench(b, benchCore(), 100))
	})
}

// BenchmarkFig2MathisError regenerates Figure 2: median prediction
// error with each p. Paper: ≤10 % with the halving rate at scale,
// 45–55 % with the loss rate.
func BenchmarkFig2MathisError(b *testing.B) {
	row := mathisBench(b, benchCore(), 60)
	b.ReportMetric(row.MedianErrLoss*100, "errLoss_%")
	b.ReportMetric(row.MedianErrHalve*100, "errHalving_%")
}

// BenchmarkFig3LossHalvingRatio regenerates Figure 3: the packet-loss
// to CWND-halving ratio. Paper: ≈1.7 at the edge, 6–9 at core scale.
func BenchmarkFig3LossHalvingRatio(b *testing.B) {
	b.Run("EdgeScale", func(b *testing.B) {
		row := mathisBench(b, shortEdge(), 30)
		b.ReportMetric(row.LossToHalvingRatio, "loss:halving")
	})
	b.Run("CoreScale", func(b *testing.B) {
		row := mathisBench(b, benchCore(), 60)
		b.ReportMetric(row.LossToHalvingRatio, "loss:halving")
	})
}

// BenchmarkBurstiness regenerates the §4 drop-burstiness measurement
// (figure not shown in the paper): Goh–Barabási ≈0.2 edge, ≈0.35 core.
func BenchmarkBurstiness(b *testing.B) {
	b.Run("EdgeScale", func(b *testing.B) {
		row := mathisBench(b, shortEdge(), 30)
		b.ReportMetric(row.DropBurstiness, "burstiness")
	})
	b.Run("CoreScale", func(b *testing.B) {
		row := mathisBench(b, benchCore(), 60)
		b.ReportMetric(row.DropBurstiness, "burstiness")
	})
}

func fairnessBench(b *testing.B, s core.Setting, flows []core.FlowSpec, seedBase uint64) core.RunResult {
	b.Helper()
	var res core.RunResult
	for i := 0; i < b.N; i++ {
		r, err := core.Run(s.Build(flows, core.WithSeed(core.Seed(seedBase+uint64(i)))))
		if err != nil {
			b.Fatal(err)
		}
		res = r
	}
	return res
}

// BenchmarkIntraFairnessLossBased regenerates Finding 4: NewReno and
// Cubic stay intra-CCA fair at scale (paper: JFI > 0.99).
func BenchmarkIntraFairnessLossBased(b *testing.B) {
	for _, cca := range []string{"reno", "cubic"} {
		b.Run(cca, func(b *testing.B) {
			s := benchCore()
			s.Duration = 60 * sim.Second // AIMD convergence needs rounds
			res := fairnessBench(b, s, core.UniformFlows(60, cca, benchRTT), 1)
			b.ReportMetric(res.JFI(), "JFI")
		})
	}
}

// BenchmarkFig4BBRIntraFairness regenerates Figure 4: BBR's intra-CCA
// JFI collapses at scale (paper: as low as 0.4 at core, 0.7 beyond 10
// flows at the edge).
func BenchmarkFig4BBRIntraFairness(b *testing.B) {
	b.Run("EdgeScale/flows=10", func(b *testing.B) {
		res := fairnessBench(b, shortEdge(), core.UniformFlows(10, "bbr", benchRTT), 1)
		b.ReportMetric(res.JFI(), "JFI")
	})
	b.Run("CoreScale/flows=100", func(b *testing.B) {
		res := fairnessBench(b, benchCore(), core.UniformFlows(100, "bbr", benchRTT), 1)
		b.ReportMetric(res.JFI(), "JFI")
	})
}

// BenchmarkFig5CubicVsReno regenerates Figure 5: Cubic's share against
// an equal NewReno population (paper: 70–80 %).
func BenchmarkFig5CubicVsReno(b *testing.B) {
	res := fairnessBench(b, benchCore(), core.MixedFlows(60, "cubic", "reno", benchRTT), 1)
	b.ReportMetric(res.ShareByCCA()["cubic"]*100, "cubicShare_%")
}

// BenchmarkFig6OneBBRVsReno regenerates Figure 6: a single BBR flow
// against a NewReno crowd (paper: ≈40 % regardless of crowd size).
func BenchmarkFig6OneBBRVsReno(b *testing.B) {
	res := fairnessBench(b, benchCore(), core.OneVersusFlows(60, "bbr", "reno", benchRTT), 1)
	b.ReportMetric(res.ShareByCCA()["bbr"]*100, "bbrShare_%")
	b.ReportMetric(waremodel.SingleBBRShare(15)*100, "wareModel_%")
}

// BenchmarkFig7OneBBRVsCubic regenerates Figure 7: a single BBR flow
// against a Cubic crowd (paper: ≈40 %).
func BenchmarkFig7OneBBRVsCubic(b *testing.B) {
	res := fairnessBench(b, benchCore(), core.OneVersusFlows(60, "bbr", "cubic", benchRTT), 1)
	b.ReportMetric(res.ShareByCCA()["bbr"]*100, "bbrShare_%")
}

// BenchmarkFig8BBRVsReno regenerates Figure 8a: BBR against an equal
// NewReno population (paper: up to 99.9 % at scale).
func BenchmarkFig8BBRVsReno(b *testing.B) {
	res := fairnessBench(b, benchCore(), core.MixedFlows(60, "bbr", "reno", benchRTT), 1)
	b.ReportMetric(res.ShareByCCA()["bbr"]*100, "bbrShare_%")
}

// BenchmarkFig8BBRVsCubic regenerates Figure 8b: BBR against an equal
// Cubic population.
func BenchmarkFig8BBRVsCubic(b *testing.B) {
	res := fairnessBench(b, benchCore(), core.MixedFlows(60, "bbr", "cubic", benchRTT), 1)
	b.ReportMetric(res.ShareByCCA()["bbr"]*100, "bbrShare_%")
}

// --- Ablations (DESIGN.md) ---

// BenchmarkAblationDelayedACK compares the Mathis constant with and
// without delayed ACKs: the original paper's C = 0.94 derivation is
// delayed-ACK-specific.
func BenchmarkAblationDelayedACK(b *testing.B) {
	for _, mode := range []struct {
		name  string
		delay sim.Time
	}{{"delack=on", 0}, {"delack=off", -1}} {
		b.Run(mode.name, func(b *testing.B) {
			var row core.MathisRow
			for i := 0; i < b.N; i++ {
				s := shortEdge()
				cfg := s.Build(core.UniformFlows(30, "reno", core.DefaultRTT), core.WithSeed(core.Seed(uint64(i+1))))
				cfg.DelAckDelay = mode.delay
				res, err := core.Run(cfg)
				if err != nil {
					b.Fatal(err)
				}
				row = core.MathisAnalyze(s.Name, 30, res)
			}
			b.ReportMetric(row.CHalve, "C_halving")
		})
	}
}

// BenchmarkAblationBufferSize sweeps the buffer through 0.25/0.5/1.0
// BDP(200ms): small buffers change the BBR-vs-loss-based balance (Hock
// et al.), the design choice behind the paper's 1-BDP rule.
func BenchmarkAblationBufferSize(b *testing.B) {
	for _, frac := range []struct {
		name    string
		num, dn units.ByteCount
	}{{"0.25bdp", 1, 4}, {"0.5bdp", 1, 2}, {"1.0bdp", 1, 1}} {
		b.Run(frac.name, func(b *testing.B) {
			var res core.RunResult
			for i := 0; i < b.N; i++ {
				s := benchCore()
				bdp := units.BDP(s.Rate, 200*sim.Millisecond)
				s.Buffer = bdp * frac.num / frac.dn
				r, err := core.Run(s.Build(core.MixedFlows(20, "bbr", "reno", benchRTT), core.WithSeed(core.Seed(uint64(i+1)))))
				if err != nil {
					b.Fatal(err)
				}
				res = r
			}
			b.ReportMetric(res.ShareByCCA()["bbr"]*100, "bbrShare_%")
		})
	}
}

// BenchmarkAblationProbeRTT compares BBR intra-fairness with the stock
// 10 s min-RTT filter window: the paper hypothesizes ProbeRTT
// desynchronization drives Finding 5 (window variation is exercised via
// seeds here; the mechanism itself lives in internal/cca).
func BenchmarkAblationProbeRTT(b *testing.B) {
	res := fairnessBench(b, benchCore(), core.UniformFlows(60, "bbr", benchRTT), 7)
	b.ReportMetric(res.JFI(), "JFI")
}

// BenchmarkAblationStagger compares staggered vs simultaneous starts:
// synchronized starts synchronize loss episodes and change fairness
// convergence.
func BenchmarkAblationStagger(b *testing.B) {
	for _, mode := range []struct {
		name    string
		stagger sim.Time
	}{{"staggered", 3 * sim.Second}, {"simultaneous", 0}} {
		b.Run(mode.name, func(b *testing.B) {
			var res core.RunResult
			for i := 0; i < b.N; i++ {
				s := benchCore()
				s.Stagger = mode.stagger
				r, err := core.Run(s.Build(core.UniformFlows(60, "reno", benchRTT), core.WithSeed(core.Seed(uint64(i+1)))))
				if err != nil {
					b.Fatal(err)
				}
				res = r
			}
			b.ReportMetric(res.JFI(), "JFI")
			b.ReportMetric(res.DropBurstiness, "burstiness")
		})
	}
}

// BenchmarkAblationHyStart measures what Cubic's HyStart is worth:
// without it, slow start overshoots the pipe and the early drop count
// balloons. The comparison runs at the EdgeScale tier deliberately —
// under at-scale GRO, stretch ACKs starve HyStart of the ≥8 RTT samples
// per round it needs and the mechanism goes quiet (a real deployment
// phenomenon this simulation reproduces).
func BenchmarkAblationHyStart(b *testing.B) {
	for _, variant := range []string{"cubic", "cubic-nohystart"} {
		b.Run(variant, func(b *testing.B) {
			var res core.RunResult
			for i := 0; i < b.N; i++ {
				s := shortEdge()
				s.Warmup = 5 * sim.Second
				s.Duration = 15 * sim.Second
				s.Stagger = 10 * sim.Second // spread starts so overshoot episodes are visible
				r, err := core.Run(s.Build(core.UniformFlows(10, variant, benchRTT), core.WithSeed(core.Seed(uint64(i+1)))))
				if err != nil {
					b.Fatal(err)
				}
				res = r
			}
			b.ReportMetric(float64(res.TotalDrops), "drops")
			b.ReportMetric(res.Utilization*100, "util_%")
		})
	}
}

// BenchmarkAblationAQM contrasts the paper's drop-tail bottleneck with
// CoDel (extension axis): AQM removes the standing queue that drives
// the paper's at-scale Mathis divergence and inter-CCA findings.
func BenchmarkAblationAQM(b *testing.B) {
	for _, aqm := range []string{"droptail", "codel"} {
		b.Run(aqm, func(b *testing.B) {
			var res core.RunResult
			for i := 0; i < b.N; i++ {
				s := benchCore()
				s.AQM = aqm
				r, err := core.Run(s.Build(core.UniformFlows(20, "reno", benchRTT), core.WithSeed(core.Seed(uint64(i+1)))))
				if err != nil {
					b.Fatal(err)
				}
				res = r
			}
			meanRTT := 0.0
			for _, f := range res.Flows {
				meanRTT += f.MeanRTT.Seconds()
			}
			b.ReportMetric(meanRTT/float64(len(res.Flows))*1000, "meanRTT_ms")
			b.ReportMetric(res.Utilization*100, "util_%")
		})
	}
}

// BenchmarkEngineThroughput measures raw simulator performance:
// simulated packet-events per wall second for a saturated bottleneck.
func BenchmarkEngineThroughput(b *testing.B) {
	for i := 0; i < b.N; i++ {
		s := benchCore()
		s.Warmup = 2 * sim.Second
		s.Duration = 10 * sim.Second
		res, err := core.Run(s.Build(core.UniformFlows(20, "reno", benchRTT), core.WithSeed(core.Seed(1))))
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(float64(res.Events), "events/run")
	}
}

// BenchmarkExtensionChurn measures flow-completion-time quantiles under
// Poisson churn at 60 % offered load (extension axis: the paper's
// limitations name flow arrival/departure as future work).
func BenchmarkExtensionChurn(b *testing.B) {
	var res *core.ArrivalStats
	for i := 0; i < b.N; i++ {
		s := benchCore()
		size := units.ByteCount(500 * units.KB)
		cfg := core.RunConfig{
			Rate:     s.Rate,
			Buffer:   s.Buffer,
			Duration: 20 * sim.Second,
			Seed:     uint64(i + 1),
			Arrivals: &core.ArrivalSpec{
				CCA:           "reno",
				RTT:           core.DefaultRTT,
				TransferBytes: size,
				PerSecond:     0.6 * float64(s.Rate) / (float64(size) * 8),
			},
		}
		r, err := core.RunCtx(context.Background(), cfg)
		if err != nil {
			b.Fatal(err)
		}
		res = r.Arrivals
	}
	b.ReportMetric(res.FCTQuantile(0.5), "p50FCT_s")
	b.ReportMetric(res.FCTQuantile(0.99), "p99FCT_s")
	b.ReportMetric(float64(res.Completed), "completed")
}
