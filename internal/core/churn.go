package core

import (
	"fmt"
	"math"

	"ccatscale/internal/cca"
	"ccatscale/internal/metrics"
	"ccatscale/internal/netem"
	"ccatscale/internal/packet"
	"ccatscale/internal/sim"
	"ccatscale/internal/tcp"
	"ccatscale/internal/trace"
	"ccatscale/internal/units"
)

// The paper's Limitations section names "arrival and departures of new
// flows" among the real-Internet dynamics its fixed-population design
// deliberately excludes. This file adds that axis: finite transfers
// arriving as a Poisson process, measured by flow completion time — the
// workload model of the datacenter literature applied to the paper's
// wide-area bottleneck.

// ChurnConfig describes a flow-churn experiment.
type ChurnConfig struct {
	// Rate is the bottleneck bandwidth.
	Rate units.Bandwidth
	// Buffer is the bottleneck queue capacity.
	Buffer units.ByteCount
	// CCA is the algorithm every transfer uses.
	CCA string
	// RTT is the base round-trip time of every flow.
	RTT sim.Time
	// ArrivalRate is the Poisson arrival intensity in flows/second.
	ArrivalRate float64
	// TransferBytes is each flow's size (a fixed size keeps the offered
	// load interpretable; mixes are built by running sweeps).
	TransferBytes units.ByteCount
	// Duration is the arrival window; the run continues afterwards
	// until in-flight transfers finish or DrainTimeout passes.
	Duration sim.Time
	// DrainTimeout caps the post-arrival drain (default 30 s).
	DrainTimeout sim.Time
	// MaxFlows bounds concurrently tracked flows (arrivals beyond the
	// bound are dropped and counted; default 4096).
	MaxFlows int
	// Seed drives arrivals and CCA randomness.
	Seed uint64
	// AQM selects the bottleneck discipline ("" = drop-tail).
	AQM string
	// Background adds long-lived (infinite) flows sharing the
	// bottleneck for the whole run — the classic mice-vs-elephants
	// scenario: under drop-tail the elephants pin the buffer and every
	// short transfer pays the standing-queue delay.
	Background []FlowSpec
}

func (c *ChurnConfig) withDefaults() ChurnConfig {
	out := *c
	if out.DrainTimeout <= 0 {
		out.DrainTimeout = 30 * sim.Second
	}
	if out.MaxFlows <= 0 {
		out.MaxFlows = 4096
	}
	return out
}

func (c *ChurnConfig) validate() error {
	// The netem layer owns the bottleneck checks (rate, queue capacity,
	// base RTT), as it does for RunConfig.
	if err := (netem.DumbbellConfig{Rate: c.Rate, Buffer: c.Buffer, RTT: []sim.Time{c.RTT}}).Validate(); err != nil {
		return err
	}
	if _, err := parseAQM(c.AQM); err != nil {
		return err
	}
	if c.Duration <= 0 {
		return fmt.Errorf("core: churn config with non-positive duration")
	}
	if c.ArrivalRate <= 0 {
		return fmt.Errorf("core: churn needs a positive arrival rate")
	}
	for i, f := range c.Background {
		if f.RTT <= 0 {
			return fmt.Errorf("core: background flow %d has non-positive RTT", i)
		}
	}
	if c.TransferBytes <= 0 {
		return fmt.Errorf("core: churn needs a positive transfer size")
	}
	if _, ok := cca.ByName(c.CCA); !ok {
		return fmt.Errorf("core: unknown CCA %q", c.CCA)
	}
	return nil
}

// OfferedLoad returns the configured load as a fraction of bottleneck
// capacity (goodput basis).
func (c ChurnConfig) OfferedLoad() float64 {
	return c.ArrivalRate * float64(c.TransferBytes) * 8 / float64(c.Rate)
}

// ChurnResult summarizes a churn run.
type ChurnResult struct {
	Config ChurnConfig

	// Arrivals counts flows that arrived in the window; Rejected those
	// dropped at the MaxFlows bound; Completed those fully acknowledged
	// before the drain deadline.
	Arrivals  int
	Rejected  int
	Completed int

	// FCTs holds completion times in seconds for completed flows.
	FCTs []float64
	// MeanFCT/P50/P95/P99 summarize FCTs (0 when none completed).
	MeanFCT, P50FCT, P95FCT, P99FCT float64

	// Utilization is the bottleneck busy fraction over the whole run.
	Utilization float64
	// Drops counts bottleneck drops.
	Drops uint64
}

// RunChurn executes one churn experiment.
func RunChurn(cfg ChurnConfig) (ChurnResult, error) {
	if err := cfg.validate(); err != nil {
		return ChurnResult{}, err
	}
	cfg = cfg.withDefaults()

	eng := sim.NewEngine()
	rng := sim.NewRNG(cfg.Seed)
	qlog := trace.NewQueueLog(1)

	nBG := len(cfg.Background)
	rtts := make([]sim.Time, cfg.MaxFlows+nBG)
	for i := 0; i < cfg.MaxFlows; i++ {
		rtts[i] = cfg.RTT
	}
	for i, f := range cfg.Background {
		rtts[cfg.MaxFlows+i] = f.RTT
	}
	discipline, _ := parseAQM(cfg.AQM)
	db := netem.NewDumbbell(eng, netem.DumbbellConfig{
		Rate:       cfg.Rate,
		Buffer:     cfg.Buffer,
		RTT:        rtts,
		OnDrop:     qlog.OnDrop,
		Discipline: discipline,
	})

	senders := make([]*tcp.Sender, cfg.MaxFlows+nBG)
	receivers := make([]*tcp.Receiver, cfg.MaxFlows+nBG)
	db.SetEndpoints(
		func(p packet.Packet) {
			if r := receivers[p.Flow]; r != nil {
				r.OnData(p)
			}
		},
		func(p packet.Packet) {
			if s := senders[p.Flow]; s != nil {
				s.OnAck(p)
			}
		},
	)

	res := ChurnResult{Config: cfg}
	factory, _ := cca.ByName(cfg.CCA)

	// Long-lived background flows occupy the slots above MaxFlows.
	for i, f := range cfg.Background {
		bgFactory, ok := cca.ByName(f.CCA)
		if !ok {
			return ChurnResult{}, fmt.Errorf("core: unknown background CCA %q", f.CCA)
		}
		slot := int32(cfg.MaxFlows + i)
		receivers[slot] = tcp.NewReceiver(eng, slot, tcp.DefaultReceiverConfig(), db.SendAck)
		senders[slot] = tcp.NewSender(eng, slot, tcp.Config{
			CCA:    bgFactory(units.MSS, rng.Split()),
			Output: db.SendData,
		})
		senders[slot].Start(0)
	}

	// Slot reuse: completed flows free their slot for later arrivals,
	// after a TIME_WAIT-style quarantine long enough for every stale
	// packet of the previous incarnation (queued data, returning ACKs)
	// to leave the network — otherwise a new flow would process the old
	// flow's sequence space.
	timeWait := 4 * (cfg.RTT + cfg.Rate.TransmissionTime(cfg.Buffer))
	free := make([]int32, 0, cfg.MaxFlows)
	for i := cfg.MaxFlows - 1; i >= 0; i-- {
		free = append(free, int32(i))
	}

	var schedule func()
	arrive := func() {
		res.Arrivals++
		if len(free) == 0 {
			res.Rejected++
			return
		}
		slot := free[len(free)-1]
		free = free[:len(free)-1]
		start := eng.Now()
		ctrl := factory(units.MSS, rng.Split())
		receivers[slot] = tcp.NewReceiver(eng, slot, tcp.DefaultReceiverConfig(), db.SendAck)
		senders[slot] = tcp.NewSender(eng, slot, tcp.Config{
			CCA:           ctrl,
			Output:        db.SendData,
			TransferBytes: cfg.TransferBytes,
			OnComplete: func() {
				res.Completed++
				res.FCTs = append(res.FCTs, (eng.Now() - start).Seconds())
				senders[slot] = nil
				receivers[slot] = nil
				eng.After(timeWait, func() { free = append(free, slot) })
			},
		})
		senders[slot].Start(eng.Now())
	}
	// Poisson arrivals over the window.
	schedule = func() {
		if eng.Now() >= cfg.Duration {
			return
		}
		arrive()
		gap := sim.Time(-math.Log(1-rng.Float64()) / cfg.ArrivalRate * float64(sim.Second))
		if gap < sim.Microsecond {
			gap = sim.Microsecond
		}
		eng.After(gap, schedule)
	}
	eng.Schedule(0, schedule)

	eng.Run(cfg.Duration + cfg.DrainTimeout)

	res.Utilization = db.Port().Utilization()
	res.Drops = qlog.Total()
	if len(res.FCTs) > 0 {
		res.MeanFCT = metrics.Mean(res.FCTs)
		res.P50FCT = metrics.Median(res.FCTs)
		res.P95FCT = metrics.Quantile(res.FCTs, 0.95)
		res.P99FCT = metrics.Quantile(res.FCTs, 0.99)
	}
	return res, nil
}
