package core

import (
	"fmt"
	"math"

	"ccatscale/internal/cca"
	"ccatscale/internal/metrics"
	"ccatscale/internal/sim"
	"ccatscale/internal/units"
)

// ArrivalSpec adds the axis the paper's Limitations section names —
// "arrival and departures of new flows" — to a run: finite transfers
// arriving as a Poisson process over [0, Warmup+Duration), measured by
// flow completion time. With long-lived RunConfig.Flows it is the classic
// mice-vs-elephants scenario: under drop-tail the elephants pin the
// buffer and every short transfer pays the standing-queue delay.
type ArrivalSpec struct {
	// CCA is the algorithm every transfer uses.
	CCA string
	// RTT is the base round-trip time of every transfer.
	RTT sim.Time
	// PerSecond is the Poisson arrival intensity in transfers/second.
	PerSecond float64
	// TransferBytes is each transfer's size (a fixed size keeps the
	// offered load interpretable; mixes are built by running sweeps).
	TransferBytes units.ByteCount
	// MaxFlows bounds concurrently tracked transfers; arrivals beyond
	// the bound are rejected and counted (0 = 4096).
	MaxFlows int `json:",omitempty"`
	// Drain extends the run past the arrival window so in-flight
	// transfers can finish (0 = 30 s).
	Drain sim.Time `json:",omitempty"`
}

func (a *ArrivalSpec) validate() error {
	if a.PerSecond <= 0 {
		return fmt.Errorf("core: arrivals need a positive arrival rate")
	}
	if a.TransferBytes <= 0 {
		return fmt.Errorf("core: arrivals need a positive transfer size")
	}
	if _, ok := cca.ByName(a.CCA); !ok {
		return fmt.Errorf("core: arrivals have unknown CCA %q", a.CCA)
	}
	return nil
}

// ArrivalStats summarizes a run's arrival process.
type ArrivalStats struct {
	// Arrived counts transfers that arrived in the window; Rejected
	// those turned away at the MaxFlows bound; Completed those fully
	// acknowledged before the run ended.
	Arrived   int
	Rejected  int
	Completed int
	// Drops counts queue drops over the whole run, persistent flows'
	// included.
	Drops uint64
	// FCTs holds completion times in seconds, in completion order.
	FCTs []float64
}

// MeanFCT returns the mean completion time (0 when none completed).
func (s *ArrivalStats) MeanFCT() float64 { return metrics.Mean(s.FCTs) }

// FCTQuantile returns the q-quantile of the completion times (0 when
// none completed).
func (s *ArrivalStats) FCTQuantile(q float64) float64 { return metrics.Quantile(s.FCTs, q) }

// startArrivals schedules the Poisson arrival process: one r.rng.Split()
// per admitted transfer, one r.rng.Float64() per gap, in arrival order.
func (r *run) startArrivals() {
	cfg, eng, a := &r.cfg, r.eng, r.cfg.Arrivals
	stats := &ArrivalStats{}
	r.arrivals = stats
	factory, _ := cca.ByName(a.CCA)
	window := cfg.Warmup + cfg.Duration

	// Slot reuse: completed transfers free their flow ID for later
	// arrivals, after a TIME_WAIT-style quarantine long enough for every
	// stale packet of the previous incarnation (queued data, returning
	// ACKs) to leave the network — otherwise a new transfer would process
	// the old one's sequence space.
	timeWait := 4 * (a.RTT + cfg.Rate.TransmissionTime(cfg.Buffer))
	free := make([]int32, 0, cfg.slots()-len(cfg.Flows))
	for id := cfg.slots() - 1; id >= len(cfg.Flows); id-- {
		free = append(free, int32(id))
	}

	var arrive func()
	arrive = func() {
		if eng.Now() >= window {
			return
		}
		stats.Arrived++
		if len(free) == 0 {
			stats.Rejected++
		} else {
			id := free[len(free)-1]
			free = free[:len(free)-1]
			start := eng.Now()
			r.connect(id, factory(cfg.MSS, r.rng.Split()), a.TransferBytes, func() {
				stats.Completed++
				stats.FCTs = append(stats.FCTs, (eng.Now() - start).Seconds())
				r.senders[id], r.receivers[id] = nil, nil
				eng.After(timeWait, func() { free = append(free, id) })
			})
			r.senders[id].Start(start)
		}
		// Float64 inlines to a product; float64() keeps it out of a
		// fused multiply-subtract.
		gap := sim.Time(-math.Log(1-float64(r.rng.Float64())) / a.PerSecond * float64(sim.Second))
		if gap < sim.Microsecond {
			gap = sim.Microsecond
		}
		eng.After(gap, arrive)
	}
	eng.Schedule(0, arrive)
}

// ChurnLoads are the offered loads, as fractions of the bottleneck
// rate, the churn sweep compares.
var ChurnLoads = []float64{0.3, 0.6, 0.9}

// ChurnTransferBytes is the size of every transfer of the churn sweep.
const ChurnTransferBytes = 500 * units.KB

// ChurnConfigs is the plan of the flow-churn extension: transfers of
// one CCA at the default RTT arriving on the setting's otherwise empty
// bottleneck over its measurement window, one run per ChurnLoads entry,
// all under the same seed.
func ChurnConfigs(s Setting, ccaName string, seed uint64) []RunConfig {
	cfgs := make([]RunConfig, len(ChurnLoads))
	for i, load := range ChurnLoads {
		cfg := s.Build(nil, seed)
		// No population to warm up or stagger: arrivals start at t=0.
		cfg.Warmup, cfg.Stagger = 0, 0
		cfg.Arrivals = &ArrivalSpec{
			CCA:           ccaName,
			RTT:           DefaultRTT,
			PerSecond:     load * float64(s.Rate) / (float64(ChurnTransferBytes) * 8),
			TransferBytes: ChurnTransferBytes,
		}
		cfgs[i] = cfg
	}
	return cfgs
}
