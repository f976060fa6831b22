package core

import (
	"ccatscale/internal/budget"
	"ccatscale/internal/netem"
	"ccatscale/internal/packet"
	"ccatscale/internal/sim"
	"ccatscale/internal/units"
)

// DefaultDropTimestampCap is the drop-timestamp retention a degraded
// run falls back to when the original configuration kept every
// timestamp: large enough that burstiness scores stay statistically
// meaningful, small enough to bound the dominant trace allocation.
const DefaultDropTimestampCap = 1 << 20

// minDropTimestampCap floors degradation: below a few thousand samples
// the Goh–Barabási burstiness estimate is noise, so further tiers stop
// shrinking the drop log and shed cost elsewhere.
const minDropTimestampCap = 4096

// minDegradedDuration floors measurement-window shrinking so a maximally
// degraded run still measures something.
const minDegradedDuration = sim.Second

// EstimateConfig adapts a RunConfig into the footprint model's input and
// returns the predicted cost. It applies the same defaults Run would
// (MSS, implied queue sizing) so admission control judges the
// configuration that would actually execute.
func EstimateConfig(cfg RunConfig) budget.Footprint {
	c := cfg.withDefaults()
	var maxRTT sim.Time
	ccas := map[string]bool{}
	for _, f := range c.Flows {
		if f.RTT > maxRTT {
			maxRTT = f.RTT
		}
		ccas[f.CCA] = true
	}
	if c.Arrivals != nil && c.Arrivals.RTT > maxRTT {
		maxRTT = c.Arrivals.RTT
	}
	width := 0
	if c.SeriesInterval > 0 {
		width = len(ccas)
	}
	// A run's event cost is governed by its slowest link (the primary
	// bottleneck paces every path through it), while memory scales with
	// the sum of all queues: each link owns a ring sized for its own
	// buffer.
	spec, _ := c.fabricSpec(nil)
	rate, _ := spec.MinRate()
	var buffer units.ByteCount
	var slots int64
	for _, l := range spec.Links {
		buffer += l.Buffer
		slots += int64(netem.RingSlotsFor(l.Buffer))
	}
	return budget.Estimate(budget.Input{
		Flows:             c.slots(), // every transfer slot priced as a live flow
		RateBps:           int64(rate),
		BufferBytes:       int64(buffer),
		BDPBytes:          int64(units.BDP(rate, maxRTT)),
		FrameBytes:        int64(c.MSS + packet.HeaderBytes),
		SegmentBytes:      int64(c.MSS),
		QueueSlots:        slots,
		QueueSlotBytes:    packet.StructBytes,
		Horizon:           c.horizon(),
		SeriesInterval:    c.SeriesInterval,
		SeriesWidth:       width,
		MaxDropTimestamps: int64(c.MaxDropTimestamps),
	})
}

// DegradeTier returns cfg degraded to the given fidelity tier, the
// reduced-fidelity retry ladder after a budget breach. Each tier above
// the config's current one coarsens the throughput series (interval
// doubles), halves the retained drop-timestamp cap (bounding it first if
// it was unbounded), and from tier 2 on halves the measurement window.
// The tier is recorded in the returned config's Fidelity field, and
// flows through RunResult.Usage.MaxFidelity, so degraded results are
// always marked. Degradation is deterministic: the same (cfg, tier)
// always yields the same config, and a degraded run is itself exactly
// reproducible from its config snapshot.
func DegradeTier(cfg RunConfig, tier int) RunConfig {
	if tier <= cfg.Fidelity {
		return cfg
	}
	out := cfg
	for step := cfg.Fidelity + 1; step <= tier; step++ {
		if out.SeriesInterval > 0 {
			out.SeriesInterval *= 2
		}
		if out.MaxDropTimestamps == 0 {
			out.MaxDropTimestamps = DefaultDropTimestampCap
		}
		if out.MaxDropTimestamps > minDropTimestampCap {
			out.MaxDropTimestamps /= 2
			if out.MaxDropTimestamps < minDropTimestampCap {
				out.MaxDropTimestamps = minDropTimestampCap
			}
		}
		if step >= 2 && out.Duration/2 >= minDegradedDuration {
			out.Duration /= 2
		}
	}
	out.Fidelity = tier
	return out
}
