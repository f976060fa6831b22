package core

import (
	"ccatscale/internal/budget"
	"ccatscale/internal/netem"
	"ccatscale/internal/packet"
	"ccatscale/internal/sim"
	"ccatscale/internal/units"
)

// DefaultDropTimestampCap is the drop-timestamp retention of the Mathis
// plan: large enough that burstiness scores stay statistically
// meaningful, small enough to bound the dominant trace allocation of a
// paper-scale run.
const DefaultDropTimestampCap = 1 << 20

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
		QueueSlotBytes:    netem.QueueSlotBytes,
		Horizon:           c.horizon(),
		SeriesInterval:    c.SeriesInterval,
		SeriesWidth:       width,
		MaxDropTimestamps: int64(c.MaxDropTimestamps),
	})
}
