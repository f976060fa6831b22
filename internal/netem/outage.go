package netem

import (
	"fmt"

	"ccatscale/internal/packet"
	"ccatscale/internal/sim"
	"ccatscale/internal/telemetry"
	"ccatscale/internal/units"
)

// OutageWindow is one interval of virtual time [Start, End) during
// which the link is dark.
type OutageWindow struct {
	Start, End sim.Time
}

// OutagePolicy selects what happens to packets offered while the link
// is dark.
type OutagePolicy int

const (
	// OutageDrop discards packets arriving during an outage — the
	// behavior of a pulled cable or a wireless deep fade.
	OutageDrop OutagePolicy = iota
	// OutageHold parks arriving packets (up to HoldCapacity) and
	// releases them in order at the outage's end — the behavior of an
	// upstream buffer that keeps queueing while the interface is down.
	OutageHold
)

// OutageConfig describes a deterministic link outage/flap schedule.
type OutageConfig struct {
	// Windows are the dark intervals, sorted by Start and
	// non-overlapping.
	Windows []OutageWindow
	// Policy selects drop vs hold (default OutageDrop).
	Policy OutagePolicy
	// HoldCapacity caps held wire bytes under OutageHold; beyond it
	// packets tail-drop. 0 means unlimited.
	HoldCapacity units.ByteCount
	// OnDrop observes outage drops; may be nil.
	OnDrop DropFunc
	// Telemetry receives link-down/link-up events bracketing each
	// window (nil = off). Transitions are detected lazily at packet
	// observation points but stamped with the exact window boundaries.
	Telemetry telemetry.Collector
}

// Flaps builds a periodic flap schedule: count outages of length down,
// the first starting at first, subsequent ones every period.
func Flaps(first, down, period sim.Time, count int) []OutageWindow {
	if count <= 0 || down <= 0 {
		return nil
	}
	if period <= 0 {
		count = 1
	}
	out := make([]OutageWindow, 0, count)
	for i := 0; i < count; i++ {
		start := first + sim.Time(i)*period
		out = append(out, OutageWindow{Start: start, End: start + down})
	}
	return out
}

// OutageSpec schedules deterministic link outages (flaps) as plain
// data: Count dark windows of length Down, the first at Start, repeating
// every Period. The schedule is configuration, not randomness, so runs
// remain bit-identical under a fixed seed.
type OutageSpec struct {
	// Start is the first outage's start time.
	Start sim.Time `json:"startNs"`
	// Down is each outage's duration.
	Down sim.Time `json:"downNs"`
	// Period is the flap period (0 with Count 1 = a single outage).
	Period sim.Time `json:"periodNs"`
	// Count is the number of outages (≥ 1).
	Count int `json:"count"`
	// Hold parks in-flight packets and releases them when the link
	// returns instead of dropping them.
	Hold bool `json:"hold,omitempty"`
}

// Validate rejects schedules NewOutage would panic on.
func (s *OutageSpec) Validate() error {
	if s.Start < 0 {
		return fmt.Errorf("outage start %v negative", s.Start)
	}
	if s.Down <= 0 {
		return fmt.Errorf("outage down-time %v not positive", s.Down)
	}
	if s.Count < 1 {
		return fmt.Errorf("outage count %d below 1", s.Count)
	}
	if s.Count > 1 && s.Period < s.Down {
		return fmt.Errorf("outage period %v shorter than down-time %v: windows overlap", s.Period, s.Down)
	}
	return nil
}

// Outage is the link-outage impairment element. Unlike the stochastic
// elements, its schedule is part of the configuration, so runs are
// deterministic without consuming any randomness — two runs with the
// same schedule see bit-identical dark periods.
type Outage struct {
	eng *sim.Engine
	out RefSink
	cfg OutageConfig

	idx       int // first window whose End is still in the future
	held      []packet.Packet
	heldBytes units.ByteCount

	telIdx  int  // first window whose link-up is still unannounced
	telDown bool // current window's link-down emitted

	passed  uint64
	dropped uint64
	flushed uint64
}

// NewOutage creates the element delivering into out. The schedule must
// lie entirely at or after the engine's current time.
func NewOutage(eng *sim.Engine, cfg OutageConfig, out RefSink) *Outage {
	if out == nil {
		panic("netem: outage without sink")
	}
	if cfg.HoldCapacity < 0 {
		panic("netem: negative outage hold capacity")
	}
	for i, w := range cfg.Windows {
		if w.End <= w.Start {
			panic(fmt.Sprintf("netem: outage window %d is empty or inverted (%v..%v)", i, w.Start, w.End))
		}
		if w.Start < eng.Now() {
			panic(fmt.Sprintf("netem: outage window %d starts in the past", i))
		}
		if i > 0 && w.Start < cfg.Windows[i-1].End {
			panic(fmt.Sprintf("netem: outage windows %d and %d overlap or are unsorted", i-1, i))
		}
	}
	o := &Outage{eng: eng, out: out, cfg: cfg}
	if cfg.Policy == OutageHold {
		// Release held packets at each window's end. The flush events
		// are scheduled up front, so they carry earlier sequence numbers
		// than any packet event at the same timestamp and FIFO order is
		// preserved for traffic arriving exactly at End.
		for _, w := range cfg.Windows {
			o.eng.Schedule(w.End, o.flush)
		}
	}
	return o
}

// Dark reports whether the link is dark at time t. t must be
// non-decreasing across calls (virtual time is).
func (o *Outage) Dark(t sim.Time) bool {
	for o.idx < len(o.cfg.Windows) && o.cfg.Windows[o.idx].End <= t {
		o.idx++
	}
	return o.idx < len(o.cfg.Windows) && t >= o.cfg.Windows[o.idx].Start
}

// noteTransitions emits any link-down/link-up events implied by the
// schedule positions crossed since the last observation. Events carry
// the exact window boundary as their timestamp, A = window index, and
// B = window length in virtual nanoseconds.
func (o *Outage) noteTransitions(dark bool) {
	for o.telIdx < o.idx {
		w := o.cfg.Windows[o.telIdx]
		if !o.telDown {
			o.cfg.Telemetry.Emit(telemetry.Event{
				Time: w.Start, Kind: telemetry.KindLinkDown,
				Flow: -1, A: int64(o.telIdx), B: int64(w.End - w.Start),
			})
		}
		o.cfg.Telemetry.Emit(telemetry.Event{
			Time: w.End, Kind: telemetry.KindLinkUp,
			Flow: -1, A: int64(o.telIdx), B: int64(w.End - w.Start),
		})
		o.telIdx++
		o.telDown = false
	}
	if dark && !o.telDown {
		w := o.cfg.Windows[o.idx]
		o.cfg.Telemetry.Emit(telemetry.Event{
			Time: w.Start, Kind: telemetry.KindLinkDown,
			Flow: -1, A: int64(o.idx), B: int64(w.End - w.Start),
		})
		o.telDown = true
	}
}

// Send offers one packet to the link; a held packet is copied into the
// hold buffer.
func (o *Outage) Send(p *packet.Packet) {
	dark := o.Dark(o.eng.Now())
	if o.cfg.Telemetry != nil {
		o.noteTransitions(dark)
	}
	if !dark {
		o.passed++
		o.out(p)
		return
	}
	if o.cfg.Policy == OutageHold {
		if o.cfg.HoldCapacity == 0 || o.heldBytes+p.WireBytes() <= o.cfg.HoldCapacity {
			o.held = append(o.held, *p)
			o.heldBytes += p.WireBytes()
			return
		}
	}
	o.dropped++
	if o.cfg.OnDrop != nil {
		o.cfg.OnDrop(o.eng.Now(), *p)
	}
}

// flush releases every held packet in arrival order.
func (o *Outage) flush() {
	if o.cfg.Telemetry != nil {
		o.noteTransitions(o.Dark(o.eng.Now()))
	}
	held := o.held
	o.held = nil
	o.heldBytes = 0
	for i := range held {
		o.flushed++
		o.out(&held[i])
	}
}

// Passed returns packets delivered while the link was up.
func (o *Outage) Passed() uint64 { return o.passed }

// Dropped returns packets discarded during outages.
func (o *Outage) Dropped() uint64 { return o.dropped }

// Flushed returns held packets released at outage ends.
func (o *Outage) Flushed() uint64 { return o.flushed }

// Held returns the packets currently parked.
func (o *Outage) Held() int { return len(o.held) }
