package netem

import (
	"fmt"

	"ccatscale/internal/packet"
	"ccatscale/internal/sim"
	"ccatscale/internal/telemetry"
)

// A link's impairment stages are what the paper's testbed tool,
// tc-netem(8) on the receiving host, can add to a path: independent
// random loss and jitter, Gilbert–Elliott burst loss, and a
// deterministic outage schedule. The paper runs with "no random loss";
// iid loss calibrates the Mathis constant under the independent-loss
// assumption it was derived for, and the other two are the
// fault-injection axes of the burst-loss and link-flap extensions.
// Each is declared as LinkSpec data and built from it by buildStages.

// BurstLossSpec configures a Gilbert–Elliott stage in the two-parameter
// simple-Gilbert form: a target long-run loss rate delivered in bursts
// of a given mean length. MeanBurstLen = 1 isolates every drop, which
// at small MeanLoss is close to independent Bernoulli loss (whose mean
// burst length is 1/(1−MeanLoss)). It is plain data, so it serializes
// into link specs and failure records.
type BurstLossSpec struct {
	// MeanLoss is the stationary drop probability in [0, 1).
	MeanLoss float64 `json:"meanLoss"`
	// MeanBurstLen is the mean number of consecutive drops per loss
	// episode, ≥ 1.
	MeanBurstLen float64 `json:"meanBurstLen"`
}

// Validate rejects parameters outside the channel's domain.
func (s *BurstLossSpec) Validate() error {
	if s.MeanLoss < 0 || s.MeanLoss >= 1 {
		return fmt.Errorf("burst mean loss %v outside [0, 1)", s.MeanLoss)
	}
	if s.MeanBurstLen < 1 {
		return fmt.Errorf("burst mean length %v below 1 packet", s.MeanBurstLen)
	}
	return nil
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

// Validate rejects empty, negative and overlapping schedules.
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

// buildStages chains the stages the link declares (often none) in front
// of arriveFn, innermost first: iid loss and jitter, then burst loss,
// then the outage schedule outermost — a dark link is dark for
// everything behind it, and packets a hold-mode outage releases still
// cross the lossy channel. They sit at the far end, after propagation,
// where netem on the receiving host sits in the paper's testbed. Each
// stochastic stage takes one rng.Split(), iid before burst.
func (l *topoLink) buildStages(rng *sim.RNG, coll telemetry.Collector) {
	ls := &l.spec
	if ls.LossRate > 0 || ls.Jitter > 0 {
		l.iid = &iidStage{l: l, rng: rng.Split(), next: l.arrive}
		l.arrive = l.iid.send
	}
	if b := ls.BurstLoss; b != nil {
		leave := 1 / b.MeanBurstLen
		// stationary loss = enter/(enter+leave) = MeanLoss
		l.burst = &burstStage{l: l, rng: rng.Split(), next: l.arrive,
			leave: leave, enter: leave * b.MeanLoss / (1 - b.MeanLoss)}
		l.arrive = l.burst.send
	}
	if ls.Outage != nil {
		o := &outageStage{l: l, spec: *ls.Outage, tel: coll, next: l.arrive}
		if o.spec.Hold {
			// Release held packets at each window's end. The flush events
			// are scheduled up front, so they carry earlier sequence
			// numbers than any packet event at the same timestamp and
			// FIFO order is preserved for traffic arriving exactly then.
			for k := 0; k < o.spec.Count; k++ {
				l.t.eng.Schedule(o.start(k)+o.spec.Down, o.flush)
			}
		}
		l.outage = o
		l.arrive = o.send
	}
}

// iidStage applies independent per-packet loss, then a uniform random
// delay in [0, Jitter). Each packet draws its own delay and may overtake
// its predecessor, as under tc-netem without a reorder queue, so a
// jittered packet waits in an event of its own — a delivery from the
// stage's free list — rather than in a lane.
type iidStage struct {
	l       *topoLink
	rng     *sim.RNG
	next    RefSink
	free    []*delivery
	dropped uint64
}

// delivery is a jittered packet and a callback bound once to deliver it
// and return the struct to its stage's free list, so scheduling one
// costs no allocation in steady state.
type delivery struct {
	p  packet.Packet
	s  *iidStage
	fn func()
}

func (s *iidStage) send(p *packet.Packet) {
	ls := &s.l.spec
	if ls.LossRate > 0 && s.rng.Float64() < ls.LossRate {
		s.dropped++
		s.l.stageDrop(p)
		return
	}
	if ls.Jitter <= 0 {
		s.next(p)
		return
	}
	var d *delivery
	if n := len(s.free); n > 0 {
		d, s.free = s.free[n-1], s.free[:n-1]
	} else {
		d = &delivery{s: s}
		d.fn = d.run
	}
	d.p = *p
	s.l.t.eng.After(s.rng.Dur(ls.Jitter), d.fn)
}

// run hands the next stage the packet where it lies, then recycles the
// struct; traffic the delivery causes through the same stage meanwhile
// draws another.
func (d *delivery) run() {
	d.s.next(&d.p)
	d.s.free = append(d.s.free, d)
}

// burstStage is the simple Gilbert channel (Gilbert 1960), the two-state
// special case of Gilbert–Elliott in which every packet that meets the
// Bad state is lost and none that meets Good is: bursty loss, the regime
// where the Mathis/Padhye independent-loss assumption breaks down. The
// channel starts Good; after each packet it leaves Bad with probability
// leave = 1/MeanBurstLen and enters it from Good with probability enter.
type burstStage struct {
	l            *topoLink
	rng          *sim.RNG
	next         RefSink
	leave, enter float64
	bad          bool
	dropped      uint64
}

func (s *burstStage) send(p *packet.Packet) {
	drop := s.bad
	// The transition follows the loss decision, so a burst's first
	// packet is decided by the state it arrived in.
	if s.bad {
		if s.rng.Float64() < s.leave {
			s.bad = false
		}
	} else if s.enter > 0 && s.rng.Float64() < s.enter {
		s.bad = true
	}
	if drop {
		s.dropped++
		s.l.stageDrop(p)
		return
	}
	s.next(p)
}

// outageStage darkens the link over the windows [Start + k·Period,
// Start + k·Period + Down), k < Count; validation admits Count > 1 only
// with Period ≥ Down. It consumes no randomness. A packet offered
// in a window is dropped, or under Hold parked until the window ends.
type outageStage struct {
	l    *topoLink
	spec OutageSpec
	tel  telemetry.Collector
	next RefSink

	idx  int // first window whose end is still in the future
	held []packet.Packet

	telIdx  int  // first window whose link-up is still unannounced
	telDown bool // window telIdx's link-down emitted

	dropped uint64
}

// start returns window k's start time.
func (o *outageStage) start(k int) sim.Time { return o.spec.Start + sim.Time(k)*o.spec.Period }

// dark reports whether the link is dark at time t. t must be
// non-decreasing across calls (virtual time is).
func (o *outageStage) dark(t sim.Time) bool {
	for o.idx < o.spec.Count && o.start(o.idx)+o.spec.Down <= t {
		o.idx++
	}
	return o.idx < o.spec.Count && t >= o.start(o.idx)
}

// noteTransitions emits the link-down/link-up events of the windows
// crossed since the last observation. Transitions are detected lazily at
// packet observation points, but each event carries the exact window
// bound as its timestamp, A = window index, and B = window length in
// virtual nanoseconds.
func (o *outageStage) noteTransitions(dark bool) {
	emit := func(k int, kind telemetry.Kind, at sim.Time) {
		o.tel.Emit(telemetry.Event{Time: at, Kind: kind, Flow: -1, A: int64(k), B: int64(o.spec.Down)})
	}
	for ; o.telIdx < o.idx; o.telIdx++ {
		ws := o.start(o.telIdx)
		if !o.telDown {
			emit(o.telIdx, telemetry.KindLinkDown, ws)
		}
		emit(o.telIdx, telemetry.KindLinkUp, ws+o.spec.Down)
		o.telDown = false
	}
	if dark && !o.telDown {
		emit(o.idx, telemetry.KindLinkDown, o.start(o.idx))
		o.telDown = true
	}
}

func (o *outageStage) send(p *packet.Packet) {
	dark := o.dark(o.l.t.eng.Now())
	if o.tel != nil {
		o.noteTransitions(dark)
	}
	switch {
	case !dark:
		o.next(p)
	case o.spec.Hold:
		o.held = append(o.held, *p)
	default:
		o.dropped++
		o.l.stageDrop(p)
	}
}

// flush releases every held packet in arrival order.
func (o *outageStage) flush() {
	if o.tel != nil {
		o.noteTransitions(o.dark(o.l.t.eng.Now()))
	}
	held := o.held
	o.held = nil
	for i := range held {
		o.next(&held[i])
	}
}
