package tcp

import (
	"sort"

	"ccatscale/internal/audit"
	"ccatscale/internal/packet"
	"ccatscale/internal/sim"
	"ccatscale/internal/units"
)

// Delayed-ACK and receive-offload parameters (RFC 1122 / Linux
// defaults).
const (
	// DelayedAckTimeout is the maximum time an ACK may be withheld.
	DelayedAckTimeout = 40 * sim.Millisecond

	// ackEverySegments acknowledges at least every second delivered
	// unit.
	ackEverySegments = 2

	// GROWindow is the default same-flow coalescing gap of the modeled
	// receive offload (GRO + NIC interrupt coalescing). Same-flow
	// segments that exit the bottleneck within this gap of each other
	// are aggregated and acknowledged with a single stretch ACK, as a
	// Linux receiver at ≥Gbps NIC rates does. At 100 Mbps a full-size
	// frame serializes in 121 µs, so EdgeScale traffic never coalesces
	// and plain delayed ACKs govern; at many Gbps, back-to-back runs
	// coalesce up to GROMaxSegments. This receive-path asymmetry is what
	// turns the at-scale sender into a micro-burst source — the
	// mechanism behind the paper's bursty at-scale losses (Finding 3).
	GROWindow = 100 * sim.Microsecond

	// GROMaxSegments caps one aggregate (64 KB of 1448-byte segments).
	GROMaxSegments = 44
)

// ReceiverConfig parameterizes the receive path.
type ReceiverConfig struct {
	// DelAckDelay is the delayed-ACK timeout; ≤0 disables delayed ACKs
	// (every delivered unit is acknowledged immediately).
	DelAckDelay sim.Time
	// GROWindow is the same-flow coalescing gap; ≤0 disables receive
	// offload.
	GROWindow sim.Time
	// GROMaxSegments caps a single aggregate; 0 picks GROMaxSegments.
	GROMaxSegments int
	// Audit enables the reassembly invariant checks (nil = off).
	Audit *audit.Auditor
}

// DefaultReceiverConfig models the paper's testbed receivers: Linux
// delayed ACKs plus GRO/interrupt coalescing.
func DefaultReceiverConfig() ReceiverConfig {
	return ReceiverConfig{
		DelAckDelay:    DelayedAckTimeout,
		GROWindow:      GROWindow,
		GROMaxSegments: GROMaxSegments,
	}
}

// ReceiverStats is a snapshot of receiver-side counters.
type ReceiverStats struct {
	// Delivered is the number of in-order bytes delivered to the
	// application (the goodput numerator for throughput metrics).
	Delivered units.ByteCount
	// SegmentsReceived counts all data segment arrivals.
	SegmentsReceived uint64
	// DuplicateSegments counts arrivals entirely below rcv.nxt
	// (spurious retransmissions).
	DuplicateSegments uint64
	// OutOfOrderSegments counts arrivals above rcv.nxt.
	OutOfOrderSegments uint64
	// AcksSent counts acknowledgments emitted.
	AcksSent uint64
	// StretchAcks counts ACKs that covered a coalesced run of more
	// than ackEverySegments segments.
	StretchAcks uint64
	// CESegments counts data arrivals carrying a CE mark.
	CESegments uint64
}

// oooRange is a received out-of-order byte range with a recency stamp
// for SACK block ordering.
type oooRange struct {
	start, end int64
	touched    uint64
}

// rateEcho is the delivery-rate sampling state of one data segment
// (packet.Packet's Delivered, DeliveredAt, FirstSentAt, SentAt and
// AppLimited), as the receiver hands it back in an ACK.
type rateEcho struct {
	delivered   int64
	deliveredAt sim.Time
	firstSentAt sim.Time
	sentAt      sim.Time
	appLimited  bool
}

// Receiver is the data sink side of a connection: it reassembles the
// byte stream, generates cumulative and selective acknowledgments, and
// models the delayed-ACK and receive-offload behavior of the paper's
// Linux receivers.
type Receiver struct {
	eng  *sim.Engine
	flow int32
	out  func(packet.Packet)
	cfg  ReceiverConfig

	rcvNxt int64
	// ooo is sorted by start and disjoint. It is edited in place, so its
	// backing array grows only when a loss episode leaves more ranges
	// standing than any before it on this flow.
	ooo   []oooRange
	touch uint64 // last recency stamp handed out; stamps are unique

	// Delayed-ACK state: delivered units since the last ACK.
	delAck  *sim.Timer
	pending int

	// Receive-offload state: the in-progress same-flow aggregate.
	groTimer *sim.Timer
	groRun   int

	// ECN echo latch (RFC 3168 §6.1.3): set on any CE arrival, echoed
	// as ECE on every ACK until the sender confirms its reduction with
	// CWR. Never set without CE marks, so non-ECN runs are untouched.
	eceLatch bool

	// Echo state for the next (possibly delayed) ACK — the fields of
	// the arriving segments that sendAck reads, not the segments: RTT
	// fields come from the oldest unacknowledged arrival, rate fields
	// from the newest.
	haveOldest    bool
	oldestSentAt  sim.Time
	oldestRetrans bool
	newest        rateEcho

	stats ReceiverStats

	// sack[:nsack] are the most recently touched ranges of ooo, newest
	// first: the top of ooo by stamp, which is what an ACK carries.
	// Edits keep it exact but may leave it short; sackStale marks that
	// it holds fewer than min(len(sack), len(ooo)) entries, and the
	// next ACK refills it from ooo. It comes last so the fields every
	// segment touches keep their cache lines.
	sack      [packet.MaxSackBlocks]oooRange
	nsack     int
	sackStale bool
}

// NewReceiver creates a receiver for the given flow, emitting ACKs via
// out.
func NewReceiver(eng *sim.Engine, flow int32, cfg ReceiverConfig, out func(packet.Packet)) *Receiver {
	if cfg.GROMaxSegments <= 0 {
		cfg.GROMaxSegments = GROMaxSegments
	}
	r := &Receiver{eng: eng, flow: flow, out: out, cfg: cfg}
	r.delAck = sim.NewTimer(eng, r.onDelAckTimeout)
	r.groTimer = sim.NewTimer(eng, r.onGROFlush)
	return r
}

// Stats returns a snapshot of the receiver counters.
func (r *Receiver) Stats() ReceiverStats {
	s := r.stats
	s.Delivered = units.ByteCount(r.rcvNxt)
	return s
}

// RcvNxt returns the next expected byte (cumulative ACK point).
func (r *Receiver) RcvNxt() int64 { return r.rcvNxt }

// OnData is OnDataRef by value, for callers outside the module.
func (r *Receiver) OnData(p packet.Packet) { r.OnDataRef(&p) }

// OnDataRef processes one arriving data segment. p is read only, and
// not after the call returns.
func (r *Receiver) OnDataRef(p *packet.Packet) {
	if r.cfg.Audit != nil {
		prev := r.rcvNxt
		r.onData(p)
		r.auditReassembly(prev)
		return
	}
	r.onData(p)
}

func (r *Receiver) onData(p *packet.Packet) {
	r.stats.SegmentsReceived++
	// CWR clears the echo latch before CE can re-arm it: a packet
	// carrying both announces the reduction and a fresh mark after it.
	if p.CWR {
		r.eceLatch = false
	}
	if p.CE {
		r.eceLatch = true
		r.stats.CESegments++
	}
	// Echo state is taken before the segment is classified: a spurious
	// retransmission that opens a delayed-ACK interval is still its
	// oldest echo, and still suppresses the RTT sample.
	if !r.haveOldest {
		r.oldestSentAt, r.oldestRetrans = p.SentAt, p.Retrans
		r.haveOldest = true
	}
	r.newest = rateEcho{
		delivered:   p.Delivered,
		deliveredAt: p.DeliveredAt,
		firstSentAt: p.FirstSentAt,
		sentAt:      p.SentAt,
		appLimited:  p.AppLimited,
	}
	switch {
	case p.End() <= r.rcvNxt:
		// Entirely old: a spurious retransmission. Re-ACK immediately
		// so the sender can move on.
		r.stats.DuplicateSegments++
		r.forceAck()
	case p.Seq == r.rcvNxt:
		r.rcvNxt = p.End()
		hadHoles := r.mergeContiguous()
		if hadHoles || len(r.ooo) > 0 {
			// Immediate ACK while reordering/loss is visible (RFC 5681
			// §4.2).
			r.forceAck()
			return
		}
		r.groRun++
		if r.cfg.GROWindow <= 0 || r.groRun >= r.cfg.GROMaxSegments {
			r.flushRun()
			return
		}
		// Keep aggregating while the same-flow run continues; flush
		// when the inter-arrival gap opens up.
		r.groTimer.Reset(r.cfg.GROWindow)
	default:
		// Out of order: record and ACK immediately (duplicate ACK with
		// SACK information).
		r.stats.OutOfOrderSegments++
		r.insertOOO(p.Seq, p.End())
		r.forceAck()
	}
}

// auditReassembly validates the reassembly state after one segment:
// rcv.nxt never moves backwards, and the out-of-order set is sorted,
// disjoint, and strictly above rcv.nxt (a range at or below it should
// have been merged). The kept SACK list holds only ranges of the set,
// newest first, none twice, and is full unless marked stale. prevNxt is
// rcv.nxt before the segment was applied.
func (r *Receiver) auditReassembly(prevNxt int64) {
	a := r.cfg.Audit
	if r.rcvNxt < prevNxt {
		a.Reportf("tcp/rcvnxt-regressed", r.flow,
			"rcv.nxt moved backwards: %d -> %d", prevNxt, r.rcvNxt)
	}
	prevEnd := r.rcvNxt
	for i, rng := range r.ooo {
		if rng.start >= rng.end {
			a.Reportf("tcp/ooo-empty-range", r.flow,
				"out-of-order range %d is empty: [%d, %d)", i, rng.start, rng.end)
		}
		if rng.start <= prevEnd {
			a.Reportf("tcp/ooo-overlap", r.flow,
				"out-of-order range %d [%d, %d) not strictly above %d (rcv.nxt or previous range)",
				i, rng.start, rng.end, prevEnd)
		}
		prevEnd = rng.end
	}
	list := r.sack[:r.nsack]
	for i, rng := range list {
		k := sort.Search(len(r.ooo), func(k int) bool { return r.ooo[k].start >= rng.start })
		if k == len(r.ooo) || r.ooo[k] != rng {
			a.Reportf("tcp/sack-list-unknown", r.flow,
				"SACK list entry %d [%d, %d) stamp %d is not an out-of-order range",
				i, rng.start, rng.end, rng.touched)
		}
		if i > 0 && rng.touched >= list[i-1].touched {
			a.Reportf("tcp/sack-list-order", r.flow,
				"SACK list entry %d stamp %d not below entry %d's %d",
				i, rng.touched, i-1, list[i-1].touched)
		}
		for k := 0; k < i; k++ {
			if list[k].start == rng.start {
				a.Reportf("tcp/sack-list-repeat", r.flow,
					"SACK list entries %d and %d both hold the range at %d", k, i, rng.start)
			}
		}
	}
	if want := min(len(r.sack), len(r.ooo)); !r.sackStale && r.nsack != want {
		a.Reportf("tcp/sack-list-short", r.flow,
			"SACK list holds %d entries and is not marked stale, want %d", r.nsack, want)
	}
}

// forceAck folds any in-progress aggregate into one immediately-sent
// acknowledgment.
func (r *Receiver) forceAck() {
	r.pending += r.groRun
	r.groRun = 0
	r.groTimer.Stop()
	r.sendAck()
}

// onGROFlush fires when the coalescing gap elapses without another
// same-flow segment.
func (r *Receiver) onGROFlush() { r.flushRun() }

// flushRun delivers the in-progress aggregate to the ACK policy: runs
// of two or more segments are acknowledged immediately (a stretch ACK);
// single segments go through classic delayed-ACK accounting.
func (r *Receiver) flushRun() {
	run := r.groRun
	r.groRun = 0
	r.groTimer.Stop()
	if run == 0 {
		return
	}
	r.pending += run
	if r.pending >= ackEverySegments || r.cfg.DelAckDelay <= 0 {
		r.sendAck()
		return
	}
	if !r.delAck.Pending() {
		r.delAck.Reset(r.cfg.DelAckDelay)
	}
}

// mergeContiguous folds out-of-order ranges now contiguous with rcvNxt
// and reports whether any hole existed before this call.
func (r *Receiver) mergeContiguous() bool {
	had := len(r.ooo) > 0
	n := 0
	for n < len(r.ooo) && r.ooo[n].start <= r.rcvNxt {
		if r.ooo[n].end > r.rcvNxt {
			r.rcvNxt = r.ooo[n].end
		}
		n++
	}
	if n > 0 {
		// Survivors move down to the front. Re-slicing from n instead
		// would walk the slice off the front of its array, whose
		// capacity the next episode could then not reuse.
		r.ooo = r.ooo[:copy(r.ooo, r.ooo[n:])]
		r.dropListed(0, r.rcvNxt)
		r.updateStale()
	}
	return had
}

// dropListed removes the SACK list entries that lie within [lo, hi):
// the ranges a merge absorbed, or the ones the cumulative point passed.
func (r *Receiver) dropListed(lo, hi int64) {
	n := 0
	for _, rng := range r.sack[:r.nsack] {
		if rng.start < lo || rng.end > hi {
			r.sack[n] = rng
			n++
		}
	}
	r.nsack = n
}

// updateStale records whether the SACK list holds fewer ranges than
// the set could fill it with.
func (r *Receiver) updateStale() {
	r.sackStale = r.nsack < min(len(r.sack), len(r.ooo))
}

// insertOOO records [start, end) in the sorted disjoint range set,
// merging it with every range it overlaps or touches. The merged range
// takes a fresh recency stamp.
func (r *Receiver) insertOOO(start, end int64) {
	r.touch++
	i := sort.Search(len(r.ooo), func(i int) bool { return r.ooo[i].end >= start })
	j := i
	for j < len(r.ooo) && r.ooo[j].start <= end {
		if r.ooo[j].start < start {
			start = r.ooo[j].start
		}
		if r.ooo[j].end > end {
			end = r.ooo[j].end
		}
		j++
	}
	// Ranges [i, j) are absorbed; the merged range takes slot i.
	switch {
	case j == i: // none: open a slot
		r.ooo = append(r.ooo, oooRange{})
		copy(r.ooo[i+1:], r.ooo[i:])
	case j > i+1: // several: close the gap behind slot i
		r.ooo = append(r.ooo[:i+1], r.ooo[j:]...)
	}
	merged := oooRange{start: start, end: end, touched: r.touch}
	r.ooo[i] = merged

	// The listed ranges the merge absorbed are gone; the merged range
	// is the newest, and the oldest falls off a full list.
	r.dropListed(start, end)
	copy(r.sack[1:], r.sack[:r.nsack])
	r.sack[0] = merged
	r.nsack = min(r.nsack+1, len(r.sack))
	r.updateStale()
}

// rescan refills the SACK list from the whole set. One pass over the
// standing ranges keeps the best few in descending stamp order; stamps
// are unique, so this is the order a full sort by stamp would give.
func (r *Receiver) rescan() {
	n := 0
	for _, rng := range r.ooo {
		if n == len(r.sack) {
			if rng.touched < r.sack[n-1].touched {
				continue
			}
			n-- // the oldest of the kept ranges falls off
		}
		k := n
		for ; k > 0 && r.sack[k-1].touched < rng.touched; k-- {
			r.sack[k] = r.sack[k-1]
		}
		r.sack[k] = rng
		n++
	}
	r.nsack = n
	r.sackStale = false
}

func (r *Receiver) onDelAckTimeout() {
	if r.pending > 0 {
		r.sendAck()
	}
}

// sendAck emits an acknowledgment reflecting the current reassembly
// state.
func (r *Receiver) sendAck() {
	ack := packet.Packet{
		Flow:   r.flow,
		Ack:    true,
		CumAck: r.rcvNxt,
		ECE:    r.eceLatch,
	}
	// RTT echo from the oldest pending arrival (TCP timestamp
	// semantics under delayed ACKs), rate echo from the newest.
	if r.haveOldest {
		ack.AckedSentAt = r.oldestSentAt
		ack.AckedRetrans = r.oldestRetrans
	}
	ack.Delivered = r.newest.delivered
	ack.DeliveredAt = r.newest.deliveredAt
	ack.FirstSentAt = r.newest.firstSentAt
	ack.RateSentAt = r.newest.sentAt
	ack.AppLimited = r.newest.appLimited

	// SACK blocks: most recently touched ranges first, up to the
	// option-space limit (RFC 2018 §4).
	if r.sackStale {
		r.rescan()
	}
	for _, rng := range r.sack[:r.nsack] {
		ack.Sack[ack.NumSack] = packet.SackBlock{Start: rng.start, End: rng.end}
		ack.NumSack++
	}

	if r.pending > ackEverySegments {
		r.stats.StretchAcks++
	}
	r.pending = 0
	r.haveOldest = false
	r.delAck.Stop()
	r.stats.AcksSent++
	r.out(ack)
}
