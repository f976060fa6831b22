package netem

import (
	"ccatscale/internal/packet"
	"ccatscale/internal/units"
)

// Fabric is the traffic surface of a *Topology. Its only consumer is the
// closed-loop driver in bench/layers.go, which is frozen with the
// benchmark; everything in this module holds the concrete *Topology.
type Fabric interface {
	// SendData injects a data segment at its flow's source.
	SendData(p packet.Packet)
	// SendAck returns an ACK to the sender after the flow's reverse
	// delay.
	SendAck(p packet.Packet)
	// SetEndpoints attaches the demultiplexed delivery sinks.
	SetEndpoints(toReceiver, toSender Sink)
}

// LinkStat is one link's externally visible counters.
type LinkStat struct {
	// Name labels the link ("bottleneck" for the dumbbell).
	Name string
	// Rate is the configured line rate.
	Rate units.Bandwidth
	// Utilization is the fraction of virtual time spent transmitting.
	Utilization float64
	// TxBytes / TxPackets are cumulative transmissions.
	TxBytes   units.ByteCount
	TxPackets uint64
	// DropWire is cumulative dropped wire bytes (tail + AQM).
	DropWire units.ByteCount
	// RandomDrops / BurstDrops / OutageDrops count packets lost to the
	// link's iid, Gilbert–Elliott and outage stages. Impairment loss is
	// reported here, by kind, and never as a queue drop.
	RandomDrops uint64 `json:",omitempty"`
	BurstDrops  uint64 `json:",omitempty"`
	OutageDrops uint64 `json:",omitempty"`
	// CEMarks / CEMarkWire count CE marks made at this link's queue.
	CEMarks    uint64
	CEMarkWire units.ByteCount
	// QueueMaxBytes / QueueMaxLen are queue occupancy high-water marks.
	QueueMaxBytes units.ByteCount
	QueueMaxLen   int
}

// ceThreshold resolves a configured drop-tail CE-marking threshold:
// explicit wins, otherwise a quarter of the buffer — deep enough to
// stay above transient bursts, shallow enough that marking fires well
// before tail loss.
func ceThreshold(markAt, buffer units.ByteCount) units.ByteCount {
	if markAt > 0 {
		return markAt
	}
	return buffer / 4
}

// innerQueue unwraps an audit shadow wrapper to the concrete queue.
func innerQueue(q Queue) Queue {
	if aq, ok := q.(*AuditedQueue); ok {
		return aq.Inner()
	}
	return q
}

// portECNTerms collects one port's contribution to the ECN ledger:
// marks made at its queue, CE bytes dropped at it (tail drops of
// already-marked packets plus AQM head drops), and CE bytes still
// queued.
func portECNTerms(p *Port) (marked, dropped, ceQueued units.ByteCount) {
	q := innerQueue(p.Queue())
	if st, ok := q.(ECNStats); ok {
		marked = st.CEMarkWire()
		ceQueued = st.CEQueuedBytes()
	}
	dropped = p.CEDropBytes()
	if cq, ok := q.(*CoDelQueue); ok {
		dropped += cq.CEDropWire()
	}
	return marked, dropped, ceQueued
}

// linkStat renders one port's LinkStat under the given name.
func linkStat(name string, p *Port) LinkStat {
	st := LinkStat{
		Name:        name,
		Rate:        p.Rate(),
		Utilization: p.Utilization(),
		TxBytes:     p.TxBytes(),
		TxPackets:   p.TxPackets(),
		DropWire:    p.DropBytes(),
	}
	q := innerQueue(p.Queue())
	if cq, ok := q.(*CoDelQueue); ok {
		st.DropWire += cq.AQMDropWire()
	}
	if e, ok := q.(ECNStats); ok {
		st.CEMarks = e.CEMarks()
		st.CEMarkWire = e.CEMarkWire()
	}
	st.QueueMaxBytes, st.QueueMaxLen = queuePeak(p)
	return st
}

// queuePeak reads a port's queue occupancy high-water marks (zero for a
// queue that keeps none). It looks through the audit shadow, which
// forwards the Queue methods only.
func queuePeak(p *Port) (units.ByteCount, int) {
	if occ, ok := innerQueue(p.Queue()).(OccupancyStats); ok {
		return occ.MaxBytes(), occ.MaxLen()
	}
	return 0, 0
}
