package netem

import (
	"ccatscale/internal/packet"
	"ccatscale/internal/sim"
	"ccatscale/internal/units"
)

// Sink consumes packets at their delivery time, by value: the edge the
// fabric's endpoints and callers outside it see.
type Sink func(p packet.Packet)

// RefSink consumes a packet by reference. p points at the slot the
// packet waits in — a sender's packet slot, a port's tx slot, a lane
// ring, or, for an ACK, the topology's one ACK slot, which each reverse
// lane unpacks its ACK record into (Topology.ack) — and is valid only
// until the call returns; a sink that keeps the packet copies it, and
// none writes through p. Every hop from the sender to the receiver,
// and from the ACK lane to the sender, is a RefSink, so a packet is
// copied only into the next place it waits.
type RefSink func(p *packet.Packet)

// byRef adapts a by-value Sink to a RefSink.
func byRef(out Sink) RefSink {
	return func(p *packet.Packet) { out(*p) }
}

// DropFunc observes a tail drop at the moment it happens.
type DropFunc func(now sim.Time, p packet.Packet)

// Queue is the buffering discipline a Port drains: drop-tail
// (DropTailQueue, the paper's configuration) or an AQM (CoDelQueue).
// Push copies the data segment *p into the queue and reports
// acceptance; Pop may apply dequeue-side policy (CoDel head drops)
// before moving the next deliverable packet into *dst, and reports
// false when there is none, *dst then holding no packet to deliver.
// A queue holds data only: the built-in ones panic on a Push of a
// packet with an ACK field set.
type Queue interface {
	Push(p *packet.Packet) bool
	Pop(dst *packet.Packet) bool
	Bytes() units.ByteCount
	Len() int
	Capacity() units.ByteCount
}

// OccupancyStats is the optional accounting interface both built-in
// queues implement: high-water marks of occupancy, read by LinkStats
// and Topology.QueuePeak.
type OccupancyStats interface {
	MaxBytes() units.ByteCount
	MaxLen() int
}

// ECNStats is the optional interface CE-marking queues implement: the
// cumulative marks made at the queue and the CE occupancy still inside
// it, the queue-side terms of the marking-conservation ledger.
type ECNStats interface {
	CEMarkWire() units.ByteCount
	CEMarks() uint64
	CEQueuedBytes() units.ByteCount
}

// Port models a store-and-forward output port: packets are accepted into
// a queue and serialized one at a time at the configured line rate, then
// handed to the downstream sink. Together with DropTailQueue it is the
// simulated equivalent of the paper's BESS bottleneck port.
type Port struct {
	eng    *sim.Engine
	rate   units.Bandwidth
	queue  Queue
	out    RefSink
	onDrop DropFunc

	busy bool

	// busySince/busyTotal track utilization: the fraction of virtual
	// time the port spent transmitting.
	busySince sim.Time
	busyTotal sim.Time

	txBytes   units.ByteCount
	txPackets uint64

	// Conservation-ledger state: every wire byte offered to the port,
	// bytes tail-dropped at it, and bytes currently serializing. The
	// counters are maintained unconditionally (three integer adds per
	// packet); auditCheck, when set, verifies the port-level
	// conservation equation after every send and transmit completion.
	offeredBytes units.ByteCount
	dropBytes    units.ByteCount
	serializing  units.ByteCount
	auditCheck   func(op string)

	// CE-marked slices of the ledger, for the ECN marking-conservation
	// check: wire bytes of CE packets tail-dropped here and currently
	// serializing. Zero for all traffic without ECN enabled.
	ceDropWire    units.ByteCount
	ceSerializing units.ByteCount

	// The port transmits one packet at a time: tx[cur] is on the wire
	// and the in-flight serialization is one stream timer, whose node
	// sits in the engine's small stream heap with the lanes rather than
	// among the per-flow timers. txDone pops the next packet straight
	// into the other slot, re-arms the timer from inside its own
	// callback (which leaves its node where it is), and
	// hands the finished packet to the sink where it lies. A send onto
	// the idle port from inside that sink fills the new tx[cur], never
	// the slot being delivered.
	tx      [2]packet.Packet
	cur     int
	txTimer *sim.Timer

	// staged holds Send's by-value argument: the queue is handed a
	// pointer into the port rather than to a parameter, which would
	// escape to the heap once per packet.
	staged packet.Packet
}

// NewPort creates a port draining queue at rate, delivering into out.
// onDrop may be nil.
func NewPort(eng *sim.Engine, rate units.Bandwidth, queue Queue, out Sink, onDrop DropFunc) *Port {
	if out == nil {
		panic("netem: port without sink")
	}
	return newPort(eng, rate, queue, byRef(out), onDrop)
}

// newPort is NewPort delivering by reference, the fabric's own links.
func newPort(eng *sim.Engine, rate units.Bandwidth, queue Queue, out RefSink, onDrop DropFunc) *Port {
	if rate <= 0 {
		panic("netem: non-positive port rate")
	}
	p := &Port{eng: eng, rate: rate, queue: queue, out: out, onDrop: onDrop}
	p.txTimer = sim.NewStreamTimer(eng, p.txDone)
	return p
}

// Rate returns the configured line rate.
func (p *Port) Rate() units.Bandwidth { return p.rate }

// Queue returns the attached queue.
func (p *Port) Queue() Queue { return p.queue }

// TxBytes returns cumulative wire bytes transmitted.
func (p *Port) TxBytes() units.ByteCount { return p.txBytes }

// TxPackets returns cumulative packets transmitted.
func (p *Port) TxPackets() uint64 { return p.txPackets }

// OfferedBytes returns cumulative wire bytes offered to the port.
func (p *Port) OfferedBytes() units.ByteCount { return p.offeredBytes }

// DropBytes returns cumulative wire bytes tail-dropped by the port
// (drop-tail discipline; AQM disciplines report their own drops).
func (p *Port) DropBytes() units.ByteCount { return p.dropBytes }

// SerializingBytes returns the wire bytes currently on the wire (0 or
// one packet's worth).
func (p *Port) SerializingBytes() units.ByteCount { return p.serializing }

// CEDropBytes returns cumulative wire bytes of CE-marked packets
// tail-dropped at this port (possible only past a marking bottleneck).
func (p *Port) CEDropBytes() units.ByteCount { return p.ceDropWire }

// CESerializingBytes returns the CE-marked wire bytes currently on the
// wire (0 or one packet's worth).
func (p *Port) CESerializingBytes() units.ByteCount { return p.ceSerializing }

// SetAuditCheck installs a conservation check invoked after every send
// and transmit completion. The check observes only port and queue
// state; nil removes it.
func (p *Port) SetAuditCheck(fn func(op string)) { p.auditCheck = fn }

// Utilization returns the fraction of the window [0, now] the port spent
// transmitting.
func (p *Port) Utilization() float64 {
	total := p.busyTotal
	if p.busy {
		total += p.eng.Now() - p.busySince
	}
	if p.eng.Now() == 0 {
		return 0
	}
	return float64(total) / float64(p.eng.Now())
}

// Send offers a packet to the port. If the port is idle and the queue
// empty the packet goes straight to the wire; otherwise it joins the
// queue, or is tail-dropped when the buffer is full.
func (p *Port) Send(pkt packet.Packet) {
	p.staged = pkt
	p.send(&p.staged)
}

// send is Send by reference: *pkt is copied into the tx slot or the
// queue, and a drop observer gets a copy of its own.
func (p *Port) send(pkt *packet.Packet) {
	wire := pkt.WireBytes()
	p.offeredBytes += wire
	if !p.busy && p.queue.Len() == 0 {
		p.tx[p.cur] = *pkt
		p.transmit()
	} else if !p.queue.Push(pkt) {
		p.dropBytes += wire
		if pkt.CE {
			p.ceDropWire += wire
		}
		if p.onDrop != nil {
			p.onDrop(p.eng.Now(), *pkt)
		}
	}
	if p.auditCheck != nil {
		p.auditCheck("send")
	}
}

// transmit puts tx[cur] on the wire and schedules its completion.
func (p *Port) transmit() {
	pkt := &p.tx[p.cur]
	wire := pkt.WireBytes()
	p.busy = true
	p.busySince = p.eng.Now()
	p.serializing += wire
	if pkt.CE {
		p.ceSerializing += wire
	}
	p.txTimer.Reset(p.rate.TransmissionTime(wire))
}

func (p *Port) txDone() {
	done := &p.tx[p.cur]
	wire := done.WireBytes()
	p.busyTotal += p.eng.Now() - p.busySince
	p.busy = false
	p.serializing -= wire
	if done.CE {
		p.ceSerializing -= wire
	}
	p.txBytes += wire
	p.txPackets++
	p.cur ^= 1
	if p.queue.Pop(&p.tx[p.cur]) {
		p.transmit()
	}
	if p.auditCheck != nil {
		p.auditCheck("txDone")
	}
	// Deliver after bookkeeping so a sink that sends more traffic
	// observes a consistent port state.
	p.out(done)
}
