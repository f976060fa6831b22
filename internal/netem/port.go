package netem

import (
	"ccatscale/internal/packet"
	"ccatscale/internal/sim"
	"ccatscale/internal/units"
)

// Sink consumes packets at their delivery time.
type Sink func(p packet.Packet)

// DropFunc observes a tail drop at the moment it happens.
type DropFunc func(now sim.Time, p packet.Packet)

// Queue is the buffering discipline a Port drains: drop-tail
// (DropTailQueue, the paper's configuration) or an AQM (CoDelQueue).
// Push reports acceptance; Pop may apply dequeue-side policy (CoDel
// head drops) before yielding the next deliverable packet.
type Queue interface {
	Push(p packet.Packet) bool
	Pop() (packet.Packet, bool)
	Bytes() units.ByteCount
	Len() int
	Capacity() units.ByteCount
}

// OccupancyStats is the optional accounting interface both built-in
// queues implement: high-water marks of occupancy and the realized
// in-memory footprint. The run supervisor reports these per run, and
// sweeps aggregate them into per-job peak-usage records that calibrate
// the budget estimator against reality.
type OccupancyStats interface {
	MaxBytes() units.ByteCount
	MaxLen() int
	MemBytes() int64
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
	out    Sink
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

	// The port transmits one packet at a time, so the in-flight
	// serialization is one timer and the packet rides in txPkt. txDone
	// re-arms it for the next packet from inside its own callback, which
	// leaves its heap node where it is.
	txPkt   packet.Packet
	txTimer *sim.Timer
}

// NewPort creates a port draining queue at rate, delivering into out.
// onDrop may be nil.
func NewPort(eng *sim.Engine, rate units.Bandwidth, queue Queue, out Sink, onDrop DropFunc) *Port {
	if rate <= 0 {
		panic("netem: non-positive port rate")
	}
	if out == nil {
		panic("netem: port without sink")
	}
	p := &Port{eng: eng, rate: rate, queue: queue, out: out, onDrop: onDrop}
	p.txTimer = sim.NewTimer(eng, p.txDone)
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
	p.offeredBytes += pkt.WireBytes()
	if !p.busy && p.queue.Len() == 0 {
		p.transmit(pkt)
		if p.auditCheck != nil {
			p.auditCheck("send")
		}
		return
	}
	if !p.queue.Push(pkt) {
		p.dropBytes += pkt.WireBytes()
		if pkt.CE {
			p.ceDropWire += pkt.WireBytes()
		}
		if p.onDrop != nil {
			p.onDrop(p.eng.Now(), pkt)
		}
	}
	if p.auditCheck != nil {
		p.auditCheck("send")
	}
}

// transmit puts pkt on the wire and schedules its completion.
func (p *Port) transmit(pkt packet.Packet) {
	p.busy = true
	p.busySince = p.eng.Now()
	p.serializing += pkt.WireBytes()
	if pkt.CE {
		p.ceSerializing += pkt.WireBytes()
	}
	p.txPkt = pkt
	done := p.rate.TransmissionTime(pkt.WireBytes())
	p.txTimer.Reset(done)
}

func (p *Port) txDone() {
	pkt := p.txPkt // copy before transmit(next) reuses the slot
	p.busyTotal += p.eng.Now() - p.busySince
	p.busy = false
	p.serializing -= pkt.WireBytes()
	if pkt.CE {
		p.ceSerializing -= pkt.WireBytes()
	}
	p.txBytes += pkt.WireBytes()
	p.txPackets++
	if next, ok := p.queue.Pop(); ok {
		p.transmit(next)
	}
	if p.auditCheck != nil {
		p.auditCheck("txDone")
	}
	// Deliver after bookkeeping so a sink that sends more traffic
	// observes a consistent port state.
	p.out(pkt)
}
