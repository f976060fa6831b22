// Package netem is the network-emulation substrate standing in for the
// paper's BESS software switch and netem delay configuration: a byte-
// capacity drop-tail FIFO, a rate-limited serializing port, and fixed
// propagation-delay pipes, composed into the link-graph Topology every
// experiment runs on (the paper's dumbbell is its one-link case).
package netem

import (
	"ccatscale/internal/packet"
	"ccatscale/internal/sim"
	"ccatscale/internal/units"
)

// DropTailQueue is a byte-capacity FIFO, the queue discipline the paper
// configures at the bottleneck ("a drop-tail queue is used at the
// bottleneck link"). Capacity is expressed in bytes, matching the
// paper's 3 MB / 375 MB buffer specifications.
//
// The backing store is a growable ring buffer: at CoreScale a full
// buffer holds ~250k segments and the queue churns hundreds of millions
// of times per run, so per-operation allocation is unacceptable. A slot
// holds a data segment's fields, not a whole packet (see segment), and
// the ring holds exactly as many slots as the buffer has full-size
// frames, plus one (RingSlotsFor).
type DropTailQueue struct {
	capacity units.ByteCount
	bytes    units.ByteCount

	ring []segment
	head int
	n    int

	// Cumulative statistics.
	enqueued   uint64
	dropped    uint64
	maxBytes   units.ByteCount
	maxPackets int

	// ECN: when markAt > 0, ECT packets admitted while occupancy
	// (including the new packet) reaches markAt are CE-marked instead of
	// waiting for a tail drop — a DCTCP-style step threshold. ceBytes
	// tracks the wire bytes of CE packets currently queued (for the
	// marking conservation ledger); ceMarkWire/ceMarks the cumulative
	// marks made here.
	markAt     units.ByteCount
	ceBytes    units.ByteCount
	ceMarkWire units.ByteCount
	ceMarks    uint64
}

// NewDropTailQueue creates a queue holding at most capacity bytes of
// packets (wire sizes). The ring is pre-sized so a queue full of
// full-size frames never grows: steady-state enqueue/dequeue is
// allocation-free.
func NewDropTailQueue(capacity units.ByteCount) *DropTailQueue {
	if capacity <= 0 {
		panic("netem: non-positive queue capacity")
	}
	size := RingSlotsFor(capacity)
	return &DropTailQueue{
		capacity: capacity,
		ring:     make([]segment, size),
	}
}

// RingSlotsFor returns the ring preallocation NewDropTailQueue makes for
// a byte capacity: the worst case for full-size traffic, capacity ÷ one
// MSS frame plus one slot of slack, and not a slot more. Push and Pop
// wrap by comparison, so the length need not be a power of two.
// Smaller-than-MSS packets can still exceed it and trigger grow, which
// doubles. Exported so the resource-budget estimator can price a
// buffer's memory footprint without building the queue.
func RingSlotsFor(capacity units.ByteCount) int {
	return int(capacity/(units.MSS+packet.HeaderBytes)) + 1
}

// Capacity returns the configured byte capacity.
func (q *DropTailQueue) Capacity() units.ByteCount { return q.capacity }

// SetCEThreshold enables CE marking of ECT packets once occupancy
// reaches markAt wire bytes (0 disables marking, the default). Marking
// never changes which packets are accepted or their order — only the CE
// bit — so an all-non-ECT workload is bit-identical with any threshold.
func (q *DropTailQueue) SetCEThreshold(markAt units.ByteCount) { q.markAt = markAt }

// CEMarkWire returns cumulative wire bytes CE-marked at this queue.
func (q *DropTailQueue) CEMarkWire() units.ByteCount { return q.ceMarkWire }

// CEMarks returns the cumulative count of packets CE-marked here.
func (q *DropTailQueue) CEMarks() uint64 { return q.ceMarks }

// CEQueuedBytes returns the wire bytes of CE-marked packets currently
// queued.
func (q *DropTailQueue) CEQueuedBytes() units.ByteCount { return q.ceBytes }

// Bytes returns the current occupancy in wire bytes.
func (q *DropTailQueue) Bytes() units.ByteCount { return q.bytes }

// Len returns the number of queued packets.
func (q *DropTailQueue) Len() int { return q.n }

// Enqueued returns the cumulative count of accepted packets.
func (q *DropTailQueue) Enqueued() uint64 { return q.enqueued }

// Dropped returns the cumulative count of tail-dropped packets.
func (q *DropTailQueue) Dropped() uint64 { return q.dropped }

// MaxBytes returns the high-water mark of byte occupancy.
func (q *DropTailQueue) MaxBytes() units.ByteCount { return q.maxBytes }

// MaxLen returns the high-water mark of packet occupancy.
func (q *DropTailQueue) MaxLen() int { return q.maxPackets }

// Push copies the data segment *p to the tail if its wire size fits
// within the remaining capacity and reports whether it was accepted; a
// CE mark is set on the queued copy. A false return is a tail drop; the
// caller is responsible for logging it (the paper logs every drop at the
// bottleneck to compute loss rates and burstiness). Push panics on a
// packet with an ACK field set or a Len beyond 16 bits (see segment).
func (q *DropTailQueue) Push(p *packet.Packet) bool {
	mustBeData(p)
	wire := p.WireBytes()
	if q.bytes+wire > q.capacity {
		q.dropped++
		return false
	}
	if q.n == len(q.ring) {
		q.grow()
	}
	tail := q.head + q.n
	if tail >= len(q.ring) {
		tail -= len(q.ring)
	}
	slot := &q.ring[tail]
	slot.pack(p)
	if q.markAt > 0 && slot.flags&(flagECT|flagCE) == flagECT && q.bytes+wire >= q.markAt {
		slot.flags |= flagCE
		q.ceMarkWire += wire
		q.ceMarks++
	}
	if slot.flags&flagCE != 0 {
		q.ceBytes += wire
	}
	q.n++
	q.bytes += wire
	q.enqueued++
	if q.bytes > q.maxBytes {
		q.maxBytes = q.bytes
	}
	if q.n > q.maxPackets {
		q.maxPackets = q.n
	}
	return true
}

// Pop moves the oldest packet into *dst, writing every field. It returns
// false, leaving *dst alone, when the queue is empty.
func (q *DropTailQueue) Pop(dst *packet.Packet) bool {
	if q.n == 0 {
		return false
	}
	q.ring[q.head].unpack(dst)
	q.head++
	if q.head == len(q.ring) {
		q.head = 0
	}
	q.n--
	wire := dst.WireBytes()
	q.bytes -= wire
	if dst.CE {
		q.ceBytes -= wire
	}
	return true
}

// grow doubles a full ring, unrolling it to start at slot zero.
func (q *DropTailQueue) grow() {
	bigger := make([]segment, 2*len(q.ring))
	n := copy(bigger, q.ring[q.head:])
	copy(bigger[n:], q.ring[:q.head])
	q.ring = bigger
	q.head = 0
}

// DrillCorrupt deliberately corrupts the byte-occupancy counter by
// delta, as if one dequeue had decremented twice. It exists solely for
// the audit drill (-audit-drill): a seeded accounting bug the
// conservation ledger must catch. Never call it outside drills.
func (q *DropTailQueue) DrillCorrupt(delta units.ByteCount) { q.bytes -= delta }

// QueueingDelay estimates the waiting time a packet arriving now would
// experience before reaching the head of the line, given drain rate
// rate. Used by tests and by queue-depth instrumentation.
func (q *DropTailQueue) QueueingDelay(rate units.Bandwidth) sim.Time {
	return rate.TransmissionTime(q.bytes)
}
