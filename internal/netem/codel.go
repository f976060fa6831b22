package netem

import (
	"math"

	"ccatscale/internal/packet"
	"ccatscale/internal/sim"
	"ccatscale/internal/units"
)

// CoDel parameters (RFC 8289 defaults).
const (
	// CoDelTarget is the acceptable standing-queue sojourn time.
	CoDelTarget = 5 * sim.Millisecond
	// CoDelInterval is the sliding window in which sojourn must dip
	// below target at least once.
	CoDelInterval = 100 * sim.Millisecond
)

// CoDelQueue implements the CoDel AQM (Nichols & Jacobson, RFC 8289)
// over the same byte-capacity FIFO used for drop-tail: packets carry
// their enqueue time, and the dequeue path drops from the head at the
// square-root-spaced control-law rate while the sojourn time stays
// above target for a full interval.
//
// The paper evaluates drop-tail only — the rule for sizing its buffers
// — but its closing call for at-scale CCA evaluation makes AQM the
// obvious next axis: CoDel removes the standing queue that both the
// Mathis-divergence and the BBR findings depend on, and the ablation
// benchmark quantifies exactly that.
type CoDelQueue struct {
	now func() sim.Time

	capacity units.ByteCount
	bytes    units.ByteCount

	ring    []codelEntry
	head, n int

	// CoDel control-law state.
	firstAboveTime sim.Time
	dropNext       sim.Time
	count          uint32
	lastCount      uint32
	dropping       bool

	enqueued    uint64
	tailDrops   uint64
	aqmDrops    uint64
	aqmDropWire units.ByteCount

	maxBytes   units.ByteCount
	maxPackets int

	onDrop DropFunc

	// ECN mode: when enabled, the control law CE-marks ECT packets
	// instead of dropping them (RFC 8289 §3; the fq_codel behavior).
	// Non-ECT packets are still dropped, and tail drops always drop.
	ecn           bool
	ceBytes       units.ByteCount
	ceMarkWire    units.ByteCount
	ceMarks       uint64
	ceAqmDropWire units.ByteCount
}

// codelEntry is a queued data segment stamped with its enqueue time.
type codelEntry struct {
	seg segment
	at  sim.Time
}

// NewCoDelQueue creates a CoDel-managed queue of the given byte
// capacity. now supplies virtual time (the engine's Now). onDrop
// observes both tail and AQM drops; may be nil.
func NewCoDelQueue(now func() sim.Time, capacity units.ByteCount, onDrop DropFunc) *CoDelQueue {
	if capacity <= 0 {
		panic("netem: non-positive CoDel capacity")
	}
	if now == nil {
		panic("netem: CoDel without clock")
	}
	return &CoDelQueue{
		now:      now,
		capacity: capacity,
		ring:     make([]codelEntry, 1024),
		onDrop:   onDrop,
	}
}

// Capacity returns the configured byte capacity.
func (q *CoDelQueue) Capacity() units.ByteCount { return q.capacity }

// SetECN switches the control law to CE-marking ECT packets instead of
// dropping them. Marking never changes admission or ordering for
// non-ECT traffic, so an all-non-ECT workload is bit-identical either
// way.
func (q *CoDelQueue) SetECN(on bool) { q.ecn = on }

// CEMarkWire returns cumulative wire bytes CE-marked at this queue.
func (q *CoDelQueue) CEMarkWire() units.ByteCount { return q.ceMarkWire }

// CEMarks returns the cumulative count of packets CE-marked here.
func (q *CoDelQueue) CEMarks() uint64 { return q.ceMarks }

// CEQueuedBytes returns the wire bytes of CE-marked packets currently
// queued (pass-through CE from an upstream bottleneck; CoDel's own
// marks leave immediately).
func (q *CoDelQueue) CEQueuedBytes() units.ByteCount { return q.ceBytes }

// CEDropWire returns cumulative wire bytes of CE-marked packets the
// control law dropped anyway (non-ECN mode, or head drops of upstream-
// marked packets while their flow is non-ECT — impossible by
// construction, but the ledger accounts it rather than assuming).
func (q *CoDelQueue) CEDropWire() units.ByteCount { return q.ceAqmDropWire }

// Bytes returns current occupancy in wire bytes.
func (q *CoDelQueue) Bytes() units.ByteCount { return q.bytes }

// Len returns the number of queued packets.
func (q *CoDelQueue) Len() int { return q.n }

// Enqueued returns accepted packets.
func (q *CoDelQueue) Enqueued() uint64 { return q.enqueued }

// TailDrops returns drops due to a full buffer.
func (q *CoDelQueue) TailDrops() uint64 { return q.tailDrops }

// AQMDrops returns drops made by the CoDel control law.
func (q *CoDelQueue) AQMDrops() uint64 { return q.aqmDrops }

// AQMDropWire returns cumulative wire bytes dropped by the control law.
func (q *CoDelQueue) AQMDropWire() units.ByteCount { return q.aqmDropWire }

// MaxBytes returns the high-water mark of byte occupancy.
func (q *CoDelQueue) MaxBytes() units.ByteCount { return q.maxBytes }

// MaxLen returns the high-water mark of packet occupancy.
func (q *CoDelQueue) MaxLen() int { return q.maxPackets }

// Push copies the data segment *p to the tail, stamped with its enqueue
// time, or tail-drops it when the buffer is full (CoDel still needs a
// hard byte limit; with the control law active it should rarely be
// hit). Push panics on a packet with an ACK field set (see segment).
func (q *CoDelQueue) Push(p *packet.Packet) bool {
	mustBeData(p)
	wire := p.WireBytes()
	if q.bytes+wire > q.capacity {
		q.tailDrops++
		if q.onDrop != nil {
			q.onDrop(q.now(), *p)
		}
		return false
	}
	if q.n == len(q.ring) {
		q.grow()
	}
	if p.CE {
		q.ceBytes += wire
	}
	e := &q.ring[(q.head+q.n)%len(q.ring)]
	e.seg.pack(p)
	e.at = q.now()
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

func (q *CoDelQueue) grow() {
	bigger := make([]codelEntry, 2*len(q.ring))
	for i := 0; i < q.n; i++ {
		bigger[i] = q.ring[(q.head+i)%len(q.ring)]
	}
	q.ring = bigger
	q.head = 0
}

// doDequeue implements the RFC 8289 dodeque() helper: move the head
// packet into *dst (ok is false when the queue is empty) and report
// whether its sojourn stayed above target long enough to arm/keep the
// dropping state.
func (q *CoDelQueue) doDequeue(now sim.Time, dst *packet.Packet) (ok, okToDrop bool) {
	if q.n == 0 {
		q.firstAboveTime = 0
		return false, false
	}
	e := &q.ring[q.head]
	q.head = (q.head + 1) % len(q.ring)
	q.n--
	e.seg.unpack(dst)
	wire := dst.WireBytes()
	q.bytes -= wire
	if dst.CE {
		q.ceBytes -= wire
	}
	sojourn := now - e.at
	if sojourn < CoDelTarget || q.bytes <= 1518 {
		// Below target (or queue nearly empty): leave dropping state
		// eligibility.
		q.firstAboveTime = 0
		return true, false
	}
	if q.firstAboveTime == 0 {
		q.firstAboveTime = now + CoDelInterval
		return true, false
	}
	return true, now >= q.firstAboveTime
}

// controlLaw spaces drops by interval/√count.
func (q *CoDelQueue) controlLaw(t sim.Time) sim.Time {
	return t + sim.Time(float64(CoDelInterval)/math.Sqrt(float64(q.count)))
}

// Pop moves the next deliverable packet into *dst, applying the CoDel
// drop law to each packet once it lies in *dst; it returns false when
// the queue is empty (possibly after dropping stragglers through *dst).
func (q *CoDelQueue) Pop(dst *packet.Packet) bool {
	now := q.now()
	ok, okToDrop := q.doDequeue(now, dst)
	if !ok {
		q.dropping = false
		return false
	}
	if q.dropping {
		if !okToDrop {
			q.dropping = false
		} else {
			for now >= q.dropNext && q.dropping {
				if q.markCE(dst) {
					// ECN: the mark stands in for the drop; the control
					// law advances as if one had happened and the marked
					// packet is delivered.
					q.count++
					q.dropNext = q.controlLaw(q.dropNext)
					return true
				}
				q.dropPacket(dst, now)
				q.count++
				ok, okToDrop = q.doDequeue(now, dst)
				if !ok {
					q.dropping = false
					return false
				}
				if !okToDrop {
					q.dropping = false
				} else {
					q.dropNext = q.controlLaw(q.dropNext)
				}
			}
		}
	} else if okToDrop {
		marked := q.markCE(dst)
		if !marked {
			q.dropPacket(dst, now)
		}
		q.dropping = true
		// Resume drop spacing near the previous rate if we were
		// dropping recently (RFC 8289 §5.4).
		delta := q.count - q.lastCount
		if delta > 1 && now-q.dropNext < 16*CoDelInterval {
			q.count = delta
		} else {
			q.count = 1
		}
		q.lastCount = q.count
		q.dropNext = q.controlLaw(now)
		if !marked {
			if ok, _ = q.doDequeue(now, dst); !ok {
				q.dropping = false
				return false
			}
		}
	}
	return true
}

// dropPacket accounts a control-law drop of a popped packet; the drop
// observer gets a copy, so *p is not read once it runs.
func (q *CoDelQueue) dropPacket(p *packet.Packet, now sim.Time) {
	wire := p.WireBytes()
	q.aqmDrops++
	q.aqmDropWire += wire
	if p.CE {
		q.ceAqmDropWire += wire
	}
	if q.onDrop != nil {
		q.onDrop(now, *p)
	}
}

// markCE CE-marks an ECT packet in ECN mode, reporting whether the
// packet may be delivered in place of a control-law drop.
func (q *CoDelQueue) markCE(p *packet.Packet) bool {
	if !q.ecn || !p.ECT {
		return false
	}
	if !p.CE {
		p.CE = true
		q.ceMarks++
		q.ceMarkWire += p.WireBytes()
	}
	return true
}
