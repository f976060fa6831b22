package netem

import (
	"math"
	"unsafe"

	"ccatscale/internal/packet"
	"ccatscale/internal/sim"
)

// A packet waits in the fabric as a record of the fields it carries,
// not as a whole packet.Packet: a data segment in a queue ring (segment,
// 48 bytes) and an ACK in a reverse lane (ackRecord, 104 bytes), where a
// Packet takes 136. Each record keeps the eight one-byte fields that end
// a Packet, Ack through AppLimited, as the bits of one flag byte, bit i
// for the i-th of them, and restores all eight with one copy of
// flagRuns[flags]. The four pack and unpack methods must stay within the
// compiler's inlining budget: each runs once per packet, and a build in
// which one of them stopped inlining ran 1–4 % slower.
// TestPackingHelpersInline (root) fails if one stops.
const (
	flagAck uint8 = 1 << iota
	flagRetrans
	flagECT
	flagCE
	flagECE
	flagCWR
	flagAckedRetrans
	flagAppLimited
)

// boolRun views the eight one-byte fields of *p, Ack through
// AppLimited, as one array; TestPacketBoolsAreOneRun pins that they are
// declared, and laid out, as one run.
func boolRun(p *packet.Packet) *[8]bool { return (*[8]bool)(unsafe.Pointer(&p.Ack)) }

// flagRuns[f] is the run of bools the flag byte f stands for.
var flagRuns = func() (runs [256][8]bool) {
	for f := range runs {
		for i := range runs[f] {
			runs[f][i] = f&(1<<i) != 0
		}
	}
	return runs
}()

// segment is a data packet as it waits in a queue ring: the fields a
// sender sets on a data segment (tcp.Sender.segment) and the CE mark a
// queue sets. Only data waits in a queue, so the ACK-only fields have
// no place here: Push refuses a packet that sets one, or whose Len does
// not fit the slot's 16 bits (mustBeData), and every packet a queue
// accepts comes back out of Pop equal field for field, CE aside.
type segment struct {
	Seq         int64
	Delivered   int64
	SentAt      sim.Time
	DeliveredAt sim.Time
	FirstSentAt sim.Time
	Flow        int32
	Len         uint16
	flags       uint8 // Retrans, ECT, CE, CWR and AppLimited
}

// QueueSlotBytes is the in-memory size of one drop-tail ring slot. The
// bottleneck ring dominates a paper-scale run's heap (247 036 slots for
// the 375 MB buffer), so the resource-budget estimator prices each
// link's RingSlotsFor slots at this size. A CoDel slot adds the 8-byte
// enqueue stamp, but its ring starts small and grows only with the
// standing queue the control law keeps short.
const QueueSlotBytes = int64(unsafe.Sizeof(segment{}))

// mustBeData panics unless p is a data segment a slot can hold: a slot
// has no room for the ACK-only fields and 16 bits for Len, so a packet
// setting one, or longer, would leave the queue changed. No caller
// queues an ACK or a 64 KiB segment; the message names no packet, as
// formatting p would move every pushed packet to the heap.
func mustBeData(p *packet.Packet) {
	words := p.CumAck | int64(p.AckedSentAt) | int64(p.RateSentAt) |
		p.Sack[0].Start | p.Sack[0].End | p.Sack[1].Start | p.Sack[1].End |
		p.Sack[2].Start | p.Sack[2].End
	if words != 0 || p.NumSack != 0 || p.Ack || p.ECE || p.AckedRetrans || uint32(p.Len) > math.MaxUint16 {
		panic("netem: queue Push of a packet with ACK fields set or Len beyond 16 bits: queues hold data segments only")
	}
}

// pack stores the data segment *p in s.
func (s *segment) pack(p *packet.Packet) {
	var f uint8
	if p.Retrans {
		f |= flagRetrans
	}
	if p.ECT {
		f |= flagECT
	}
	if p.CE {
		f |= flagCE
	}
	if p.CWR {
		f |= flagCWR
	}
	if p.AppLimited {
		f |= flagAppLimited
	}
	s.Seq = p.Seq
	s.Delivered = p.Delivered
	s.SentAt = p.SentAt
	s.DeliveredAt = p.DeliveredAt
	s.FirstSentAt = p.FirstSentAt
	s.Flow = p.Flow
	s.Len = uint16(p.Len)
	s.flags = f
}

// unpack writes the packet s holds into *dst: every field, in Packet's
// declaration order, the ACK-only ones zero as they were when the packet
// was pushed. Naming each field, rather than assigning *dst a composite
// literal, saves building the packet on the stack and copying it, and
// TestSegmentCoversEveryPacketField pops into a packet with every field
// set, so a field left out fails there.
func (s *segment) unpack(dst *packet.Packet) {
	dst.Seq = s.Seq
	dst.CumAck = 0
	dst.SentAt = s.SentAt
	dst.AckedSentAt = 0
	dst.Delivered = s.Delivered
	dst.DeliveredAt = s.DeliveredAt
	dst.FirstSentAt = s.FirstSentAt
	dst.RateSentAt = 0
	dst.Sack = [packet.MaxSackBlocks]packet.SackBlock{}
	dst.Flow = s.Flow
	dst.Len = int32(s.Len)
	dst.NumSack = 0
	*boolRun(dst) = flagRuns[s.flags]
}

// ackRecord is an ACK as it waits in a reverse lane: the fields a
// receiver sets on an ACK (tcp.Receiver.sendAck). A reverse lane holds
// ACKs only, so the data-only fields have no place here: SendAck
// refuses a packet that sets one (mustBeAck), and every ACK it accepts
// reaches the sender equal field for field.
type ackRecord struct {
	CumAck      int64
	AckedSentAt sim.Time
	Delivered   int64
	DeliveredAt sim.Time
	FirstSentAt sim.Time
	RateSentAt  sim.Time
	Sack        [packet.MaxSackBlocks]packet.SackBlock
	Flow        int32
	NumSack     int8
	flags       uint8 // Ack, ECE, AckedRetrans and AppLimited
}

// mustBeAck panics unless p carries no data-only field, the mirror of
// mustBeData: a reverse-lane entry has no room for them. No caller
// returns data over the reverse path.
func mustBeAck(p *packet.Packet) {
	if p.Seq|int64(p.SentAt)|int64(p.Len) != 0 || p.Retrans || p.ECT || p.CE || p.CWR {
		panic("netem: SendAck of a packet with data fields set: reverse lanes hold ACKs only")
	}
}

// pack stores the ACK *p in a.
func (a *ackRecord) pack(p *packet.Packet) {
	var f uint8
	if p.Ack {
		f |= flagAck
	}
	if p.ECE {
		f |= flagECE
	}
	if p.AckedRetrans {
		f |= flagAckedRetrans
	}
	if p.AppLimited {
		f |= flagAppLimited
	}
	a.CumAck = p.CumAck
	a.AckedSentAt = p.AckedSentAt
	a.Delivered = p.Delivered
	a.DeliveredAt = p.DeliveredAt
	a.FirstSentAt = p.FirstSentAt
	a.RateSentAt = p.RateSentAt
	a.Sack = p.Sack
	a.Flow = p.Flow
	a.NumSack = p.NumSack
	a.flags = f
}

// unpack writes the ACK a holds into *dst: every field, the data-only
// ones zero as they were when the ACK was sent (see segment.unpack).
func (a *ackRecord) unpack(dst *packet.Packet) {
	dst.Seq = 0
	dst.CumAck = a.CumAck
	dst.SentAt = 0
	dst.AckedSentAt = a.AckedSentAt
	dst.Delivered = a.Delivered
	dst.DeliveredAt = a.DeliveredAt
	dst.FirstSentAt = a.FirstSentAt
	dst.RateSentAt = a.RateSentAt
	dst.Sack = a.Sack
	dst.Flow = a.Flow
	dst.Len = 0
	dst.NumSack = a.NumSack
	*boolRun(dst) = flagRuns[a.flags]
}
