package netem

import (
	"unsafe"

	"ccatscale/internal/packet"
	"ccatscale/internal/sim"
)

// segment is a data packet as it waits in a queue ring: the fields a
// sender sets on a data segment (tcp.Sender.segment) and the CE mark a
// queue sets, in 56 bytes where a packet.Packet takes 136. Only data
// waits in a queue — ACKs return over the reverse lanes, which never
// queue — so the ACK-only fields have no place here. Push refuses a
// packet that sets one (mustBeData), and every packet a queue accepts
// comes back out of Pop equal field for field, CE aside. The five flags
// are bools rather than bits of one byte: they fit in the padding the
// 49 bytes of other fields leave, and move without masking.
type segment struct {
	Seq         int64
	Delivered   int64
	SentAt      sim.Time
	DeliveredAt sim.Time
	FirstSentAt sim.Time
	Flow        int32
	Len         int32
	Retrans     bool
	ECT         bool
	CE          bool
	CWR         bool
	AppLimited  bool
}

// QueueSlotBytes is the in-memory size of one drop-tail ring slot. The
// bottleneck ring dominates a paper-scale run's heap (262 144 slots for
// the 375 MB buffer), so the resource-budget estimator prices each
// link's RingSlotsFor slots at this size. A CoDel slot adds the 8-byte
// enqueue stamp, but its ring starts small and grows only with the
// standing queue the control law keeps short.
const QueueSlotBytes = int64(unsafe.Sizeof(segment{}))

// mustBeData panics unless p is a data segment: a queue slot has no room
// for the ACK-only fields, so a packet setting one would leave the queue
// without it. No caller queues an ACK; the message names no packet, as
// formatting p would move every pushed packet to the heap.
func mustBeData(p *packet.Packet) {
	words := p.CumAck | int64(p.AckedSentAt) | int64(p.RateSentAt) |
		p.Sack[0].Start | p.Sack[0].End | p.Sack[1].Start | p.Sack[1].End |
		p.Sack[2].Start | p.Sack[2].End
	if words != 0 || p.NumSack != 0 || p.Ack || p.ECE || p.AckedRetrans {
		panic("netem: queue Push of a packet with ACK fields set: queues hold data segments only")
	}
}

// pack stores the data segment *p in s.
func (s *segment) pack(p *packet.Packet) {
	s.Seq = p.Seq
	s.Delivered = p.Delivered
	s.SentAt = p.SentAt
	s.DeliveredAt = p.DeliveredAt
	s.FirstSentAt = p.FirstSentAt
	s.Flow = p.Flow
	s.Len = p.Len
	s.Retrans = p.Retrans
	s.ECT = p.ECT
	s.CE = p.CE
	s.CWR = p.CWR
	s.AppLimited = p.AppLimited
}

// unpack writes the packet s holds into *dst: every field, in Packet's
// declaration order, the ACK-only ones zero as they were when the packet
// was pushed. Naming each field, rather than clearing *dst first, saves
// a 136-byte clear per pop; TestSegmentCoversEveryPacketField pops into
// a packet with every field set, so a field left out fails there.
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
	dst.Len = s.Len
	dst.NumSack = 0
	dst.Ack = false
	dst.Retrans = s.Retrans
	dst.ECT = s.ECT
	dst.CE = s.CE
	dst.ECE = false
	dst.CWR = s.CWR
	dst.AckedRetrans = false
	dst.AppLimited = s.AppLimited
}
