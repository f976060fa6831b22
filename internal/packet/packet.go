// Package packet defines the wire unit exchanged between the simulated
// TCP endpoints and the network substrate: data segments flowing
// sender→receiver and (selective) acknowledgments flowing back.
//
// Packets are plain values. At CoreScale a run moves hundreds of millions
// of segments, so the representation is a small fixed-size struct held
// by value wherever it waits — no per-packet heap allocation, no pointer
// chasing on the hot path. A data segment is built in a slot its sender
// owns. From there to the receiver, and for an ACK from the ACK lane to
// the sender, a packet is copied only into the places where it waits (a
// queue ring, which keeps just a data segment's fields, a port's tx
// slot, a propagation lane) and passed between them by reference. The
// by-value signatures that remain (tcp.Config's Output, Sender.OnAck,
// Receiver.OnData, the netem Sink edges) are adapters for the benchmark
// module.
package packet

import (
	"fmt"

	"ccatscale/internal/sim"
	"ccatscale/internal/units"
)

// HeaderBytes is the per-segment overhead charged on the wire in
// addition to payload: Ethernet (14+4) + IPv4 (20) + TCP with timestamp
// options (32) = 70 bytes. With a 1448-byte MSS this reproduces the
// ~1518-byte on-the-wire frame the paper's 10 Gbps budget is spent on.
const HeaderBytes units.ByteCount = 70

// AckBytes is the wire size of a pure ACK (headers plus up to three SACK
// blocks). ACKs traverse the reverse path, which is never the bottleneck
// in the paper's topology, but the size is kept for completeness.
const AckBytes units.ByteCount = 90

// SackBlock is one contiguous received range [Start, End) reported in an
// ACK, in byte sequence space.
type SackBlock struct {
	Start, End int64
}

// Len returns the block's length in bytes.
func (b SackBlock) Len() int64 { return b.End - b.Start }

// MaxSackBlocks is the number of SACK blocks carried per ACK. Linux fits
// three alongside timestamps; the paper's stacks all negotiate SACK.
const MaxSackBlocks = 3

// Packet is a simulated TCP segment or acknowledgment.
//
// Fields are declared widest first — the 8-byte words, the SACK blocks,
// the two int32s, then the one-byte fields — so the struct carries no
// interior padding: 129 bytes of fields round up to 136, where grouping
// them by topic cost 160. Every copy and every queued slot pays the
// difference, so a new field goes in its width band.
type Packet struct {
	// Seq is the sequence number (byte offset) of the first payload byte
	// for data segments.
	Seq int64

	// CumAck is the cumulative acknowledgment (next expected byte) for
	// ACK packets.
	CumAck int64

	// SentAt is the virtual time the segment was transmitted. Echoed
	// back in ACKs (AckedSentAt) to produce RTT samples, playing the
	// role of the TCP timestamp option.
	SentAt sim.Time

	// AckedSentAt is, on an ACK, the SentAt of the segment whose arrival
	// triggered it.
	AckedSentAt sim.Time

	// Delivery-rate sampling state (Cheng et al., "Delivery Rate
	// Estimation"), recorded at transmit time and echoed through the
	// receiver so BBR can compute per-ACK bandwidth samples:
	// Delivered/DeliveredAt snapshot the connection's delivered-byte
	// counter, FirstSentAt the send time of the first packet of the
	// sampling interval, AppLimited whether the sample window was
	// application-limited. On an ACK, RateSentAt echoes the SentAt of
	// the newest segment covered (RTT echoes, by contrast, come from the
	// oldest pending segment, as with TCP timestamps under delayed ACKs).
	Delivered   int64
	DeliveredAt sim.Time
	FirstSentAt sim.Time
	RateSentAt  sim.Time

	// Sack holds up to MaxSackBlocks selective-acknowledgment ranges,
	// most recently received first. NumSack (below, with the one-byte
	// fields) is the live count.
	Sack [MaxSackBlocks]SackBlock

	// Flow identifies the connection. Flow IDs are dense small integers
	// assigned by the experiment harness.
	Flow int32

	// Len is the payload length in bytes for data segments; 0 for ACKs.
	Len int32

	NumSack int8

	// Ack marks a pure acknowledgment traveling receiver→sender.
	Ack bool

	// Retrans marks a retransmitted data segment: its ACK must not
	// produce an RTT sample (Karn's algorithm).
	Retrans bool

	// ECN state (RFC 3168, simplified to one bit per codepoint). ECT
	// marks a data segment ECN-capable: an ECN-enabled queue sets CE on
	// it instead of (or before) dropping. The receiver echoes CE back as
	// ECE on every ACK until the sender's CWR-marked data confirms a
	// window reduction. Retransmissions are never ECT (RFC 3168 §6.1.5),
	// and pure ACKs are never ECT/CE.
	ECT bool
	CE  bool
	ECE bool // on ACKs: congestion-experienced echo latch
	CWR bool // on data: congestion window reduced (clears the ECE latch)

	// AckedRetrans is, on an ACK, whether the segment whose arrival
	// triggered it was a retransmission.
	AckedRetrans bool

	// AppLimited is the delivery-rate sample's application-limited flag
	// (see Delivered).
	AppLimited bool
}

// WireBytes returns the packet's size on the wire, headers included.
func (p *Packet) WireBytes() units.ByteCount {
	if p.Ack {
		return AckBytes
	}
	return units.ByteCount(p.Len) + HeaderBytes
}

// End returns the sequence number one past the segment's last payload
// byte.
func (p *Packet) End() int64 { return p.Seq + int64(p.Len) }

// String renders a compact human-readable form for traces and test
// failures.
func (p *Packet) String() string {
	if p.Ack {
		s := fmt.Sprintf("flow %d ACK %d", p.Flow, p.CumAck)
		for i := int8(0); i < p.NumSack; i++ {
			s += fmt.Sprintf(" sack[%d,%d)", p.Sack[i].Start, p.Sack[i].End)
		}
		return s
	}
	kind := "DATA"
	if p.Retrans {
		kind = "RTX"
	}
	return fmt.Sprintf("flow %d %s [%d,%d)", p.Flow, kind, p.Seq, p.End())
}
