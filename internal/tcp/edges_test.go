package tcp

import (
	"testing"

	"ccatscale/internal/cca"
	"ccatscale/internal/packet"
	"ccatscale/internal/sim"
	"ccatscale/internal/units"
)

// edgeRun is what one lossy connection did: every segment the sender
// transmitted and every ACK the receiver sent, in order, and both
// endpoints' final counters.
type edgeRun struct {
	sent  []packet.Packet
	acks  []packet.Packet
	snd   SenderStats
	rcv   ReceiverStats
	drops int
}

// garbage has every field set, so a consumer that read its pointer
// after returning would see it.
var garbage = packet.Packet{
	Seq: -7, CumAck: -7, SentAt: -7, AckedSentAt: -7,
	Delivered: -7, DeliveredAt: -7, FirstSentAt: -7, RateSentAt: -7,
	Sack: [packet.MaxSackBlocks]packet.SackBlock{
		{Start: -7, End: -6}, {Start: -5, End: -4}, {Start: -3, End: -2}},
	Flow: -7, Len: -7, NumSack: 3,
	Ack: true, Retrans: true, ECT: true, CE: true, ECE: true, CWR: true,
	AckedRetrans: true, AppLimited: true,
}

// runEdges drives the connection of TestRenoExperiencesHalvingsUnderDropTail
// through the by-value edges (Output, OnData, OnAck) or the by-reference
// ones (OutputRef, OnDataRef, OnAckRef). With scribble, the fabric slot
// each OnDataRef and OnAckRef was handed is overwritten with garbage as
// soon as the call returns. The receiver models receive offload, as
// core's do, so most ACKs leave from a timer after OnDataRef returned.
func runEdges(t *testing.T, byRef, scribble bool) edgeRun {
	t.Helper()
	rate := 20 * units.MbitPerSec
	n := newTestNetEdges(t, rate, units.BDP(rate, 40*sim.Millisecond),
		[]sim.Time{20 * sim.Millisecond}, []cca.CCA{cca.NewReno(units.MSS)}, byRef)
	var run edgeRun
	n.receivers[0] = NewReceiver(n.eng, 0, DefaultReceiverConfig(), func(p packet.Packet) {
		run.acks = append(run.acks, p)
		n.db.SendAck(p)
	})
	if byRef {
		n.senders[0] = NewSender(n.eng, 0, Config{
			CCA: cca.NewReno(units.MSS),
			OutputRef: func(p *packet.Packet) {
				run.sent = append(run.sent, *p)
				n.db.SendDataRef(p)
			},
		})
		if scribble {
			n.db.SetRefEndpoints(
				func(p *packet.Packet) { n.receivers[p.Flow].OnDataRef(p); *p = garbage },
				func(p *packet.Packet) { n.senders[p.Flow].OnAckRef(p); *p = garbage },
			)
		}
	} else {
		n.senders[0] = NewSender(n.eng, 0, Config{
			CCA: cca.NewReno(units.MSS),
			Output: func(p packet.Packet) {
				run.sent = append(run.sent, p)
				n.db.SendData(p)
			},
		})
	}
	n.start()
	n.eng.Run(10 * sim.Second)
	run.snd, run.rcv, run.drops = n.senders[0].Stats(), n.receivers[0].Stats(), n.drops
	return run
}

// TestRefEdgesMatchValueEdges holds the by-value names to what they
// are, adapters: one lossy connection transmits the same segments and
// ACKs, field for field and in order, and ends with the same counters at
// both endpoints whichever edges carry it. The scribbled run shows
// neither endpoint keeps the pointer it was handed: a field read through
// it later, by a delayed ACK say, would carry the garbage.
func TestRefEdgesMatchValueEdges(t *testing.T) {
	want := runEdges(t, false, false)
	if want.drops == 0 || want.snd.FastRecoveries == 0 || want.snd.Retransmissions == 0 {
		t.Fatalf("reference run saw %d drops, %d fast recoveries, %d retransmissions: not a lossy connection",
			want.drops, want.snd.FastRecoveries, want.snd.Retransmissions)
	}
	for _, tc := range []struct {
		name     string
		scribble bool
	}{{"by reference", false}, {"by reference, slots scribbled after each call", true}} {
		t.Run(tc.name, func(t *testing.T) {
			got := runEdges(t, true, tc.scribble)
			samePackets(t, "segment", got.sent, want.sent)
			samePackets(t, "ACK", got.acks, want.acks)
			if got.snd != want.snd {
				t.Errorf("sender stats %+v, by value %+v", got.snd, want.snd)
			}
			if got.rcv != want.rcv {
				t.Errorf("receiver stats %+v, by value %+v", got.rcv, want.rcv)
			}
			if got.drops != want.drops {
				t.Errorf("%d drops, by value %d", got.drops, want.drops)
			}
		})
	}
}

// samePackets fails t unless got and want hold the same packets in the
// same order.
func samePackets(t *testing.T, kind string, got, want []packet.Packet) {
	t.Helper()
	if len(got) != len(want) {
		t.Errorf("%d %ss, by value %d", len(got), kind, len(want))
	}
	for i := range min(len(got), len(want)) {
		if got[i] != want[i] {
			t.Fatalf("%s %d is %+v, by value %+v", kind, i, got[i], want[i])
		}
	}
}
