package tcp

import (
	"testing"

	"ccatscale/internal/packet"
	"ccatscale/internal/sim"
	"ccatscale/internal/units"
)

const mss = int64(units.MSS)

func seg(n int64) packet.Packet {
	return packet.Packet{Seq: n * mss, Len: int32(mss), SentAt: sim.Time(n + 1)}
}

func newTestReceiver(t *testing.T) (*sim.Engine, *Receiver, *[]packet.Packet) {
	t.Helper()
	eng := sim.NewEngine()
	var acks []packet.Packet
	r := NewReceiver(eng, 0, ReceiverConfig{DelAckDelay: DelayedAckTimeout}, func(p packet.Packet) { acks = append(acks, p) })
	return eng, r, &acks
}

func TestReceiverAckEverySecondSegment(t *testing.T) {
	eng, r, acks := newTestReceiver(t)
	r.OnData(seg(0))
	if len(*acks) != 0 {
		t.Fatal("first in-order segment acked immediately despite delayed ACKs")
	}
	r.OnData(seg(1))
	if len(*acks) != 1 {
		t.Fatalf("second segment should force an ACK; got %d", len(*acks))
	}
	if (*acks)[0].CumAck != 2*mss {
		t.Fatalf("CumAck = %d, want %d", (*acks)[0].CumAck, 2*mss)
	}
	eng.Run(sim.Second)
	if len(*acks) != 1 {
		t.Fatal("spurious delayed-ACK fired")
	}
}

func TestReceiverDelayedAckTimeout(t *testing.T) {
	eng, r, acks := newTestReceiver(t)
	eng.Schedule(0, func() { r.OnData(seg(0)) })
	eng.Run(sim.Second)
	if len(*acks) != 1 {
		t.Fatalf("delayed ACK never fired; acks = %d", len(*acks))
	}
	// Timer fires at the 40 ms delayed-ACK timeout.
	if got := (*acks)[0]; got.CumAck != mss {
		t.Fatalf("CumAck = %d", got.CumAck)
	}
}

func TestReceiverImmediateAckDisabledDelack(t *testing.T) {
	eng := sim.NewEngine()
	var acks []packet.Packet
	r := NewReceiver(eng, 0, ReceiverConfig{}, func(p packet.Packet) { acks = append(acks, p) })
	r.OnData(seg(0))
	if len(acks) != 1 {
		t.Fatal("delack-disabled receiver withheld an ACK")
	}
}

func TestReceiverOutOfOrderGeneratesSack(t *testing.T) {
	_, r, acks := newTestReceiver(t)
	r.OnData(seg(0))
	r.OnData(seg(2)) // hole at segment 1
	if len(*acks) != 1 {
		t.Fatalf("out-of-order arrival did not force an ACK")
	}
	a := (*acks)[0]
	if a.CumAck != mss {
		t.Fatalf("CumAck = %d, want %d", a.CumAck, mss)
	}
	if a.NumSack != 1 || a.Sack[0].Start != 2*mss || a.Sack[0].End != 3*mss {
		t.Fatalf("SACK = %+v", a.Sack[:a.NumSack])
	}
}

func TestReceiverFillingHoleAcksImmediately(t *testing.T) {
	_, r, acks := newTestReceiver(t)
	r.OnData(seg(0))
	r.OnData(seg(2))
	r.OnData(seg(1)) // fills the hole
	last := (*acks)[len(*acks)-1]
	if last.CumAck != 3*mss {
		t.Fatalf("CumAck after fill = %d, want %d", last.CumAck, 3*mss)
	}
	if last.NumSack != 0 {
		t.Fatalf("stale SACK blocks after fill: %+v", last.Sack[:last.NumSack])
	}
}

func TestReceiverSackBlockRecencyOrder(t *testing.T) {
	_, r, acks := newTestReceiver(t)
	r.OnData(seg(0))
	r.OnData(seg(2))
	r.OnData(seg(4))
	r.OnData(seg(6))
	r.OnData(seg(8))
	last := (*acks)[len(*acks)-1]
	if last.NumSack != packet.MaxSackBlocks {
		t.Fatalf("NumSack = %d, want %d", last.NumSack, packet.MaxSackBlocks)
	}
	// Most recent block (segment 8) first.
	if last.Sack[0].Start != 8*mss {
		t.Fatalf("first SACK block = %+v, want most recent", last.Sack[0])
	}
}

func TestReceiverMergesAdjacentOOORanges(t *testing.T) {
	_, r, acks := newTestReceiver(t)
	r.OnData(seg(0))
	r.OnData(seg(2))
	r.OnData(seg(3)) // extends [2,3) to [2,4)
	last := (*acks)[len(*acks)-1]
	if last.NumSack != 1 {
		t.Fatalf("NumSack = %d, want 1 merged block", last.NumSack)
	}
	if last.Sack[0].Start != 2*mss || last.Sack[0].End != 4*mss {
		t.Fatalf("merged block = %+v", last.Sack[0])
	}
}

func TestReceiverDuplicateSegment(t *testing.T) {
	_, r, acks := newTestReceiver(t)
	r.OnData(seg(0))
	r.OnData(seg(1))
	n := len(*acks)
	r.OnData(seg(0)) // spurious retransmission
	if len(*acks) != n+1 {
		t.Fatal("duplicate segment did not force an ACK")
	}
	if got := r.Stats(); got.DuplicateSegments != 1 {
		t.Fatalf("DuplicateSegments = %d", got.DuplicateSegments)
	}
}

func TestReceiverEchoesRateFieldsFromNewest(t *testing.T) {
	_, r, acks := newTestReceiver(t)
	p0 := seg(0)
	p0.SentAt = 100
	p0.Delivered = 0
	p0.DeliveredAt = 50
	p1 := seg(1)
	p1.SentAt = 200
	p1.Delivered = int64(units.MSS)
	p1.DeliveredAt = 60
	r.OnData(p0)
	r.OnData(p1)
	a := (*acks)[0]
	// RTT echo from the oldest…
	if a.AckedSentAt != 100 {
		t.Fatalf("AckedSentAt = %v, want 100 (oldest)", a.AckedSentAt)
	}
	// …rate echo from the newest.
	if a.RateSentAt != 200 || a.Delivered != int64(units.MSS) || a.DeliveredAt != 60 {
		t.Fatalf("rate echo wrong: %+v", a)
	}
}

func TestReceiverRetransEchoSuppressesRTT(t *testing.T) {
	_, r, acks := newTestReceiver(t)
	p := seg(0)
	p.Retrans = true
	r.OnData(p)
	r.OnData(seg(1))
	if a := (*acks)[0]; !a.AckedRetrans {
		t.Fatal("AckedRetrans not propagated from oldest pending segment")
	}
}

func TestReceiverDeliveredAccounting(t *testing.T) {
	_, r, _ := newTestReceiver(t)
	r.OnData(seg(0))
	r.OnData(seg(2))
	st := r.Stats()
	if st.Delivered != units.ByteCount(mss) {
		t.Fatalf("Delivered = %v, want 1 segment (ooo not delivered)", st.Delivered)
	}
	r.OnData(seg(1))
	if st := r.Stats(); st.Delivered != units.ByteCount(3*mss) {
		t.Fatalf("Delivered = %v, want 3 segments", st.Delivered)
	}
	if st := r.Stats(); st.OutOfOrderSegments != 1 || st.SegmentsReceived != 3 {
		t.Fatalf("counters: %+v", st)
	}
}

// The echo state is taken before the segment is classified, so a
// spurious retransmission that opens a delayed-ACK interval is the
// oldest echo of the ACK it forces: the sender must see AckedRetrans and
// take no RTT sample from it (Karn's rule).
func TestReceiverDuplicateFirstInIntervalEchoesRetrans(t *testing.T) {
	_, r, acks := newTestReceiver(t)
	r.OnData(seg(0))
	r.OnData(seg(1)) // ACK: the interval closes, no echo pending
	dup := seg(0)
	dup.Retrans = true
	dup.SentAt = 500
	dup.Delivered = 7 * mss
	dup.DeliveredAt = 400
	dup.FirstSentAt = 300
	dup.AppLimited = true
	r.OnData(dup)
	if len(*acks) != 2 {
		t.Fatalf("acks = %d, want the duplicate to force a second", len(*acks))
	}
	a := (*acks)[1]
	if !a.AckedRetrans || a.AckedSentAt != 500 {
		t.Fatalf("duplicate not echoed as the oldest arrival: AckedRetrans=%v AckedSentAt=%v",
			a.AckedRetrans, a.AckedSentAt)
	}
	if a.RateSentAt != 500 || a.Delivered != 7*mss || a.DeliveredAt != 400 ||
		a.FirstSentAt != 300 || !a.AppLimited {
		t.Fatalf("rate echo not from the duplicate (the newest arrival): %+v", a)
	}
	// The echo does not outlive its ACK: the next interval's oldest
	// arrival is an original transmission again.
	r.OnData(seg(2))
	r.OnData(seg(3))
	if a := (*acks)[2]; a.AckedRetrans || a.AckedSentAt != seg(2).SentAt {
		t.Fatalf("stale echo: AckedRetrans=%v AckedSentAt=%v", a.AckedRetrans, a.AckedSentAt)
	}
}
