package tcp

import (
	"testing"
	"testing/quick"

	"ccatscale/internal/cca"
	"ccatscale/internal/netem"
	"ccatscale/internal/packet"
	"ccatscale/internal/sim"
	"ccatscale/internal/units"
)

// lossyDumbbell is a one-flow dumbbell at a 20 ms base RTT whose link
// drops each packet independently with probability loss, at its far
// end: between the bottleneck and the receiver.
func lossyDumbbell(eng *sim.Engine, rng *sim.RNG, rate units.Bandwidth, buffer units.ByteCount, loss float64) *netem.Topology {
	rtt := []sim.Time{20 * sim.Millisecond}
	spec := netem.DumbbellConfig{Rate: rate, Buffer: buffer, RTT: rtt}.Spec()
	spec.Links[0].LossRate = loss
	return netem.NewTopology(eng, rng, netem.TopologyConfig{Spec: spec, RTT: rtt})
}

// TestReliabilityUnderRandomLossProperty is the transport's end-to-end
// correctness property: whatever independent random loss the forward
// path applies, the receiver's delivered prefix keeps growing and every
// byte below it was sent exactly in order — TCP reliability holds under
// arbitrary drop patterns.
func TestReliabilityUnderRandomLossProperty(t *testing.T) {
	f := func(seed uint16, lossTenths uint8) bool {
		lossProb := float64(lossTenths%30) / 100 // 0–29 %
		eng := sim.NewEngine()
		rng := sim.NewRNG(uint64(seed))

		rate := 10 * units.MbitPerSec
		db := lossyDumbbell(eng, rng, rate, units.BDP(rate, 200*sim.Millisecond), lossProb)
		var recv *Receiver
		var send *Sender
		db.SetEndpoints(func(p packet.Packet) { recv.OnData(p) }, func(p packet.Packet) { send.OnAck(p) })

		recv = NewReceiver(eng, 0, DefaultReceiverConfig(), db.SendAck)
		send = NewSender(eng, 0, Config{CCA: cca.NewReno(units.MSS), Output: db.SendData})
		send.Start(0)

		eng.Run(20 * sim.Second)

		delivered := recv.Stats().Delivered
		if delivered <= 0 {
			return false // total starvation is a failure even at 29 % loss
		}
		// Delivered bytes are segment-aligned and within what was sent.
		if int64(delivered)%int64(units.MSS) != 0 {
			return false
		}
		sentBytes := units.ByteCount(send.Stats().SegmentsSent) * units.MSS
		if delivered > sentBytes {
			return false
		}
		// Sender and receiver agree: snd.una equals rcv.nxt after the
		// in-flight tail quiesces one RTT later.
		eng.Run(eng.Now() + 5*sim.Second)
		return send.window.Una()*int64(units.MSS) <= recv.RcvNxt()+int64(units.MSS)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Fatal(err)
	}
}

// TestNoDuplicateDeliveryAccounting: the sender's delivered counter
// counts every byte exactly once even when segments are retransmitted
// spuriously (duplicates discarded by the receiver).
func TestNoDuplicateDeliveryAccounting(t *testing.T) {
	eng := sim.NewEngine()
	rng := sim.NewRNG(9)
	rate := 10 * units.MbitPerSec
	db := lossyDumbbell(eng, rng, rate, units.BDP(rate, 100*sim.Millisecond), 0.05)
	var recv *Receiver
	var send *Sender
	db.SetEndpoints(func(p packet.Packet) { recv.OnData(p) }, func(p packet.Packet) { send.OnAck(p) })
	recv = NewReceiver(eng, 0, DefaultReceiverConfig(), db.SendAck)
	send = NewSender(eng, 0, Config{CCA: cca.NewReno(units.MSS), Output: db.SendData})
	send.Start(0)
	eng.Run(30 * sim.Second)

	st := send.Stats()
	// delivered (sender view) == una bytes + sacked-but-unacked bytes;
	// it can never exceed unique bytes sent.
	unique := units.ByteCount(send.window.Nxt()) * units.MSS
	if st.DeliveredBytes > unique {
		t.Fatalf("delivered %v exceeds unique bytes %v", st.DeliveredBytes, unique)
	}
	if st.Retransmissions == 0 {
		t.Fatal("no retransmissions at 5% loss")
	}
	// Receiver's in-order prefix can't exceed sender-claimed delivery.
	if got := recv.Stats().Delivered; got > st.DeliveredBytes+st.InFlight {
		t.Fatalf("receiver prefix %v > sender delivered %v + inflight", got, st.DeliveredBytes)
	}
}
