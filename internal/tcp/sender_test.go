package tcp

import (
	"testing"

	"ccatscale/internal/cca"
	"ccatscale/internal/netem"
	"ccatscale/internal/packet"
	"ccatscale/internal/sim"
	"ccatscale/internal/units"
)

// testNet wires senders and receivers through a dumbbell bottleneck —
// a miniature version of the experiment harness.
type testNet struct {
	eng       *sim.Engine
	db        *netem.Topology
	senders   []*Sender
	receivers []*Receiver
	drops     int
}

func newTestNet(t *testing.T, rate units.Bandwidth, buffer units.ByteCount, rtts []sim.Time, ccas []cca.CCA) *testNet {
	t.Helper()
	return newTestNetEdges(t, rate, buffer, rtts, ccas, false)
}

// newTestNetEdges is newTestNet wired through the by-value edges
// (Output, OnData, OnAck) or, with byRef, the by-reference ones
// (OutputRef, OnDataRef, OnAckRef) that core uses.
func newTestNetEdges(t *testing.T, rate units.Bandwidth, buffer units.ByteCount, rtts []sim.Time, ccas []cca.CCA, byRef bool) *testNet {
	t.Helper()
	n := &testNet{eng: sim.NewEngine()}
	n.db = netem.NewDumbbell(n.eng, netem.DumbbellConfig{
		Rate:   rate,
		Buffer: buffer,
		RTT:    rtts,
		OnDrop: func(_ sim.Time, _ packet.Packet) { n.drops++ },
	})
	for i := range rtts {
		flow := int32(i)
		cfg := Config{CCA: ccas[i], Output: n.db.SendData}
		if byRef {
			cfg = Config{CCA: ccas[i], OutputRef: n.db.SendDataRef}
		}
		n.senders = append(n.senders, NewSender(n.eng, flow, cfg))
		n.receivers = append(n.receivers, NewReceiver(n.eng, flow, ReceiverConfig{DelAckDelay: DelayedAckTimeout}, n.db.SendAck))
	}
	if byRef {
		n.db.SetRefEndpoints(
			func(p *packet.Packet) { n.receivers[p.Flow].OnDataRef(p) },
			func(p *packet.Packet) { n.senders[p.Flow].OnAckRef(p) },
		)
		return n
	}
	n.db.SetEndpoints(
		func(p packet.Packet) { n.receivers[p.Flow].OnData(p) },
		func(p packet.Packet) { n.senders[p.Flow].OnAck(p) },
	)
	return n
}

func (n *testNet) start() {
	for _, s := range n.senders {
		s.Start(0)
	}
}

func TestSingleRenoFlowSaturatesLink(t *testing.T) {
	rate := 20 * units.MbitPerSec
	rtt := 20 * sim.Millisecond
	buffer := units.BDP(rate, 200*sim.Millisecond)
	n := newTestNet(t, rate, buffer, []sim.Time{rtt}, []cca.CCA{cca.NewReno(units.MSS)})
	n.start()
	n.eng.Run(20 * sim.Second)

	delivered := n.receivers[0].Stats().Delivered
	goodput := units.Throughput(delivered, 20*sim.Second)
	// Goodput should be near line rate minus header overhead (~95%).
	if float64(goodput) < 0.85*float64(rate) {
		t.Fatalf("goodput = %v on a %v link", goodput, rate)
	}
	util := n.db.Port().Utilization()
	if util < 0.9 {
		t.Fatalf("utilization = %v, want > 0.9", util)
	}
}

func TestRenoExperiencesHalvingsUnderDropTail(t *testing.T) {
	rate := 20 * units.MbitPerSec
	rtt := 20 * sim.Millisecond
	// A small buffer forces periodic loss.
	buffer := units.BDP(rate, 40*sim.Millisecond)
	n := newTestNet(t, rate, buffer, []sim.Time{rtt}, []cca.CCA{cca.NewReno(units.MSS)})
	n.start()
	n.eng.Run(30 * sim.Second)

	st := n.senders[0].Stats()
	if n.drops == 0 {
		t.Fatal("no drops despite 1-BDP-at-40ms buffer and saturating flow")
	}
	if st.FastRecoveries == 0 {
		t.Fatal("no fast recoveries despite drops (fast retransmit broken?)")
	}
	if st.RTOs > st.FastRecoveries/2 {
		t.Fatalf("too many RTOs (%d) vs recoveries (%d): SACK recovery not working", st.RTOs, st.FastRecoveries)
	}
	if st.Retransmissions == 0 {
		t.Fatal("drops but no retransmissions")
	}
	// Every dropped segment must eventually be repaired: receiver
	// delivery gap equals at most the current window.
	recvd := int64(n.receivers[0].Stats().Delivered)
	sent := n.senders[0].window.Nxt() * int64(units.MSS)
	if sent-recvd > int64(st.Cwnd)+int64(units.MSS)*64 {
		t.Fatalf("delivery hole: sent %d delivered %d", sent, recvd)
	}
}

func TestRTTInflatesWithStandingQueue(t *testing.T) {
	rate := 20 * units.MbitPerSec
	rtt := 20 * sim.Millisecond
	buffer := units.BDP(rate, 200*sim.Millisecond)
	n := newTestNet(t, rate, buffer, []sim.Time{rtt}, []cca.CCA{cca.NewReno(units.MSS)})
	n.start()
	n.eng.Run(20 * sim.Second)
	st := n.senders[0].Stats()
	if st.MinRTT < rtt || st.MinRTT > rtt+5*sim.Millisecond {
		t.Fatalf("MinRTT = %v, want ≈%v", st.MinRTT, rtt)
	}
	// With a drop-tail buffer of 10× the base BDP, mean RTT must sit
	// well above the base (standing queue).
	if st.MeanRTT < 2*rtt {
		t.Fatalf("MeanRTT = %v shows no queueing on a deep buffer", st.MeanRTT)
	}
}

func TestTwoRenoFlowsShareFairly(t *testing.T) {
	rate := 20 * units.MbitPerSec
	rtt := 20 * sim.Millisecond
	buffer := units.BDP(rate, 200*sim.Millisecond)
	n := newTestNet(t, rate, buffer,
		[]sim.Time{rtt, rtt},
		[]cca.CCA{cca.NewReno(units.MSS), cca.NewReno(units.MSS)})
	n.start()
	n.eng.Run(60 * sim.Second)
	a := float64(n.receivers[0].Stats().Delivered)
	b := float64(n.receivers[1].Stats().Delivered)
	jfi := (a + b) * (a + b) / (2 * (a*a + b*b))
	if jfi < 0.85 {
		t.Fatalf("two-flow JFI = %v (shares %v/%v)", jfi, a, b)
	}
}

func TestCubicFlowSaturatesLink(t *testing.T) {
	rate := 20 * units.MbitPerSec
	rtt := 20 * sim.Millisecond
	buffer := units.BDP(rate, 200*sim.Millisecond)
	n := newTestNet(t, rate, buffer, []sim.Time{rtt}, []cca.CCA{cca.NewCubic(units.MSS)})
	n.start()
	n.eng.Run(20 * sim.Second)
	goodput := units.Throughput(n.receivers[0].Stats().Delivered, 20*sim.Second)
	if float64(goodput) < 0.85*float64(rate) {
		t.Fatalf("cubic goodput = %v on a %v link", goodput, rate)
	}
}

func TestBBRFlowSaturatesLinkWithShallowQueue(t *testing.T) {
	rate := 20 * units.MbitPerSec
	rtt := 20 * sim.Millisecond
	buffer := units.BDP(rate, 200*sim.Millisecond)
	bbr := cca.NewBBR(units.MSS, sim.NewRNG(1))
	n := newTestNet(t, rate, buffer, []sim.Time{rtt}, []cca.CCA{bbr})
	n.start()
	n.eng.Run(20 * sim.Second)
	goodput := units.Throughput(n.receivers[0].Stats().Delivered, 20*sim.Second)
	if float64(goodput) < 0.8*float64(rate) {
		t.Fatalf("bbr goodput = %v on a %v link", goodput, rate)
	}
	// BBR should not sustain a large standing queue: mean RTT stays
	// near the base RTT, unlike loss-based CCAs on the same buffer.
	st := n.senders[0].Stats()
	if st.MeanRTT > 3*rtt {
		t.Fatalf("BBR MeanRTT = %v: standing queue too deep", st.MeanRTT)
	}
	if bbr.State() == "STARTUP" {
		t.Fatal("BBR still in STARTUP after 20s")
	}
}

func TestSenderRecoversFromBlackholeViaRTO(t *testing.T) {
	// A custom sink that eats every data packet after the first 100:
	// only an RTO can recover, and backoff must kick in.
	eng := sim.NewEngine()
	var sender *Sender
	recv := NewReceiver(eng, 0, ReceiverConfig{DelAckDelay: DelayedAckTimeout}, func(p packet.Packet) {
		eng.After(10*sim.Millisecond, func() { sender.OnAck(p) })
	})
	sent := 0
	sender = NewSender(eng, 0, Config{
		CCA: cca.NewReno(units.MSS),
		Output: func(p packet.Packet) {
			sent++
			if sent <= 100 {
				eng.After(10*sim.Millisecond, func() { recv.OnData(p) })
			}
		},
	})
	sender.Start(0)
	eng.Run(10 * sim.Second)
	st := sender.Stats()
	if st.RTOs == 0 {
		t.Fatal("no RTO despite blackhole")
	}
	if st.RTOs < 3 {
		t.Fatalf("RTOs = %d; expected repeated backoff timeouts", st.RTOs)
	}
	if st.Cwnd != units.MSS {
		t.Fatalf("cwnd = %v during blackhole, want 1 MSS", st.Cwnd)
	}
}

func TestSenderConfigValidation(t *testing.T) {
	eng := sim.NewEngine()
	for name, cfg := range map[string]Config{
		"nil cca":        {Output: func(packet.Packet) {}},
		"neither output": {CCA: cca.NewReno(units.MSS)},
		"both outputs": {CCA: cca.NewReno(units.MSS),
			Output: func(packet.Packet) {}, OutputRef: func(*packet.Packet) {}},
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s: no panic", name)
				}
			}()
			NewSender(eng, 0, cfg)
		}()
	}
}

func TestDeliveredNeverExceedsSent(t *testing.T) {
	rate := 10 * units.MbitPerSec
	n := newTestNet(t, rate, units.BDP(rate, 100*sim.Millisecond),
		[]sim.Time{20 * sim.Millisecond}, []cca.CCA{cca.NewReno(units.MSS)})
	n.start()
	n.eng.Run(10 * sim.Second)
	st := n.senders[0].Stats()
	sentBytes := units.ByteCount(st.SegmentsSent) * units.MSS
	if st.DeliveredBytes > sentBytes {
		t.Fatalf("delivered %v > sent %v", st.DeliveredBytes, sentBytes)
	}
	if got := n.receivers[0].Stats().Delivered; got > sentBytes {
		t.Fatalf("receiver delivered %v > sent %v", got, sentBytes)
	}
	if st.DeliveredBytes == 0 {
		t.Fatal("nothing delivered")
	}
}

func TestPacingSpacesTransmissions(t *testing.T) {
	// A pacing CCA must not emit back-to-back bursts: check inter-send
	// gaps once the model is warm, with a real bottleneck providing the
	// bandwidth signal.
	rate := 20 * units.MbitPerSec
	rtt := 20 * sim.Millisecond
	n := newTestNet(t, rate, units.BDP(rate, 200*sim.Millisecond),
		[]sim.Time{rtt}, []cca.CCA{cca.NewBBR(units.MSS, sim.NewRNG(3))})
	var sendTimes []sim.Time
	// Rebuild the sender with an output tap in front of the dumbbell.
	n.senders[0] = NewSender(n.eng, 0, Config{
		CCA: cca.NewBBR(units.MSS, sim.NewRNG(3)),
		Output: func(p packet.Packet) {
			sendTimes = append(sendTimes, n.eng.Now())
			n.db.SendData(p)
		},
	})
	n.start()
	n.eng.Run(5 * sim.Second)
	if len(sendTimes) < 100 {
		t.Fatalf("only %d transmissions", len(sendTimes))
	}
	// After warmup, no more than a handful of same-instant sends in a
	// row (initial window burst aside).
	burst, maxBurst := 1, 1
	for i := len(sendTimes) / 2; i < len(sendTimes)-1; i++ {
		if sendTimes[i+1] == sendTimes[i] {
			burst++
			if burst > maxBurst {
				maxBurst = burst
			}
		} else {
			burst = 1
		}
	}
	if maxBurst > 4 {
		t.Fatalf("pacing allowed bursts of %d same-instant sends", maxBurst)
	}
}

func TestFiniteTransferCompletes(t *testing.T) {
	rate := 10 * units.MbitPerSec
	n := newTestNet(t, rate, units.BDP(rate, 100*sim.Millisecond),
		[]sim.Time{20 * sim.Millisecond}, []cca.CCA{cca.NewReno(units.MSS)})
	completedAt := sim.Time(0)
	size := units.ByteCount(100) * units.MSS
	n.senders[0] = NewSender(n.eng, 0, Config{
		CCA:           cca.NewReno(units.MSS),
		Output:        n.db.SendData,
		TransferBytes: size,
		OnComplete:    func() { completedAt = n.eng.Now() },
	})
	n.start()
	n.eng.Run(30 * sim.Second)
	if completedAt == 0 {
		t.Fatal("finite transfer never completed")
	}
	if !n.senders[0].Done() {
		t.Fatal("Done() false after completion")
	}
	st := n.senders[0].Stats()
	if st.SegmentsSent < 100 {
		t.Fatalf("sent %d segments, want ≥100", st.SegmentsSent)
	}
	// No more data should be produced afterwards.
	sentAtDone := st.SegmentsSent
	n.eng.Run(40 * sim.Second)
	if got := n.senders[0].Stats().SegmentsSent; got != sentAtDone {
		t.Fatalf("sender kept transmitting after completion: %d → %d", sentAtDone, got)
	}
	// The floor on completion time: size/rate + base RTT.
	floor := rate.TransmissionTime(size)
	if completedAt < floor {
		t.Fatalf("completed at %v, below serialization floor %v", completedAt, floor)
	}
	if got := n.receivers[0].Stats().Delivered; got != size {
		t.Fatalf("receiver got %v, want %v", got, size)
	}
}

func TestFiniteTransferCompletesUnderLoss(t *testing.T) {
	eng := sim.NewEngine()
	rng := sim.NewRNG(4)
	rate := 10 * units.MbitPerSec
	db := netem.NewDumbbell(eng, netem.DumbbellConfig{
		Rate:   rate,
		Buffer: units.BDP(rate, 100*sim.Millisecond),
		RTT:    []sim.Time{20 * sim.Millisecond},
	})
	var recv *Receiver
	var send *Sender
	done := false
	imp := netem.NewImpairment(eng, rng, netem.ImpairmentConfig{LossProb: 0.1},
		func(p *packet.Packet) { recv.OnData(*p) })
	db.SetEndpoints(func(p packet.Packet) { imp.Send(&p) }, func(p packet.Packet) { send.OnAck(p) })
	recv = NewReceiver(eng, 0, DefaultReceiverConfig(), db.SendAck)
	size := units.ByteCount(200) * units.MSS
	send = NewSender(eng, 0, Config{
		CCA:           cca.NewReno(units.MSS),
		Output:        db.SendData,
		TransferBytes: size,
		OnComplete:    func() { done = true },
	})
	send.Start(0)
	eng.Run(60 * sim.Second)
	if !done {
		t.Fatal("transfer with 10% loss never completed (tail-loss handling broken?)")
	}
	if got := recv.Stats().Delivered; got != size {
		t.Fatalf("delivered %v, want %v", got, size)
	}
}

func TestFiniteTransferRoundsUpPartialSegment(t *testing.T) {
	eng := sim.NewEngine()
	var originals int
	s := NewSender(eng, 0, Config{
		CCA: cca.NewReno(units.MSS),
		Output: func(p packet.Packet) {
			if !p.Retrans { // the blackholed flow will also RTO-retransmit
				originals++
			}
		},
		TransferBytes: units.MSS + 1, // needs 2 segments
	})
	s.Start(0)
	eng.Run(sim.Second)
	if originals != 2 {
		t.Fatalf("sent %d original segments for MSS+1 bytes, want 2", originals)
	}
}
