package netem

import (
	"testing"

	"ccatscale/internal/packet"
	"ccatscale/internal/sim"
	"ccatscale/internal/units"
)

func newTestPort(rate units.Bandwidth, buf units.ByteCount) (*sim.Engine, *Port, *[]packet.Packet, *[]sim.Time, *int) {
	eng := sim.NewEngine()
	var delivered []packet.Packet
	var times []sim.Time
	drops := 0
	q := NewDropTailQueue(buf)
	p := NewPort(eng, rate, q,
		func(pkt packet.Packet) {
			delivered = append(delivered, pkt)
			times = append(times, eng.Now())
		},
		func(_ sim.Time, _ packet.Packet) { drops++ })
	return eng, p, &delivered, &times, &drops
}

func TestPortSerializationTiming(t *testing.T) {
	eng, p, delivered, times, _ := newTestPort(100*units.MbitPerSec, 1*units.MB)
	p.Send(dataPkt(0, 0, 1448)) // 1518 wire bytes → 121.44 µs
	eng.Run(sim.Second)
	if len(*delivered) != 1 {
		t.Fatalf("delivered %d packets, want 1", len(*delivered))
	}
	want := sim.Time(1518 * 8 * 10) // 1518*8 bits at 100 Mbps = 121440 ns
	if (*times)[0] != want {
		t.Fatalf("delivery at %v, want %v", (*times)[0], want)
	}
}

func TestPortBackToBackRate(t *testing.T) {
	// 10 packets sent at t=0 must drain at exactly line rate.
	eng, p, delivered, times, _ := newTestPort(100*units.MbitPerSec, 1*units.MB)
	for i := 0; i < 10; i++ {
		p.Send(dataPkt(0, int64(i)*1448, 1448))
	}
	eng.Run(sim.Second)
	if len(*delivered) != 10 {
		t.Fatalf("delivered %d, want 10", len(*delivered))
	}
	per := sim.Time(121440)
	for i, at := range *times {
		want := per * sim.Time(i+1)
		if at != want {
			t.Fatalf("packet %d delivered at %v, want %v", i, at, want)
		}
	}
	// FIFO order preserved.
	for i, pkt := range *delivered {
		if pkt.Seq != int64(i)*1448 {
			t.Fatalf("packet %d out of order: seq %d", i, pkt.Seq)
		}
	}
}

func TestPortDropsWhenBufferFull(t *testing.T) {
	// Buffer sized for 2 queued full-MSS frames; one more is in service.
	eng, p, delivered, _, drops := newTestPort(100*units.MbitPerSec, 2*1518)
	for i := 0; i < 5; i++ {
		p.Send(dataPkt(0, int64(i)*1448, 1448))
	}
	eng.Run(sim.Second)
	// 1 in service + 2 queued = 3 delivered, 2 dropped.
	if len(*delivered) != 3 {
		t.Fatalf("delivered %d, want 3", len(*delivered))
	}
	if *drops != 2 {
		t.Fatalf("drops = %d, want 2", *drops)
	}
}

func TestPortWorkConserving(t *testing.T) {
	// A packet arriving while the port is idle (after a drain) starts
	// transmitting immediately.
	eng, p, _, times, _ := newTestPort(100*units.MbitPerSec, 1*units.MB)
	p.Send(dataPkt(0, 0, 1448))
	eng.Run(sim.Second) // drains; now idle at 1s
	eng.Schedule(2*sim.Second, func() { p.Send(dataPkt(0, 1448, 1448)) })
	eng.Run(3 * sim.Second)
	if len(*times) != 2 {
		t.Fatalf("delivered %d, want 2", len(*times))
	}
	want := 2*sim.Second + 121440
	if (*times)[1] != want {
		t.Fatalf("second delivery at %v, want %v", (*times)[1], want)
	}
}

func TestPortUtilization(t *testing.T) {
	eng, p, _, _, _ := newTestPort(100*units.MbitPerSec, 10*units.MB)
	// Keep the port busy for roughly half the horizon:
	// 100 Mbps for 0.5 s = 6.25 MB ≈ 4117 full frames (all of which fit
	// in the 10 MB buffer).
	for i := 0; i < 4117; i++ {
		p.Send(dataPkt(0, 0, 1448))
	}
	eng.Run(sim.Second)
	u := p.Utilization()
	if u < 0.49 || u > 0.51 {
		t.Fatalf("utilization = %v, want ≈0.5", u)
	}
	if p.TxPackets() != 4117 {
		t.Fatalf("TxPackets = %d, want 4117", p.TxPackets())
	}
	if p.TxBytes() != 4117*1518 {
		t.Fatalf("TxBytes = %v", p.TxBytes())
	}
}

func TestPortPanicsOnBadConfig(t *testing.T) {
	eng := sim.NewEngine()
	q := NewDropTailQueue(units.MB)
	for name, fn := range map[string]func(){
		"zero rate": func() { NewPort(eng, 0, q, func(packet.Packet) {}, nil) },
		"nil sink":  func() { NewPort(eng, units.MbitPerSec, q, nil, nil) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s: no panic", name)
				}
			}()
			fn()
		}()
	}
}

func TestPipeDelay(t *testing.T) {
	eng := sim.NewEngine()
	var at sim.Time
	pi := NewPipe(eng, 20*sim.Millisecond, func(packet.Packet) { at = eng.Now() })
	eng.Schedule(5*sim.Millisecond, func() { pi.Send(packet.Packet{}) })
	eng.Run(sim.Second)
	if at != 25*sim.Millisecond {
		t.Fatalf("pipe delivery at %v, want 25ms", at)
	}
	if pi.Delay() != 20*sim.Millisecond {
		t.Fatalf("Delay = %v", pi.Delay())
	}
}

func TestPipeOrderPreserved(t *testing.T) {
	eng := sim.NewEngine()
	var seqs []int64
	pi := NewPipe(eng, sim.Millisecond, func(p packet.Packet) { seqs = append(seqs, p.Seq) })
	for i := 0; i < 10; i++ {
		i := i
		eng.Schedule(sim.Time(i), func() { pi.Send(packet.Packet{Seq: int64(i)}) })
	}
	eng.Run(sim.Second)
	for i, s := range seqs {
		if s != int64(i) {
			t.Fatalf("pipe reordered: %v", seqs)
		}
	}
}

func TestDumbbellEndToEndRTT(t *testing.T) {
	eng := sim.NewEngine()
	rtt := 20 * sim.Millisecond
	d := NewDumbbell(eng, DumbbellConfig{
		Rate:   100 * units.MbitPerSec,
		Buffer: units.MB,
		RTT:    []sim.Time{rtt},
	})
	var dataAt, ackAt sim.Time
	d.SetEndpoints(
		func(p packet.Packet) { // receiver: immediately ACK
			dataAt = eng.Now()
			d.SendAck(packet.Packet{Flow: p.Flow, Ack: true, CumAck: p.End()})
		},
		func(p packet.Packet) { ackAt = eng.Now() },
	)
	d.SendData(dataPkt(0, 0, 1448))
	eng.Run(sim.Second)
	serialization := sim.Time(121440)
	if dataAt != serialization+fwdPropDelay {
		t.Fatalf("data arrived at %v, want %v", dataAt, serialization+fwdPropDelay)
	}
	// Total RTT = serialization + base RTT (fwd prop + rev delay = rtt).
	if ackAt != serialization+rtt {
		t.Fatalf("ack arrived at %v, want %v", ackAt, serialization+rtt)
	}
}

// TestNewDumbbellIsOneLinkTopology pins the derivation the rest of the
// repository relies on: a dumbbell is one link named "bottleneck" that
// every flow crosses, and all of a flow's base RTT beyond the fixed
// forward delay rides the ACK path.
func TestNewDumbbellIsOneLinkTopology(t *testing.T) {
	rtts := []sim.Time{20 * sim.Millisecond, 200 * sim.Millisecond, 2 * sim.Microsecond}
	d := NewDumbbell(sim.NewEngine(), DumbbellConfig{
		Rate:   100 * units.MbitPerSec,
		Buffer: units.MB,
		RTT:    rtts,
	})
	links := d.LinkStats()
	if len(links) != 1 || links[0].Name != "bottleneck" || links[0].Rate != 100*units.MbitPerSec {
		t.Fatalf("links = %+v, want one 100 Mbps link named bottleneck", links)
	}
	if d.Flows() != len(rtts) {
		t.Fatalf("Flows = %d, want %d", d.Flows(), len(rtts))
	}
	for f, rtt := range rtts {
		want := rtt - fwdPropDelay
		if want < 0 {
			want = 0
		}
		if d.revDelay[f] != want {
			t.Fatalf("flow %d reverse delay = %v, want %v", f, d.revDelay[f], want)
		}
		if d.entry[f] != 0 || d.next[0][f] != -1 {
			t.Fatalf("flow %d is not routed over the bottleneck alone", f)
		}
	}
}

func TestDumbbellPerFlowRTTs(t *testing.T) {
	eng := sim.NewEngine()
	d := NewDumbbell(eng, DumbbellConfig{
		Rate:   10 * units.GbitPerSec,
		Buffer: units.MB,
		RTT:    []sim.Time{20 * sim.Millisecond, 200 * sim.Millisecond},
	})
	ackAt := map[int32]sim.Time{}
	d.SetEndpoints(
		func(p packet.Packet) {
			d.SendAck(packet.Packet{Flow: p.Flow, Ack: true, CumAck: p.End()})
		},
		func(p packet.Packet) { ackAt[p.Flow] = eng.Now() },
	)
	d.SendData(dataPkt(0, 0, 1448))
	d.SendData(dataPkt(1, 0, 1448))
	eng.Run(sim.Second)
	// Flow 1's ACK must arrive ≈180 ms after flow 0's.
	gap := ackAt[1] - ackAt[0]
	if gap < 179*sim.Millisecond || gap > 181*sim.Millisecond {
		t.Fatalf("RTT gap = %v, want ≈180ms", gap)
	}
}

func TestDumbbellDropCallback(t *testing.T) {
	eng := sim.NewEngine()
	var drops []packet.Packet
	d := NewDumbbell(eng, DumbbellConfig{
		Rate:   units.MbitPerSec,
		Buffer: 1518, // one queued frame
		RTT:    []sim.Time{20 * sim.Millisecond},
		OnDrop: func(_ sim.Time, p packet.Packet) { drops = append(drops, p) },
	})
	d.SetEndpoints(func(packet.Packet) {}, func(packet.Packet) {})
	for i := 0; i < 4; i++ {
		d.SendData(dataPkt(0, int64(i)*1448, 1448))
	}
	eng.Run(sim.Second)
	// 1 in service, 1 queued, 2 dropped.
	if len(drops) != 2 {
		t.Fatalf("drops = %d, want 2", len(drops))
	}
	if drops[0].Seq != 2*1448 || drops[1].Seq != 3*1448 {
		t.Fatalf("wrong packets dropped: %v", drops)
	}
}
