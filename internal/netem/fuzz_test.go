package netem

import (
	"bytes"
	"testing"

	"ccatscale/internal/audit"
	"ccatscale/internal/packet"
	"ccatscale/internal/sim"
	"ccatscale/internal/units"
)

// FuzzQueueConservation drives both queue disciplines through arbitrary
// push/pop sequences (with time advancing between operations so CoDel's
// sojourn logic engages) under a strict AuditedQueue: the queue's own
// occupancy counters must match the shadow ledger after every operation,
// never go negative, and never exceed capacity. Every packet that leaves
// — popped or dropped at the head — must be the oldest one admitted,
// equal field for field: a slot holds a segment, not the packet, and CE
// is the one field a queue may change, only while marking and only on an
// ECT packet. The first byte selects the discipline (bit 0) and marking
// (bit 1); each following byte is one operation, and a push's byte also
// sets the packet's flags.
func FuzzQueueConservation(f *testing.F) {
	f.Add([]byte{0, 10, 10, 128, 10, 200, 200, 200})
	f.Add([]byte{1, 10, 20, 30, 128, 128, 40, 200, 128})
	f.Add([]byte{1, 255, 255, 255, 255, 128, 128, 128, 128, 128, 128})
	// Large ECT (11, 26, 27) and non-ECT (12, 13, 28, 29) segments,
	// past the marking threshold and past CoDel's first interval: CoDel
	// dropping, drop-tail marking, CoDel marking.
	standing := []byte{11, 12, 13, 26, 27, 28, 29, 11, 12, 13, 26, 27, 28, 29, 200, 200, 200, 200, 200, 200, 200, 200}
	for _, first := range []byte{1, 2, 3} {
		f.Add(append([]byte{first}, standing...))
	}
	// The drop-tail ring holds RingSlotsFor(capacity) = 21 slots, not a
	// power of two: 12 pushes and pops move its head to slot 12, then
	// 30 runts of 8 bytes wrap it and grow it to 42 with the head past
	// the seam, and the pops drain it in order.
	wrap := []byte{0}
	for _, run := range []struct{ op, n byte }{{15, 12}, {128, 12}, {15, 30}, {128, 30}} {
		wrap = append(wrap, bytes.Repeat([]byte{run.op}, int(run.n))...)
	}
	f.Add(wrap)
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) == 0 {
			return
		}
		capacity := 20 * (units.MSS + packet.HeaderBytes)
		marking := data[0]&2 != 0
		now := sim.Time(0)
		aud := audit.New(audit.PolicyStrict, func() sim.Time { return now })

		// admitted is the FIFO of packets the queue accepted; leave
		// checks each packet that leaves against its head.
		var admitted []packet.Packet
		leave := func(how string, got packet.Packet) {
			t.Helper()
			if len(admitted) == 0 {
				t.Fatalf("%s %v from a queue that admitted nothing more", how, &got)
			}
			want := admitted[0]
			admitted = admitted[1:]
			if got.CE && !want.CE && marking && want.ECT {
				want.CE = true
			}
			if got != want {
				t.Fatalf("%s %+v, admitted %+v", how, got, want)
			}
		}

		var aq *AuditedQueue
		var inner Queue
		if data[0]%2 == 0 {
			dt := NewDropTailQueue(capacity)
			if marking {
				dt.SetCEThreshold(capacity / 4)
			}
			inner = dt
		} else {
			// Mirror the dumbbell's wiring: CoDel reports its own drops
			// (tail on push, AQM head drops inside pop) and the audited
			// queue learns about the dequeue-side ones via NoteDrop.
			cq := NewCoDelQueue(func() sim.Time { return now }, capacity,
				func(_ sim.Time, p packet.Packet) {
					if aq.inPop {
						leave("dropped", p)
					}
					aq.NoteDrop(p)
				})
			cq.SetECN(marking)
			inner = cq
		}
		aq = NewAuditedQueue(inner, aud)

		seq := int64(0)
		for _, b := range data[1:] {
			// Advance time irregularly so CoDel crosses its 100 ms
			// interval and enters/leaves the dropping state.
			now += sim.Time(b) * sim.Millisecond / 4
			if b < 128 {
				// Variable payload sizes exercise byte (not just packet)
				// accounting, including sub-MSS runts.
				size := int32(1 + (int(b)*97)%int(units.MSS))
				p := packet.Packet{
					Flow: int32(b % 5), Seq: seq, Len: size,
					SentAt: now, Delivered: seq / 2, DeliveredAt: now / 2, FirstSentAt: now / 3,
					Retrans: b&1 != 0, ECT: b&2 != 0, CE: b&4 != 0 && b&2 != 0,
					CWR: b&8 != 0, AppLimited: b&16 != 0,
				}
				if push(aq, p) {
					admitted = append(admitted, p)
				}
				seq += int64(size)
			} else if p, ok := pop(aq); ok {
				leave("popped", p)
			}
			if aq.Bytes() != inner.Bytes() || aq.Len() != inner.Len() {
				t.Fatalf("wrapper view diverged: %d/%d vs %d/%d",
					aq.Bytes(), aq.Len(), inner.Bytes(), inner.Len())
			}
		}
		// Drain: everything admitted must come back out, and the ledger
		// must agree the queue is empty.
		for {
			p, ok := pop(aq)
			if !ok {
				break
			}
			leave("popped", p)
		}
		if aq.Bytes() != 0 || aq.Len() != 0 || len(admitted) != 0 {
			t.Fatalf("drained queue reports %d bytes / %d packets, %d admitted never left",
				aq.Bytes(), aq.Len(), len(admitted))
		}
	})
}

// FuzzDropTailDrillDetected proves the detector the -audit-drill rests
// on: any nonzero corruption of the byte counter, injected at any point
// of any operation sequence, is caught by the shadow ledger on the next
// operation.
func FuzzDropTailDrillDetected(f *testing.F) {
	f.Add([]byte{10, 10, 200}, uint8(1), uint16(3))
	f.Add([]byte{10, 10, 10, 10, 200, 200}, uint8(4), uint16(1518))
	f.Fuzz(func(t *testing.T, data []byte, when uint8, delta uint16) {
		if delta == 0 {
			return
		}
		now := sim.Time(0)
		aud := audit.New(audit.PolicyWarn, func() sim.Time { return now })
		dt := NewDropTailQueue(20 * (units.MSS + packet.HeaderBytes))
		aq := NewAuditedQueue(dt, aud)

		corruptAt := int(when) % (len(data) + 1)
		for i, b := range data {
			if i == corruptAt {
				dt.DrillCorrupt(units.ByteCount(delta))
			}
			now += sim.Millisecond
			if b < 128 {
				push(aq, packet.Packet{Flow: 0, Len: int32(units.MSS)})
			} else {
				pop(aq)
			}
		}
		if corruptAt >= len(data) {
			dt.DrillCorrupt(units.ByteCount(delta))
		}
		pop(aq) // at least one post-corruption operation
		if aud.Total() == 0 {
			t.Fatal("corrupted byte counter never detected")
		}
		if aud.Violations()[0].Check != "netem/queue-occupancy" {
			t.Fatalf("first violation %q, want netem/queue-occupancy", aud.Violations()[0].Check)
		}
	})
}

// FuzzLinkStages drives one link that declares a fuzzed iid loss rate,
// jitter, burst loss and outage schedule (up to eight windows, drop or
// hold) with a fuzzed packet train under the auditor. Once the engine is
// quiescent the fabric's ledger must close — every offered wire byte is
// delivered, dropped (DropWire: queue and stage loss) or still in the
// fabric (InNetworkBytes), which by then holds nothing, not even a
// parked or jittered packet — and the auditor must have recorded
// nothing.
// Each train byte sets one packet's size and the gap before the next.
func FuzzLinkStages(f *testing.F) {
	// A seed train of 256 packets of every size class and gap, about 0.8
	// virtual seconds long: long enough for every stage to fire.
	train := make([]byte, 256)
	for i := range train {
		train[i] = byte(i * 37)
	}
	f.Add(uint16(0), uint16(0), uint16(0), uint8(0), uint8(0), uint8(0), uint8(0), uint8(0), train)
	f.Add(uint16(50), uint16(3000), uint16(0), uint8(0), uint8(0), uint8(0), uint8(0), uint8(0), train)
	f.Add(uint16(0), uint16(0), uint16(100), uint8(24), uint8(3), uint8(5), uint8(10), uint8(4), train)
	f.Add(uint16(20), uint16(500), uint16(50), uint8(8), uint8(0x88), uint8(2), uint8(3), uint8(0), train)
	f.Fuzz(func(t *testing.T, loss, jitterUs, burstLoss uint16, burstLen, outage, outStart, outDown, outGap uint8, train []byte) {
		if len(train) > 4096 {
			train = train[:4096]
		}
		ms := func(n uint8) sim.Time { return sim.Time(n) * sim.Millisecond }
		ls := LinkSpec{
			Name: "ab", From: "a", To: "b",
			Rate: 10 * units.MbitPerSec, Delay: sim.Millisecond, Buffer: 8 * (units.MSS + packet.HeaderBytes),
			LossRate: float64(loss%1000) / 1000,
			Jitter:   sim.Time(jitterUs%20000) * sim.Microsecond,
		}
		if burstLoss > 0 {
			ls.BurstLoss = &BurstLossSpec{MeanLoss: float64(burstLoss%1000) / 1000, MeanBurstLen: 1 + float64(burstLen)/8}
		}
		if n := int(outage&0x0f) % 9; n > 0 {
			down := ms(outDown) + sim.Millisecond
			ls.Outage = &OutageSpec{Start: ms(outStart), Down: down, Period: down + ms(outGap), Count: n, Hold: outage&0x80 != 0}
		}
		eng := sim.NewEngine()
		aud := audit.New(audit.PolicyWarn, eng.Now)
		topo := NewTopology(eng, sim.NewRNG(uint64(loss)<<16|uint64(burstLoss)), TopologyConfig{
			Spec: TopologySpec{Nodes: []string{"a", "b"}, Links: []LinkSpec{ls}, Paths: [][]int{{0}}},
			RTT:  []sim.Time{10 * sim.Millisecond}, Audit: aud,
		})
		var delivered units.ByteCount
		topo.SetRefEndpoints(func(p *packet.Packet) { delivered += p.WireBytes() }, func(*packet.Packet) {})

		var offered units.ByteCount
		at := sim.Time(0)
		for i, b := range train {
			p := packet.Packet{Seq: int64(i), Len: int32(1 + (int(b)*97)%int(units.MSS))}
			offered += p.WireBytes()
			eng.Schedule(at, func() { topo.SendData(p) })
			at += sim.Time(b&0x3f) * 100 * sim.Microsecond
		}
		eng.Run(at + 10*sim.Second)

		in := topo.InNetworkBytes()
		if offered != delivered+topo.DropWire()+in {
			t.Fatalf("ledger: offered %d != delivered %d + dropped %d + in network %d (spec %+v)",
				offered, delivered, topo.DropWire(), in, ls)
		}
		if in != 0 {
			t.Fatalf("%d bytes still in the fabric after quiescence (spec %+v)", in, ls)
		}
		if n := aud.Total(); n != 0 {
			t.Fatalf("auditor recorded %d violations: %+v", n, aud.Violations())
		}
	})
}
