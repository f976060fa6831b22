package netem

import (
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
