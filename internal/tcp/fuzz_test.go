package tcp

import (
	"testing"

	"ccatscale/internal/audit"
	"ccatscale/internal/packet"
	"ccatscale/internal/sim"
	"ccatscale/internal/units"
)

// FuzzReceiverSACK drives the receiver's reassembly and SACK generation
// with arbitrary segment arrival orders under a strict auditor: rcv.nxt
// must never regress and the out-of-order set must stay sorted, disjoint,
// and strictly above rcv.nxt after every segment (a violation panics and
// fails the fuzz run). A completion pass then delivers the whole stream
// in order and requires full reassembly — whatever the adversarial
// prefix did, the receiver must still converge to rcv.nxt == total.
//
// The reference model of sack_oracle_test.go runs beside the receiver:
// every ACK must equal the one the sort-per-ACK receiver would have sent,
// and its SACK blocks must be disjoint, strictly above CumAck and never
// repeated.
func FuzzReceiverSACK(f *testing.F) {
	f.Add([]byte{0, 1, 2, 3})
	f.Add([]byte{7, 7, 0, 200, 13, 42, 42, 1})
	f.Add([]byte{255, 128, 64, 32, 16, 8, 4, 2, 1, 0})
	f.Fuzz(func(t *testing.T, data []byte) {
		const mss = int64(units.MSS)
		const segments = 64
		eng := sim.NewEngine()
		aud := audit.New(audit.PolicyStrict, eng.Now)
		var acks int
		oracle := &sackOracle{}
		r := NewReceiver(eng, 0, ReceiverConfig{
			DelAckDelay: DelayedAckTimeout,
			GROWindow:   GROWindow,
			Audit:       aud,
		}, func(p packet.Packet) {
			acks++
			if p.CumAck > segments*mss {
				t.Fatalf("ACK %d beyond the %d bytes ever sent", p.CumAck, segments*mss)
			}
			oracle.check(t, p)
		})
		deliver := func(p packet.Packet) {
			oracle.onData(p)
			r.OnData(p)
		}

		// Adversarial phase: each fuzz byte selects which segment arrives
		// next (duplicates and arbitrary order included); its top bit
		// makes the arrival a retransmission, so the echo fields vary.
		at := sim.Time(0)
		for _, b := range data {
			seg := int64(b) % segments
			at += 10 * sim.Microsecond
			p := packet.Packet{Flow: 0, Seq: seg * mss, Len: int32(mss), SentAt: at, Retrans: b >= 128}
			eng.Schedule(at, func() { deliver(p) })
		}
		// Completion phase: the full stream in order.
		for seg := int64(0); seg < segments; seg++ {
			p := packet.Packet{Flow: 0, Seq: seg * mss, Len: int32(mss)}
			at += 10 * sim.Microsecond
			eng.Schedule(at, func() { deliver(p) })
		}
		eng.Run(at + sim.Second)

		if r.RcvNxt() != segments*mss {
			t.Fatalf("reassembly incomplete: rcv.nxt %d, want %d", r.RcvNxt(), segments*mss)
		}
		if acks == 0 {
			t.Fatal("receiver never acknowledged anything")
		}
	})
}

// FuzzSendWindow drives the sender's SACK scoreboard through arbitrary
// legal operation sequences and recounts it from first principles after
// every step: the pipe estimate, SACKed/lost counters, and scoreboard
// ranges must match exactly, and the pipe must never go negative.
//
// A twin window takes the same operations with every SackRange block
// applied segment by segment through Sack instead: the two must report
// the same delivered bytes and hold the same scoreboard after every step,
// blocks below snd.una and past snd.nxt included.
func FuzzSendWindow(f *testing.F) {
	f.Add([]byte{0, 0, 0, 2, 3, 5, 1})
	f.Add([]byte{0, 0, 0, 0, 4, 5, 5, 6, 2, 1})
	f.Add([]byte{0, 2, 0, 2, 3, 5, 6, 0, 1, 1, 1})
	f.Add([]byte{0, 0, 0, 7, 4, 9, 0, 0, 7, 4, 9, 3, 5, 7, 5, 2, 1})
	f.Fuzz(func(t *testing.T, data []byte) {
		now := sim.Time(0)
		aud := audit.New(audit.PolicyStrict, func() sim.Time { return now })
		w, twin := newSendWindow(units.MSS), newSendWindow(units.MSS)
		for i := 0; i < len(data); i++ {
			op := data[i] % 8
			// The following bytes, when present, select a segment and a
			// block length.
			var sel, length int64
			if i+1 < len(data) {
				sel = int64(data[i+1])
			}
			if i+2 < len(data) {
				length = int64(data[i+2])
			}
			now += sim.Microsecond
			var delivered [2]units.ByteCount
			for k, win := range []*sendWindow{w, twin} {
				switch op {
				case 0:
					win.ExtendOne(now)
				case 1:
					if n := win.InWindow(); n > 0 {
						win.Advance(win.Una() + 1 + sel%n)
					}
				case 2:
					if n := win.InWindow(); n > 0 {
						win.Sack(win.Una() + sel%n)
					}
				case 3:
					win.MarkLost()
				case 4:
					win.MarkAllLost()
				case 5:
					if seg, ok := win.NextLost(); ok {
						win.MarkRetransmitted(seg, now)
					}
				case 6:
					win.MarkStaleRtxLost()
				case 7:
					from := win.Una() - 2 + sel%(win.InWindow()+5)
					to := from + 1 + length%12
					if win == w {
						delivered[k] = win.SackRange(from, to)
						break
					}
					for seg := from; seg < to; seg++ {
						delivered[k] += win.Sack(seg)
					}
				}
			}
			if w.Pipe() < 0 {
				t.Fatalf("pipe went negative: %d", w.Pipe())
			}
			w.audit(aud, 0)
			if delivered[0] != delivered[1] {
				t.Fatalf("step %d: SackRange delivered %d bytes, per-segment Sack %d", i, delivered[0], delivered[1])
			}
			if diff := scoreboardDiff(w, twin); diff != "" {
				t.Fatalf("step %d: SackRange window against per-segment twin: %s", i, diff)
			}
		}
	})
}
