package tcp

import (
	"testing"

	"ccatscale/internal/audit"
	"ccatscale/internal/packet"
	"ccatscale/internal/sim"
	"ccatscale/internal/units"
)

// FuzzReceiverSACK drives the receiver's reassembly and SACK generation
// through repeated loss episodes under a strict auditor: rcv.nxt must
// never regress, the out-of-order set must stay sorted, disjoint and
// strictly above rcv.nxt, and the kept SACK list must hold the newest
// ranges of it, after every segment (a violation panics and fails the
// fuzz run).
//
// The fuzz bytes are split into episodes at each 0xff. Within one, each
// byte selects which of the episode's 64 segments arrives next
// (duplicates and arbitrary order included); bit 6 makes the arrival
// three segments long, so one arrival can swallow several ranges (one
// that would straddle rcv.nxt starts at it instead: an in-order run over
// standing ranges), and the top bit makes it a retransmission, so the
// echo fields vary. Arrivals are 10 µs apart, so the coalescing and
// delayed-ACK timers run between them. The
// episode ends with its whole span delivered in order: the set must be
// empty and rcv.nxt at the span's end before the next episode builds
// the set again from nothing.
//
// The reference model of sack_oracle_test.go runs beside the receiver:
// every ACK must equal the one the sort-per-ACK receiver would have sent,
// and its SACK blocks must be disjoint, strictly above CumAck and never
// repeated.
func FuzzReceiverSACK(f *testing.F) {
	f.Add([]byte{0, 1, 2, 3})
	f.Add([]byte{7, 7, 0, 200, 13, 42, 42, 1})
	f.Add([]byte{255, 128, 64, 32, 16, 8, 4, 2, 1, 0})
	f.Add([]byte{9, 3, 5, 7, 4, 255, 20, 10, 30, 11, 12, 75, 255, 255, 2, 62, 63, 1})
	f.Fuzz(func(t *testing.T, data []byte) {
		const mss = int64(units.MSS)
		const segments = 64 // per episode
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
			oracle.check(t, p)
		})
		deliver := func(p packet.Packet) {
			oracle.onData(p)
			r.OnData(p)
		}

		arrive := func(p packet.Packet) {
			eng.Run(eng.Now() + 10*sim.Microsecond)
			deliver(p)
		}
		base := int64(0) // the first segment of the episode
		complete := func() {
			for seg := base; seg < base+segments; seg++ {
				arrive(packet.Packet{Flow: 0, Seq: seg * mss, Len: int32(mss)})
			}
			eng.Run(eng.Now() + sim.Second)
			base += segments
			if r.RcvNxt() != base*mss || len(r.ooo) != 0 {
				t.Fatalf("episode ending at segment %d left rcv.nxt %d and %d ranges standing, want %d and none",
					base, r.RcvNxt(), len(r.ooo), base*mss)
			}
		}
		for _, b := range data {
			if b == 0xff {
				complete()
				continue
			}
			seg, n := base+int64(b)%segments, int64(1)
			if b&64 != 0 {
				if nxt := r.RcvNxt() / mss; seg < nxt && nxt < seg+3 {
					seg = nxt
				}
				n = min(3, base+segments-seg)
			}
			arrive(packet.Packet{Flow: 0, Seq: seg * mss, Len: int32(n * mss), SentAt: eng.Now(), Retrans: b >= 128})
		}
		complete()
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
