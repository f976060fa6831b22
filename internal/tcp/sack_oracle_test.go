package tcp

import (
	"math/rand"
	"slices"
	"sort"
	"testing"

	"ccatscale/internal/audit"
	"ccatscale/internal/packet"
	"ccatscale/internal/sim"
)

// sackOracle is the reference model of what an ACK says: the receiver's
// reassembly, SACK-block selection and echo state exactly as they were
// written before the selection pass and the in-place range set replaced
// them — a fresh slice per out-of-order segment, a full sort of the
// standing ranges by recency stamp per ACK, whole-packet echo copies. It
// models the content of an ACK, not when one is sent: feed it each
// segment before the receiver sees it and hand it every ACK the receiver
// emits.
type sackOracle struct {
	flow   int32
	rcvNxt int64
	ooo    []oooRange
	touch  uint64

	eceLatch   bool
	haveOldest bool
	oldest     packet.Packet
	newest     packet.Packet
}

func (o *sackOracle) onData(p packet.Packet) {
	if p.CWR {
		o.eceLatch = false
	}
	if p.CE {
		o.eceLatch = true
	}
	if !o.haveOldest {
		o.oldest = p
		o.haveOldest = true
	}
	o.newest = p
	switch {
	case p.End() <= o.rcvNxt:
	case p.Seq == o.rcvNxt:
		o.rcvNxt = p.End()
		for len(o.ooo) > 0 && o.ooo[0].start <= o.rcvNxt {
			if o.ooo[0].end > o.rcvNxt {
				o.rcvNxt = o.ooo[0].end
			}
			o.ooo = o.ooo[1:]
		}
	default:
		o.insert(p.Seq, p.End())
	}
}

func (o *sackOracle) insert(start, end int64) {
	o.touch++
	i := sort.Search(len(o.ooo), func(i int) bool { return o.ooo[i].end >= start })
	j := i
	for j < len(o.ooo) && o.ooo[j].start <= end {
		if o.ooo[j].start < start {
			start = o.ooo[j].start
		}
		if o.ooo[j].end > end {
			end = o.ooo[j].end
		}
		j++
	}
	merged := oooRange{start: start, end: end, touched: o.touch}
	o.ooo = append(o.ooo[:i], append([]oooRange{merged}, o.ooo[j:]...)...)
}

// want builds the ACK the receiver must emit in the current state.
func (o *sackOracle) want() packet.Packet {
	ack := packet.Packet{Flow: o.flow, Ack: true, CumAck: o.rcvNxt, ECE: o.eceLatch}
	if o.haveOldest {
		ack.AckedSentAt = o.oldest.SentAt
		ack.AckedRetrans = o.oldest.Retrans
	}
	ack.Delivered = o.newest.Delivered
	ack.DeliveredAt = o.newest.DeliveredAt
	ack.FirstSentAt = o.newest.FirstSentAt
	ack.RateSentAt = o.newest.SentAt
	ack.AppLimited = o.newest.AppLimited

	idx := make([]int, len(o.ooo))
	for i := range idx {
		idx[i] = i
	}
	sort.Slice(idx, func(a, b int) bool {
		return o.ooo[idx[a]].touched > o.ooo[idx[b]].touched
	})
	for k := 0; k < len(idx) && k < packet.MaxSackBlocks; k++ {
		rng := o.ooo[idx[k]]
		ack.Sack[ack.NumSack] = packet.SackBlock{Start: rng.start, End: rng.end}
		ack.NumSack++
	}
	return ack
}

// check compares one emitted ACK, every field, with the oracle's, and
// holds its SACK blocks to what any receiver's must satisfy: each block
// non-empty and strictly above the cumulative point (a block touching it
// would have been delivered), no two overlapping or repeated.
func (o *sackOracle) check(t testing.TB, ack packet.Packet) {
	t.Helper()
	if want := o.want(); ack != want {
		t.Fatalf("ACK differs from the reference receiver's:\n got %+v\nwant %+v", ack, want)
	}
	o.haveOldest = false
	for i := int8(0); i < ack.NumSack; i++ {
		b := ack.Sack[i]
		if b.Start >= b.End || b.Start <= ack.CumAck {
			t.Fatalf("SACK block %d %+v empty or not strictly above CumAck %d", i, b, ack.CumAck)
		}
		for k := int8(0); k < i; k++ {
			if c := ack.Sack[k]; b.Start < c.End && c.Start < b.End {
				t.Fatalf("SACK blocks %d %+v and %d %+v overlap in one ACK", k, c, i, b)
			}
		}
	}
}

// TestReceiverSackChoiceMatchesOracle drives the receiver and the
// reference model with random arrival streams shaped like a loss
// episode — isolated out-of-order segments, tail and head extensions of
// standing ranges, one-segment holes filled so two ranges merge,
// multi-segment arrivals that swallow many ranges at once, fills at the
// cumulative point, duplicates below it — and requires every ACK the
// receiver emits to equal the reference's in every field: same
// cumulative point, same blocks in the same order, same echoes.
func TestReceiverSackChoiceMatchesOracle(t *testing.T) {
	const (
		seeds    = 50
		arrivals = 4000
		span     = 600 // segments above the cumulative point in play
	)
	maxRanges := 0
	for seed := int64(1); seed <= seeds; seed++ {
		rng := rand.New(rand.NewSource(seed))
		eng := sim.NewEngine()
		cfg := DefaultReceiverConfig()
		cfg.Audit = audit.New(audit.PolicyStrict, eng.Now)
		oracle := &sackOracle{flow: 7}
		acks := 0
		r := NewReceiver(eng, 7, cfg, func(ack packet.Packet) {
			acks++
			oracle.check(t, ack)
		})
		for n := 0; n < arrivals; n++ {
			base := oracle.rcvNxt / mss
			first, count := base+1+rng.Int63n(span), int64(1)
			switch kind := rng.Intn(32); {
			case kind == 0:
				first = base // fill at the cumulative point
			case kind == 1 && base > 0:
				first = rng.Int63n(base) // spurious retransmission
			case kind <= 5 && len(oracle.ooo) > 0: // tail extension
				first = oracle.ooo[rng.Intn(len(oracle.ooo))].end / mss
			case kind <= 8 && len(oracle.ooo) > 0: // head extension or merge of two
				first = oracle.ooo[rng.Intn(len(oracle.ooo))].start/mss - 1
			case kind == 9: // swallow whatever stands in a stretch
				count = 2 + rng.Int63n(24)
			case kind == 10: // an in-order run over standing ranges
				first, count = base, 1+rng.Int63n(4)
			}
			p := packet.Packet{
				Flow: 7, Seq: first * mss, Len: int32(count * mss),
				Retrans:     rng.Intn(8) == 0,
				CE:          rng.Intn(64) == 0,
				CWR:         rng.Intn(64) == 0,
				SentAt:      sim.Time(1 + rng.Int63n(1e9)),
				Delivered:   rng.Int63n(1e9),
				DeliveredAt: sim.Time(rng.Int63n(1e9)),
				FirstSentAt: sim.Time(rng.Int63n(1e9)),
				AppLimited:  rng.Intn(16) == 0,
			}
			oracle.onData(p)
			r.OnData(p)
			if len(oracle.ooo) > maxRanges {
				maxRanges = len(oracle.ooo)
			}
			// Mostly back to back; now and then long enough for the
			// coalescing and delayed-ACK timers to fire.
			gap := sim.Time(rng.Int63n(int64(20 * sim.Microsecond)))
			if rng.Intn(32) == 0 {
				gap = 50 * sim.Millisecond
			}
			eng.Run(eng.Now() + gap)
		}
		if r.RcvNxt() != oracle.rcvNxt {
			t.Fatalf("seed %d: rcv.nxt %d, reference %d", seed, r.RcvNxt(), oracle.rcvNxt)
		}
		if acks < arrivals/2 {
			t.Fatalf("seed %d: only %d ACKs for %d arrivals", seed, acks, arrivals)
		}
	}
	// The streams must reach the standing-set sizes a loss episode does,
	// or the comparison says nothing about them.
	if maxRanges < 100 {
		t.Fatalf("largest standing out-of-order set was %d ranges, want ≥ 100", maxRanges)
	}
}

// TestReceiverSackListRefillsAfterMerge walks the two edits that leave
// the receiver's kept SACK list short of three ranges while more stand:
// an arrival that merges the two newest of five ranges, and a
// cumulative fill that delivers a listed one. Each time the ACK must
// still equal the reference's, and its third block must be one the list
// did not hold before the edit, so it came from the refill.
func TestReceiverSackListRefillsAfterMerge(t *testing.T) {
	eng := sim.NewEngine()
	cfg := DefaultReceiverConfig()
	cfg.Audit = audit.New(audit.PolicyStrict, eng.Now)
	oracle := &sackOracle{}
	var last packet.Packet
	r := NewReceiver(eng, 0, cfg, func(ack packet.Packet) {
		oracle.check(t, ack)
		last = ack
	})
	deliver := func(n int64) {
		oracle.onData(seg(n))
		r.OnData(seg(n))
	}
	block := func(from, to int64) packet.SackBlock {
		return packet.SackBlock{Start: from * mss, End: to * mss}
	}
	// refilled delivers segment n and requires the ACK's blocks to be
	// want, the last of them not in the list the receiver held before.
	refilled := func(n int64, want ...packet.SackBlock) {
		t.Helper()
		before, listed := r.sack, r.nsack
		deliver(n)
		if got := last.Sack[:last.NumSack]; !slices.Equal(got, want) {
			t.Fatalf("after segment %d: blocks %v, want %v", n, got, want)
		}
		b := want[len(want)-1]
		for _, rng := range before[:listed] {
			if rng.start == b.Start && rng.end == b.End {
				t.Fatalf("after segment %d: block %v was already listed; no refill was needed", n, b)
			}
		}
	}

	// Five ranges, the newest two at 6 and 4: the list is 6, 4, 2.
	for _, n := range []int64{10, 8, 2, 4, 6} {
		deliver(n)
	}
	if want := (packet.SackBlock{Start: 6 * mss, End: 7 * mss}); last.Sack[0] != want {
		t.Fatalf("newest block %v, want %v", last.Sack[0], want)
	}
	// Segment 5 merges 4 and 6: the list keeps only the merged range
	// and 2, and the ACK takes 8 from the set.
	refilled(5, block(4, 7), block(2, 3), block(8, 9))
	// Segments 0 and 1 carry the cumulative point past the listed 2:
	// the list keeps the merged range and 8, and the ACK takes 10.
	deliver(0)
	refilled(1, block(4, 7), block(8, 9), block(10, 11))
	if r.RcvNxt() != 3*mss {
		t.Fatalf("rcv.nxt %d, want %d", r.RcvNxt(), 3*mss)
	}
}

// TestAuditCatchesBadSackList corrupts the kept SACK list of a receiver
// with four ranges standing, one way at a time, and requires the
// reassembly audit to name each fault: a listed range the set does not
// hold, stamps out of order, a range listed twice (its stamp repeats
// too), and a short list not marked stale.
func TestAuditCatchesBadSackList(t *testing.T) {
	for _, tc := range []struct {
		name    string
		corrupt func(r *Receiver)
		want    []string
	}{
		{"unknown", func(r *Receiver) { r.sack[1].end++ }, []string{"tcp/sack-list-unknown"}},
		{"order", func(r *Receiver) { r.sack[0], r.sack[1] = r.sack[1], r.sack[0] }, []string{"tcp/sack-list-order"}},
		{"repeat", func(r *Receiver) { r.sack[2] = r.sack[0] }, []string{"tcp/sack-list-order", "tcp/sack-list-repeat"}},
		{"short", func(r *Receiver) { r.nsack-- }, []string{"tcp/sack-list-short"}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			eng := sim.NewEngine()
			aud := audit.New(audit.PolicyWarn, eng.Now)
			r := NewReceiver(eng, 0, ReceiverConfig{Audit: aud}, func(packet.Packet) {})
			for _, n := range []int64{2, 4, 6, 8} {
				r.OnData(seg(n))
			}
			if aud.Total() != 0 {
				t.Fatalf("sound receiver reported %v", aud.Violations())
			}
			tc.corrupt(r)
			r.auditReassembly(r.rcvNxt)
			var got []string
			for _, v := range aud.Violations() {
				got = append(got, v.Check)
			}
			if !slices.Equal(got, tc.want) {
				t.Fatalf("audit reported %v, want %v", got, tc.want)
			}
		})
	}
}
