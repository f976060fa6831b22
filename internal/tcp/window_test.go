package tcp

import (
	"fmt"
	"math/rand"
	"testing"
	"testing/quick"

	"ccatscale/internal/sim"
	"ccatscale/internal/units"
)

func TestWindowExtendAndPipe(t *testing.T) {
	w := newSendWindow(units.MSS)
	for i := int64(0); i < 5; i++ {
		if seg := w.ExtendOne(0); seg != i {
			t.Fatalf("ExtendOne = %d, want %d", seg, i)
		}
	}
	if w.Pipe() != 5*units.MSS {
		t.Fatalf("Pipe = %v, want 5 MSS", w.Pipe())
	}
	if w.InWindow() != 5 || w.Una() != 0 || w.Nxt() != 5 {
		t.Fatalf("window bounds wrong: una=%d nxt=%d", w.Una(), w.Nxt())
	}
}

func TestWindowAdvanceDelivers(t *testing.T) {
	w := newSendWindow(units.MSS)
	for i := 0; i < 10; i++ {
		w.ExtendOne(0)
	}
	got := w.Advance(4)
	if got != 4*units.MSS {
		t.Fatalf("Advance delivered %v, want 4 MSS", got)
	}
	if w.Pipe() != 6*units.MSS {
		t.Fatalf("Pipe = %v, want 6 MSS", w.Pipe())
	}
	if w.Advance(4) != 0 {
		t.Fatal("re-advance to same point delivered bytes")
	}
}

func TestWindowAdvanceBeyondNxtPanics(t *testing.T) {
	w := newSendWindow(units.MSS)
	w.ExtendOne(0)
	defer func() {
		if recover() == nil {
			t.Fatal("no panic on ACK beyond snd.nxt")
		}
	}()
	w.Advance(5)
}

func TestWindowSackAccounting(t *testing.T) {
	w := newSendWindow(units.MSS)
	for i := 0; i < 10; i++ {
		w.ExtendOne(0)
	}
	if got := w.Sack(5); got != units.MSS {
		t.Fatalf("first Sack = %v, want MSS", got)
	}
	if got := w.Sack(5); got != 0 {
		t.Fatalf("repeated Sack = %v, want 0", got)
	}
	if w.Pipe() != 9*units.MSS {
		t.Fatalf("Pipe = %v after one SACK", w.Pipe())
	}
	// Out-of-window SACKs are ignored.
	if w.Sack(-1) != 0 || w.Sack(100) != 0 {
		t.Fatal("out-of-window SACK delivered bytes")
	}
	// Cumulative ACK across SACKed segments does not double-count.
	w.Sack(0)
	if got := w.Advance(6); got != 4*units.MSS {
		t.Fatalf("Advance over mixed states delivered %v, want 4 MSS", got)
	}
}

func TestWindowFACKLossMarking(t *testing.T) {
	w := newSendWindow(units.MSS)
	for i := 0; i < 10; i++ {
		w.ExtendOne(0)
	}
	// Nothing SACKed yet: no marking possible.
	if lost := w.MarkLost(); lost != 0 {
		t.Fatalf("loss marking with no SACKs: %v", lost)
	}
	// One SACK beyond the hole proves it lost (zero reordering window
	// on a FIFO network).
	w.Sack(1)
	if lost := w.MarkLost(); lost != units.MSS {
		t.Fatalf("MarkLost = %v, want 1 MSS (segment 0)", lost)
	}
	w.Sack(2)
	w.Sack(3)
	if lost := w.MarkLost(); lost != 0 {
		t.Fatalf("re-marking found new losses: %v", lost)
	}
	if seg, ok := w.NextLost(); !ok || seg != 0 {
		t.Fatalf("NextLost = %d %v, want 0 true", seg, ok)
	}
	// Pipe: 10 sent − 3 sacked − 1 lost = 6 in flight.
	if w.Pipe() != 6*units.MSS {
		t.Fatalf("Pipe = %v, want 6 MSS", w.Pipe())
	}
}

func TestWindowStaleRtxDetection(t *testing.T) {
	w := newSendWindow(units.MSS)
	for i := 0; i < 6; i++ {
		w.ExtendOne(sim.Time(i))
	}
	// Segment 0 lost, retransmitted at t=10.
	w.Sack(1)
	w.MarkLost()
	seg, _ := w.NextLost()
	w.MarkRetransmitted(seg, 10)
	// A SACK for data sent before the retransmission proves nothing.
	w.Sack(2)
	if got := w.MarkStaleRtxLost(); got != 0 {
		t.Fatalf("rtx wrongly declared stale: %v", got)
	}
	// New data sent at t=20 and SACKed: the t=10 retransmission must
	// have been dropped (FIFO network).
	w.ExtendOne(20)
	w.Sack(6)
	if got := w.MarkStaleRtxLost(); got != units.MSS {
		t.Fatalf("stale rtx not detected: %v", got)
	}
	if seg, ok := w.NextLost(); !ok || seg != 0 {
		t.Fatalf("NextLost = %d %v, want segment 0 again", seg, ok)
	}
}

func TestWindowRetransmitLifecycle(t *testing.T) {
	w := newSendWindow(units.MSS)
	for i := 0; i < 8; i++ {
		w.ExtendOne(0)
	}
	w.Sack(3)
	w.Sack(4)
	w.Sack(5)
	w.MarkLost() // segments 0..2 lost
	if w.LostSegments() != 3 {
		t.Fatalf("LostSegments = %d, want 3", w.LostSegments())
	}
	pipeBefore := w.Pipe()
	seg, _ := w.NextLost()
	w.MarkRetransmitted(seg, 0)
	if w.Pipe() != pipeBefore+units.MSS {
		t.Fatal("retransmission did not raise pipe")
	}
	if w.LostSegments() != 2 {
		t.Fatalf("LostSegments after rtx = %d, want 2", w.LostSegments())
	}
	// Retransmitting a non-lost segment must panic.
	defer func() {
		if recover() == nil {
			t.Fatal("no panic retransmitting non-lost segment")
		}
	}()
	w.MarkRetransmitted(seg, 0)
}

func TestWindowSackCancelsPendingRetransmission(t *testing.T) {
	w := newSendWindow(units.MSS)
	for i := 0; i < 8; i++ {
		w.ExtendOne(0)
	}
	w.Sack(4)
	w.Sack(5)
	w.Sack(6)
	w.MarkLost() // 0..3 lost (highest=6, thresh 3 → ≤3)
	if w.LostSegments() != 4 {
		t.Fatalf("LostSegments = %d, want 4", w.LostSegments())
	}
	// A late SACK for a lost segment cancels its retransmission without
	// touching pipe (it was already deducted).
	pipe := w.Pipe()
	if got := w.Sack(2); got != units.MSS {
		t.Fatalf("late Sack = %v", got)
	}
	if w.Pipe() != pipe {
		t.Fatal("late SACK of lost segment changed pipe")
	}
	if w.LostSegments() != 3 {
		t.Fatalf("LostSegments = %d, want 3", w.LostSegments())
	}
}

func TestWindowMarkAllLost(t *testing.T) {
	w := newSendWindow(units.MSS)
	for i := 0; i < 10; i++ {
		w.ExtendOne(0)
	}
	w.Sack(5)
	lost := w.MarkAllLost()
	if lost != 9*units.MSS {
		t.Fatalf("MarkAllLost = %v, want 9 MSS (SACKed stays)", lost)
	}
	if w.Pipe() != 0 {
		t.Fatalf("Pipe after RTO = %v, want 0", w.Pipe())
	}
	if seg, ok := w.NextLost(); !ok || seg != 0 {
		t.Fatalf("NextLost after RTO = %d %v", seg, ok)
	}
}

func TestWindowRingGrowth(t *testing.T) {
	w := newSendWindow(units.MSS)
	// Push the window past the initial ring capacity with a moving base.
	for round := 0; round < 20; round++ {
		for i := 0; i < 100; i++ {
			w.ExtendOne(0)
		}
		w.Advance(w.Una() + 60)
	}
	if w.InWindow() != 20*40 {
		t.Fatalf("InWindow = %d, want 800", w.InWindow())
	}
	if w.Pipe() != units.ByteCount(800)*units.MSS {
		t.Fatalf("Pipe = %v", w.Pipe())
	}
}

// Property: pipe always equals MSS × (#Sent + #Rtx states), regardless
// of the operation sequence.
func TestWindowPipeInvariantProperty(t *testing.T) {
	type op struct {
		Kind byte
		Arg  uint8
	}
	f := func(ops []op) bool {
		w := newSendWindow(units.MSS)
		for _, o := range ops {
			switch o.Kind % 5 {
			case 0:
				if w.InWindow() < 200 {
					w.ExtendOne(0)
				}
			case 1:
				if w.InWindow() > 0 {
					w.Advance(w.Una() + 1 + int64(o.Arg)%w.InWindow())
				}
			case 2:
				if w.InWindow() > 0 {
					w.Sack(w.Una() + int64(o.Arg)%w.InWindow())
				}
			case 3:
				w.MarkLost()
			case 4:
				if seg, ok := w.NextLost(); ok {
					w.MarkRetransmitted(seg, 0)
				}
			}
			// Recompute pipe from scratch and compare.
			var want units.ByteCount
			lost := 0
			for seg := w.Una(); seg < w.Nxt(); seg++ {
				switch w.state(seg) {
				case segSent, segRtx:
					want += units.MSS
				case segLost:
					lost++
				}
			}
			if w.Pipe() != want || w.LostSegments() != lost {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// scoreboardDiff describes the first difference between two windows —
// any counter or scan pointer, the state or send time of any in-window
// segment, the live part of the retransmission log — or returns "".
func scoreboardDiff(got, want *sendWindow) string {
	type counters struct {
		base, next, highestSacked, lossScan, rtxScan int64
		pipe                                         units.ByteCount
		sacked, lost                                 int
		maxSackedSent                                sim.Time
	}
	of := func(w *sendWindow) counters {
		return counters{w.base, w.next, w.highestSacked, w.lossScan, w.rtxScan,
			w.pipe, w.sackedCount, w.lostCount, w.maxSackedSent}
	}
	if g, w := of(got), of(want); g != w {
		return fmt.Sprintf("counters %+v, want %+v", g, w)
	}
	for seg := want.base; seg < want.next; seg++ {
		if got.state(seg) != want.state(seg) || got.sentAt[got.pos(seg)] != want.sentAt[want.pos(seg)] {
			return fmt.Sprintf("segment %d in state %d sent at %v, want state %d sent at %v", seg,
				got.state(seg), got.sentAt[got.pos(seg)], want.state(seg), want.sentAt[want.pos(seg)])
		}
	}
	g, w := got.rtxLog[got.rtxHead:], want.rtxLog[want.rtxHead:]
	if len(g) != len(w) {
		return fmt.Sprintf("retransmission log holds %d entries, want %d", len(g), len(w))
	}
	for i := range w {
		if g[i] != w[i] {
			return fmt.Sprintf("retransmission log entry %d = %+v, want %+v", i, g[i], w[i])
		}
	}
	return ""
}

// TestWindowSackRangeMatchesPerSegmentSack runs twin windows through the
// same random operation sequences, one taking each SACK block through
// SackRange and the other segment by segment through Sack, and requires
// the same delivered bytes from every block and the same scoreboard after
// every step. Blocks repeat and grow at the tail as a duplicate-ACK
// stream's do, so the remembered ranges are hit; they also reach past
// snd.nxt and below snd.una, which SackRange must clamp before it
// remembers them — a segment recorded as applied while still unsent
// would be skipped once it had been sent.
func TestWindowSackRangeMatchesPerSegmentSack(t *testing.T) {
	const (
		seeds = 30
		ops   = 20000
	)
	for seed := int64(1); seed <= seeds; seed++ {
		rng := rand.New(rand.NewSource(seed))
		ranged, perSeg := newSendWindow(units.MSS), newSendWindow(units.MSS)
		both := func(op func(w *sendWindow)) { op(ranged); op(perSeg) }
		var recent [3]segRange // blocks of the "previous ACK"
		now := sim.Time(0)
		remembered := 0
		for step := 0; step < ops; step++ {
			now += sim.Microsecond
			n := perSeg.InWindow()
			switch kind := rng.Intn(16); {
			case kind <= 3 && n < 400:
				both(func(w *sendWindow) { w.ExtendOne(now) })
			case kind == 4 && n > 0:
				to := perSeg.Una() + 1 + rng.Int63n(n)%8
				both(func(w *sendWindow) { w.Advance(to) })
			case kind == 5:
				both(func(w *sendWindow) { w.MarkLost() })
			case kind == 6 && rng.Intn(8) == 0:
				both(func(w *sendWindow) { w.MarkAllLost() })
			case kind == 7:
				both(func(w *sendWindow) {
					if seg, ok := w.NextLost(); ok {
						w.MarkRetransmitted(seg, now)
					}
				})
			case kind == 8:
				both(func(w *sendWindow) { w.MarkStaleRtxLost() })
			default:
				// One SACK block: a fresh one anywhere from below
				// snd.una to past snd.nxt, or one of the last three
				// again, grown at the tail.
				slot := rng.Intn(len(recent))
				blk := recent[slot]
				if rng.Intn(3) == 0 || blk.to <= perSeg.Una() {
					blk.from = perSeg.Una() - 3 + rng.Int63n(n+6)
					blk.to = blk.from + 1 + rng.Int63n(12)
				} else {
					blk.to += rng.Int63n(3)
				}
				recent[slot] = blk
				if blk.from >= perSeg.Una() {
					for _, r := range ranged.sackSeen {
						if r.from <= blk.from && blk.from < r.to {
							remembered++
							break
						}
					}
				}
				got := ranged.SackRange(blk.from, blk.to)
				var want units.ByteCount
				for seg := blk.from; seg < blk.to; seg++ {
					want += perSeg.Sack(seg)
				}
				if got != want {
					t.Fatalf("seed %d step %d: SackRange[%d, %d) delivered %d, per-segment Sack %d (window [%d, %d))",
						seed, step, blk.from, blk.to, got, want, perSeg.Una(), perSeg.Nxt())
				}
			}
			if diff := scoreboardDiff(ranged, perSeg); diff != "" {
				t.Fatalf("seed %d step %d: %s", seed, step, diff)
			}
		}
		if remembered < ops/10 {
			t.Fatalf("seed %d: only %d of %d steps started a block inside a remembered range", seed, remembered, ops)
		}
	}
}
