package tcp

import (
	"fmt"

	"ccatscale/internal/audit"
	"ccatscale/internal/sim"
	"ccatscale/internal/units"
)

// segState tracks one in-window segment through the SACK scoreboard.
type segState uint8

const (
	// segSent: transmitted once, presumed in flight.
	segSent segState = iota
	// segSacked: selectively acknowledged by the receiver.
	segSacked
	// segLost: presumed dropped (FACK rule or RTO); awaiting
	// retransmission.
	segLost
	// segRtx: retransmitted, the new copy presumed in flight.
	segRtx
)

// reorderWindowSegments is the forward-marking threshold: a hole is
// declared lost once any segment this far beyond it has been SACKed.
// The simulated network is strictly FIFO with fixed delays — it can
// never reorder — so the RACK-equivalent window is zero: one SACKed
// segment beyond a hole proves the hole is a loss. (Classic FACK used
// three to tolerate real-world reordering; modern Linux RACK converges
// to the same behavior on non-reordering paths.)
const reorderWindowSegments = 1

// sendWindow is the sender's per-segment scoreboard between snd.una and
// snd.nxt. All segments are MSS-sized (the experiment workload is an
// infinite byte stream), so state lives in a dense ring indexed by
// segment number.
//
// The window maintains the "pipe" estimate (RFC 6675): bytes believed
// in flight, adjusted as segments are sent, SACKed, declared lost,
// retransmitted, and cumulatively acknowledged.
type sendWindow struct {
	mss units.ByteCount

	base int64 // segment index of snd.una
	next int64 // segment index of snd.nxt

	ring   []segState
	sentAt []sim.Time // last transmission time, parallel to ring
	off    int        // ring position of segment 'base'

	pipe units.ByteCount

	highestSacked int64 // highest SACKed segment index; -1 when none
	sackedCount   int
	lostCount     int // segments currently in segLost

	// maxSackedSent is the latest transmission time among SACKed
	// segments: anything transmitted before it and still unacknowledged
	// is lost (RACK with a zero reordering window — valid because the
	// simulated network is strictly FIFO).
	maxSackedSent sim.Time

	lossScan int64 // next index to examine for forward loss marking
	rtxScan  int64 // lowest index that may still hold a LOST segment

	// rtxLog records retransmissions in send order so stale (dropped)
	// retransmissions anywhere in the window can be re-detected in
	// O(1) amortized time: entries older than maxSackedSent are popped
	// and, if still unacknowledged, re-marked lost. Entries below rtxHead
	// are popped; the array is kept across episodes.
	rtxLog  []rtxEntry
	rtxHead int

	// sackSeen holds the last few segment ranges SackRange applied, each
	// clamped to the window as it stood: every segment of one that is
	// still in the window is SACKed. nextSeen is the slot to overwrite.
	sackSeen [3]segRange
	nextSeen int
}

// segRange is the segment range [from, to).
type segRange struct{ from, to int64 }

type rtxEntry struct {
	seg    int64
	sentAt sim.Time
}

func newSendWindow(mss units.ByteCount) *sendWindow {
	return &sendWindow{
		mss:           mss,
		ring:          make([]segState, 256),
		sentAt:        make([]sim.Time, 256),
		highestSacked: -1,
	}
}

// Pipe returns the current in-flight byte estimate.
func (w *sendWindow) Pipe() units.ByteCount { return w.pipe }

// InWindow reports how many segments are tracked (snd.nxt − snd.una).
func (w *sendWindow) InWindow() int64 { return w.next - w.base }

// Una returns the first unacknowledged segment index.
func (w *sendWindow) Una() int64 { return w.base }

// Nxt returns the next-to-send segment index.
func (w *sendWindow) Nxt() int64 { return w.next }

// pos is seg's ring position. The ring's length is a power of two (see
// grow), so the wrap is a mask.
func (w *sendWindow) pos(seg int64) int {
	return (w.off + int(seg-w.base)) & (len(w.ring) - 1)
}

func (w *sendWindow) state(seg int64) segState { return w.ring[w.pos(seg)] }

func (w *sendWindow) setState(seg int64, s segState) { w.ring[w.pos(seg)] = s }

// ExtendOne registers the transmission of the next new segment at time
// now and returns its index.
func (w *sendWindow) ExtendOne(now sim.Time) int64 {
	if int(w.next-w.base) == len(w.ring) {
		w.grow()
	}
	seg := w.next
	w.next++
	w.setState(seg, segSent)
	w.sentAt[w.pos(seg)] = now
	w.pipe += w.mss
	return seg
}

// grow doubles the ring, which starts at 256 slots: its length stays a
// power of two, as pos requires.
func (w *sendWindow) grow() {
	n := int(w.next - w.base)
	bigger := make([]segState, 2*len(w.ring))
	biggerAt := make([]sim.Time, 2*len(w.ring))
	for i := 0; i < n; i++ {
		from := w.pos(w.base + int64(i))
		bigger[i] = w.ring[from]
		biggerAt[i] = w.sentAt[from]
	}
	w.ring = bigger
	w.sentAt = biggerAt
	w.off = 0
}

// Advance moves snd.una forward to newBase (exclusive upper bound of
// acknowledged segments) and returns the number of bytes newly
// delivered by this cumulative ACK — segments not previously SACKed.
func (w *sendWindow) Advance(newBase int64) units.ByteCount {
	if newBase <= w.base {
		return 0
	}
	if newBase > w.next {
		panic(fmt.Sprintf("tcp: cumulative ACK beyond snd.nxt: %d > %d", newBase, w.next))
	}
	var delivered units.ByteCount
	for seg := w.base; seg < newBase; seg++ {
		switch w.state(seg) {
		case segSent, segRtx:
			w.pipe -= w.mss
			delivered += w.mss
		case segLost:
			// Presumed lost but cumulatively acknowledged: the original
			// arrived after all; pipe was already deducted at marking.
			delivered += w.mss
			w.lostCount--
		case segSacked:
			w.sackedCount--
			// Already counted as delivered when SACKed.
		}
	}
	w.off = w.pos(newBase)
	w.base = newBase
	if w.lossScan < w.base {
		w.lossScan = w.base
	}
	if w.rtxScan < w.base {
		w.rtxScan = w.base
	}
	if w.highestSacked < w.base {
		w.highestSacked = -1
	}
	return delivered
}

// Sack marks segment seg as selectively acknowledged and returns the
// bytes newly delivered (0 when the segment was already SACKed or out
// of window).
func (w *sendWindow) Sack(seg int64) units.ByteCount {
	if seg < w.base || seg >= w.next {
		return 0
	}
	switch w.state(seg) {
	case segSacked:
		return 0
	case segSent, segRtx:
		w.pipe -= w.mss
	case segLost:
		// The copy we wrote off arrived; the pending retransmission is
		// cancelled by the state change below.
		w.lostCount--
	}
	w.setState(seg, segSacked)
	w.sackedCount++
	if seg > w.highestSacked {
		w.highestSacked = seg
	}
	if t := w.sentAt[w.pos(seg)]; t > w.maxSackedSent {
		w.maxSackedSent = t
	}
	return w.mss
}

// SackRange selectively acknowledges segments [from, to) — one SACK
// block — and returns the bytes newly delivered, as calling Sack on each
// segment would. Successive duplicate ACKs repeat two of their three
// blocks and grow the third at its tail, so the ranges applied last are
// remembered and a block that starts inside one is applied from that
// range's end on. That is exact: a SACKed segment stays SACKed until
// Advance passes it, and segment numbers are never reused.
func (w *sendWindow) SackRange(from, to int64) units.ByteCount {
	// Clamp before remembering: a segment past snd.nxt is not SACKed by
	// this call, and must not read as covered once it has been sent.
	if from < w.base {
		from = w.base
	}
	if to > w.next {
		to = w.next
	}
	if from >= to {
		return 0
	}
	rest := from // first segment not known to be SACKed already
	known := false
	for i := range w.sackSeen {
		if r := &w.sackSeen[i]; r.from <= from && from <= r.to {
			rest = r.to
			if to > r.to {
				r.to = to
			}
			known = true
			break
		}
	}
	if !known {
		w.sackSeen[w.nextSeen] = segRange{from, to}
		w.nextSeen = (w.nextSeen + 1) % len(w.sackSeen)
	}
	var delivered units.ByteCount
	for seg := rest; seg < to; seg++ {
		delivered += w.Sack(seg)
	}
	return delivered
}

// MarkLost applies the forward-marking rule: every un-SACKed,
// un-retransmitted segment at least reorderWindowSegments below the
// highest SACKed segment is declared lost. It returns the number of
// bytes newly marked.
func (w *sendWindow) MarkLost() units.ByteCount {
	if w.highestSacked < 0 {
		return 0
	}
	limit := w.highestSacked - reorderWindowSegments
	var lost units.ByteCount
	for seg := max64(w.lossScan, w.base); seg <= limit; seg++ {
		if w.state(seg) == segSent {
			w.setState(seg, segLost)
			w.pipe -= w.mss
			lost += w.mss
			w.lostCount++
			if seg < w.rtxScan {
				w.rtxScan = seg
			}
		}
	}
	if limit+1 > w.lossScan {
		w.lossScan = limit + 1
	}
	return lost
}

// MarkAllLost declares every outstanding un-SACKed segment lost (RTO
// handling) and returns the bytes marked.
func (w *sendWindow) MarkAllLost() units.ByteCount {
	var lost units.ByteCount
	for seg := w.base; seg < w.next; seg++ {
		switch w.state(seg) {
		case segSent, segRtx:
			w.setState(seg, segLost)
			w.pipe -= w.mss
			lost += w.mss
			w.lostCount++
		}
	}
	w.rtxScan = w.base
	w.lossScan = w.base
	return lost
}

// NextLost returns the oldest segment awaiting retransmission. The
// lost counter makes the no-loss fast path O(1); the forward-only scan
// pointer amortizes the rest.
func (w *sendWindow) NextLost() (int64, bool) {
	if w.lostCount == 0 {
		return 0, false
	}
	for seg := max64(w.rtxScan, w.base); seg < w.next; seg++ {
		if w.state(seg) == segLost {
			w.rtxScan = seg
			return seg, true
		}
	}
	panic("tcp: lostCount > 0 but no lost segment found")
}

// MarkRetransmitted transitions a lost segment back into flight at time
// now.
func (w *sendWindow) MarkRetransmitted(seg int64, now sim.Time) {
	if w.state(seg) != segLost {
		panic(fmt.Sprintf("tcp: retransmitting segment %d in state %d", seg, w.state(seg)))
	}
	w.setState(seg, segRtx)
	w.sentAt[w.pos(seg)] = now
	w.pipe += w.mss
	w.lostCount--
	w.rtxLog = append(w.rtxLog, rtxEntry{seg: seg, sentAt: now})
}

// MarkStaleRtxLost re-marks retransmissions whose copies were provably
// lost: a SACK exists for data transmitted after them, and the network
// is FIFO, so the retransmission cannot still be in flight. Without
// this, a dropped retransmission pins snd.una until the RTO fires.
// Returns the bytes newly marked.
//
// The retransmission log is in send order, so exactly the stale prefix
// is popped — O(1) amortized per retransmission over the connection's
// lifetime.
func (w *sendWindow) MarkStaleRtxLost() units.ByteCount {
	var lost units.ByteCount
	i := w.rtxHead
	for ; i < len(w.rtxLog); i++ {
		e := w.rtxLog[i]
		if e.sentAt >= w.maxSackedSent {
			break
		}
		if e.seg < w.base || e.seg >= w.next {
			continue // already cumulatively acknowledged
		}
		// Only act if this entry describes the segment's latest
		// incarnation (it may have been SACKed, acknowledged, or
		// re-retransmitted since).
		if w.state(e.seg) != segRtx || w.sentAt[w.pos(e.seg)] != e.sentAt {
			continue
		}
		w.setState(e.seg, segLost)
		w.pipe -= w.mss
		lost += w.mss
		w.lostCount++
		if e.seg < w.rtxScan {
			w.rtxScan = e.seg
		}
	}
	// Pop by moving the head, and move the live tail down once it is the
	// smaller half: the array is reused instead of re-grown every
	// episode, and stays within twice the live entries.
	w.rtxHead = i
	if w.rtxHead > len(w.rtxLog)/2 {
		w.rtxLog = w.rtxLog[:copy(w.rtxLog, w.rtxLog[w.rtxHead:])]
		w.rtxHead = 0
	}
	return lost
}

// audit recounts the SACK scoreboard from first principles and compares
// against the incrementally maintained counters: the pipe estimate must
// equal the bytes in segSent/segRtx states (RFC 6675's definition under
// this transport's accounting), and the SACKed/lost counters must match
// the ring. The recount is O(window), so the sender runs it
// periodically rather than per ACK.
func (w *sendWindow) audit(a *audit.Auditor, flow int32) {
	if w.base > w.next {
		a.Reportf("tcp/una-beyond-nxt", flow, "snd.una %d beyond snd.nxt %d", w.base, w.next)
		return
	}
	var pipe units.ByteCount
	sacked, lost := 0, 0
	for seg := w.base; seg < w.next; seg++ {
		switch w.state(seg) {
		case segSent, segRtx:
			pipe += w.mss
		case segSacked:
			sacked++
		case segLost:
			lost++
		}
	}
	if pipe != w.pipe {
		a.Reportf("tcp/scoreboard-pipe", flow,
			"pipe counter %d != recounted in-flight bytes %d (window [%d, %d))",
			w.pipe, pipe, w.base, w.next)
	}
	if sacked != w.sackedCount {
		a.Reportf("tcp/scoreboard-sacked", flow,
			"sacked counter %d != recounted %d", w.sackedCount, sacked)
	}
	if lost != w.lostCount {
		a.Reportf("tcp/scoreboard-lost", flow,
			"lost counter %d != recounted %d", w.lostCount, lost)
	}
	if w.highestSacked >= w.next {
		a.Reportf("tcp/scoreboard-sack-range", flow,
			"highest SACKed segment %d at or beyond snd.nxt %d", w.highestSacked, w.next)
	}
}

// HasLost reports whether any segment awaits retransmission.
func (w *sendWindow) HasLost() bool { return w.lostCount > 0 }

// LostSegments returns the number of segments currently marked lost.
func (w *sendWindow) LostSegments() int { return w.lostCount }

func max64(a, b int64) int64 {
	if a > b {
		return a
	}
	return b
}
