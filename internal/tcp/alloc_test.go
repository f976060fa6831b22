package tcp

import (
	"testing"

	"ccatscale/internal/cca"
	"ccatscale/internal/packet"
	"ccatscale/internal/sim"
	"ccatscale/internal/units"
)

// TestSenderTimerChurnZeroAlloc budgets the RTO/TLP/pacing timer paths
// directly: with the engine's event pool primed, rearming any of the
// sender's timers — the per-ACK pattern — must not allocate.
func TestSenderTimerChurnZeroAlloc(t *testing.T) {
	n := newTestNet(t, 20*units.MbitPerSec, 3*units.MB,
		[]sim.Time{20 * sim.Millisecond}, []cca.CCA{cca.NewReno(units.MSS)})
	s := n.senders[0]
	// Prime the pool with a few arm/disarm cycles.
	for i := 0; i < 64; i++ {
		s.rtoTimer.Reset(s.rto())
		s.paceTimer.Reset(sim.Millisecond)
		s.tlpTimer.Reset(sim.Millisecond)
	}
	allocs := testing.AllocsPerRun(1000, func() {
		s.rtoTimer.Reset(s.rto())
		s.paceTimer.Reset(sim.Millisecond)
		s.tlpTimer.Reset(sim.Millisecond)
	})
	if allocs != 0 {
		t.Fatalf("timer rearm allocates %.1f objects per cycle, want 0", allocs)
	}
	s.rtoTimer.Stop()
	s.paceTimer.Stop()
	s.tlpTimer.Stop()
}

// TestSteadyStateFlowAllocBudget runs a real Reno flow over the
// dumbbell past slow start, then meters allocations per simulated
// 100 ms window. With pooled events, pooled deliveries, the reusable
// port transmit event, and the pre-sized ring, the steady-state
// per-window allocation count is near zero — the budget below is a
// regression tripwire for reintroduced per-packet garbage. The flow is
// wired by reference, as core wires it: a segment built anywhere but
// the sender's own slot and handed to OutputRef would escape to the
// heap once per packet.
func TestSteadyStateFlowAllocBudget(t *testing.T) {
	rate := 50 * units.MbitPerSec
	n := newTestNetEdges(t, rate, units.BDP(rate, 100*sim.Millisecond),
		[]sim.Time{20 * sim.Millisecond}, []cca.CCA{cca.NewReno(units.MSS)}, true)
	n.start()
	n.eng.Run(5 * sim.Second) // past slow start, pools primed

	const window = 100 * sim.Millisecond
	allocs := testing.AllocsPerRun(20, func() {
		n.eng.Run(n.eng.Now() + window)
	})
	// ~430 data packets traverse the dumbbell per window at 50 Mbps.
	// Budget far below one alloc per packet; generous enough to ignore
	// amortized growth of long-lived buffers.
	const budget = 32.0
	if allocs > budget {
		t.Fatalf("steady-state flow allocates %.1f objects per %v window (budget %.0f)",
			allocs, window, budget)
	}
	if n.senders[0].Stats().DeliveredBytes == 0 {
		t.Fatal("flow made no progress")
	}
}

// TestLossEpisodeAllocBudget is the steady-state budget's counterpart
// for the regime of the paper's Fig 8: BBR and Cubic flows sharing a
// shallow buffer, so every metered window is loss detection, SACK
// generation and retransmission. Duplicate ACKs choose their SACK blocks
// without allocating, and the receiver's out-of-order set and the
// sender's retransmission log keep the capacity of earlier episodes, so
// a window with over a hundred drops in it allocates next to nothing.
func TestLossEpisodeAllocBudget(t *testing.T) {
	rate := 100 * units.MbitPerSec
	rtt := 20 * sim.Millisecond
	var rtts []sim.Time
	var ccas []cca.CCA
	for i := 0; i < 8; i++ {
		rtts = append(rtts, rtt, rtt)
		ccas = append(ccas, cca.NewBBR(units.MSS, sim.NewRNG(uint64(i+1))), cca.NewCubic(units.MSS))
	}
	n := newTestNet(t, rate, units.BDP(rate, rtt)/2, rtts, ccas)
	n.start()
	n.eng.Run(10 * sim.Second) // every flow has been through recoveries

	const window = 500 * sim.Millisecond
	minDrops := -1
	allocs := testing.AllocsPerRun(10, func() {
		before := n.drops
		n.eng.Run(n.eng.Now() + window)
		if d := n.drops - before; minDrops < 0 || d < minDrops {
			minDrops = d
		}
	})
	if minDrops < 100 {
		t.Fatalf("a metered window held only %d drops, want ≥ 100: not a loss episode", minDrops)
	}
	const budget = 16.0
	if allocs > budget {
		t.Fatalf("loss episode allocates %.1f objects per %v window (budget %.0f, ≥ %d drops a window)",
			allocs, window, budget, minDrops)
	}
}

// TestReceiverOOOZeroAlloc holds the receiver's loss path to zero
// allocations where it has seen the size before: a segment re-inserted
// into 512 standing ranges (the shape of the benchmark ladder's
// tcp.ns_per_seg_ooo512 rung) and its duplicate ACK, and a whole second
// episode — 512 ranges built, every hole filled — after a first of the
// same size.
func TestReceiverOOOZeroAlloc(t *testing.T) {
	const ranges = 512
	r := NewReceiver(sim.NewEngine(), 0, DefaultReceiverConfig(), func(packet.Packet) {})
	// Every fourth segment from base+1 stands out of order; the fills
	// stop when the last range merges, while a hole still forces an
	// immediate ACK.
	build := func(base int64) {
		for k := int64(0); k < ranges; k++ {
			r.OnData(seg(base + 4*k + 1))
		}
	}
	fill := func(base int64) {
		for s := base; len(r.ooo) > 0; s++ {
			if (s-base)%4 != 1 {
				r.OnData(seg(s))
			}
		}
	}

	build(0)
	next := int64(0)
	if allocs := testing.AllocsPerRun(1000, func() {
		r.OnData(seg(4*next + 1))
		next = (next + 7) % ranges
	}); allocs != 0 {
		t.Errorf("re-inserting into %d standing ranges allocates %.1f objects per segment, want 0", ranges, allocs)
	}
	fill(0)

	if allocs := testing.AllocsPerRun(5, func() {
		base := r.RcvNxt() / mss
		build(base)
		if len(r.ooo) != ranges {
			t.Fatalf("episode built %d ranges, want %d", len(r.ooo), ranges)
		}
		fill(base)
	}); allocs != 0 {
		t.Errorf("a second %d-range episode allocates %.1f objects, want 0", ranges, allocs)
	}
}
