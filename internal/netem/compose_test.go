package netem

import (
	"reflect"
	"testing"

	"ccatscale/internal/audit"
	"ccatscale/internal/packet"
	"ccatscale/internal/sim"
	"ccatscale/internal/units"
)

// composedLink is a one-link Topology whose LinkSpec declares the
// composed stages — link outage outermost, Gilbert–Elliott burst loss
// behind it — so the tests below exercise the chain NewTopology builds,
// not a replica of it: a dark link is dark for everything behind it, and
// packets a hold-policy outage releases still cross the lossy channel.
type composedLink struct {
	eng        *sim.Engine
	topo       *Topology
	aud        *audit.Auditor
	outage     *outageStage
	ge         *burstStage
	got        []stageDelivery
	queueDrops int
	// fwd holds the time of every packet the outage handed the channel.
	fwd []sim.Time
}

func newComposedLink(seed uint64, burst BurstLossSpec, hold bool) *composedLink {
	eng := sim.NewEngine()
	c := &composedLink{eng: eng, aud: audit.New(audit.PolicyWarn, eng.Now)}
	// Two 20 ms dark windows, 70 ms apart. The link itself is fast and
	// short enough that a packet offered at t reaches the stages well
	// inside the same millisecond.
	spec := TopologySpec{
		Nodes: []string{"a", "b"},
		Links: []LinkSpec{{
			Name: "ab", From: "a", To: "b",
			Rate: units.GbitPerSec, Delay: 100 * sim.Microsecond, Buffer: units.MB,
			BurstLoss: &burst,
			Outage:    &OutageSpec{Start: 50 * sim.Millisecond, Down: 20 * sim.Millisecond, Period: 70 * sim.Millisecond, Count: 2, Hold: hold},
		}},
		Paths: [][]int{{0}},
	}
	c.topo = NewTopology(eng, sim.NewRNG(seed), TopologyConfig{
		Spec: spec, RTT: []sim.Time{10 * sim.Millisecond}, Audit: c.aud,
		OnDrop: func(sim.Time, packet.Packet) { c.queueDrops++ },
	})
	c.topo.SetEndpoints(
		func(p packet.Packet) { c.got = append(c.got, stageDelivery{eng.Now(), p.Seq}) },
		func(packet.Packet) {},
	)
	c.outage, c.ge = c.topo.links[0].outage, c.topo.links[0].burst
	next := c.outage.next
	c.outage.next = func(p *packet.Packet) { c.fwd = append(c.fwd, eng.Now()); next(p) }
	return c
}

// offerEveryMs schedules count packets into the link, one per virtual
// millisecond starting at t=1ms, each carrying its index as Seq and a
// fixed payload size, and runs the engine to quiescence.
func (c *composedLink) offerEveryMs(count int) {
	for i := 0; i < count; i++ {
		seq := int64(i)
		c.eng.Schedule(sim.Time(i+1)*sim.Millisecond, func() {
			c.topo.SendData(packet.Packet{Seq: seq, Len: 1000})
		})
	}
	c.eng.Run(sim.Second)
}

// checkLedger closes the fabric's own byte ledger — the terms core's
// end-to-end check reads — against the offered population, and requires
// that no stage loss was reported as a queue drop.
func (c *composedLink) checkLedger(t *testing.T, offered int) {
	t.Helper()
	ref := packet.Packet{Len: 1000}
	wire := ref.WireBytes()
	delivered := units.ByteCount(len(c.got)) * wire
	if in := c.topo.InNetworkBytes(); in != 0 {
		t.Fatalf("%d bytes still in the fabric after quiescence", in)
	}
	if delivered+c.topo.DropWire() != units.ByteCount(offered)*wire {
		t.Fatalf("byte ledger leaks: delivered %d + dropped %d != offered %d",
			delivered, c.topo.DropWire(), units.ByteCount(offered)*wire)
	}
	if want := units.ByteCount(c.outage.dropped+c.ge.dropped) * wire; c.topo.DropWire() != want {
		t.Fatalf("fabric dropped %d wire bytes, stages dropped %d", c.topo.DropWire(), want)
	}
	st := c.topo.LinkStats()[0]
	if st.OutageDrops != c.outage.dropped || st.BurstDrops != c.ge.dropped || st.RandomDrops != 0 {
		t.Fatalf("LinkStat reports %d outage / %d burst / %d iid drops, stages %d / %d / 0",
			st.OutageDrops, st.BurstDrops, st.RandomDrops, c.outage.dropped, c.ge.dropped)
	}
	if c.queueDrops != 0 || st.DropWire != 0 {
		t.Fatalf("impairment loss reached the queue-drop observer (%d calls, %d wire bytes)", c.queueDrops, st.DropWire)
	}
	if n := c.aud.Total(); n != 0 {
		t.Fatalf("auditor recorded %d violations: %+v", n, c.aud.Violations())
	}
}

// checkNoneDeliveredDark requires that nothing left the link while it
// was dark.
func (c *composedLink) checkNoneDeliveredDark(t *testing.T) {
	t.Helper()
	for _, d := range c.got {
		for k := 0; k < c.outage.spec.Count; k++ {
			if ws := c.outage.start(k); d.At >= ws && d.At < ws+c.outage.spec.Down {
				t.Fatalf("packet %d delivered at %v inside dark window %d", d.Seq, d.At, k)
			}
		}
	}
}

// flushed counts the packets a hold-mode outage released: those it
// forwarded at a window's end, where no packet the port sends arrives.
func (c *composedLink) flushed() uint64 {
	n := uint64(0)
	for _, at := range c.fwd {
		for k := 0; k < c.outage.spec.Count; k++ {
			if at == c.outage.start(k)+c.outage.spec.Down {
				n++
			}
		}
	}
	return n
}

// checkChain requires that the outage forwarded exactly what it did not
// drop, and that the channel saw exactly what the outage forwarded.
func (c *composedLink) checkChain(t *testing.T, offered int) {
	t.Helper()
	fwd := uint64(len(c.fwd))
	if fwd+c.outage.dropped != uint64(offered) {
		t.Fatalf("outage leak: forwarded %d + dropped %d != %d offered", fwd, c.outage.dropped, offered)
	}
	if seen := uint64(len(c.got)) + c.ge.dropped; fwd != seen {
		t.Fatalf("chain leak between stages: outage forwarded %d, channel saw %d", fwd, seen)
	}
}

// TestComposedChainConservation offers a known packet population to the
// outage→burst-loss chain under the drop policy and requires the
// conservation ledger to close exactly: every packet (and every wire
// byte) is either delivered, dropped dark, or dropped by the channel —
// no path in the composition loses a byte silently.
func TestComposedChainConservation(t *testing.T) {
	const offered = 200
	c := newComposedLink(7, BurstLossSpec{MeanLoss: 0.2, MeanBurstLen: 4}, false)
	c.offerEveryMs(offered)

	delivered := uint64(len(c.got))
	if delivered+c.outage.dropped+c.ge.dropped != offered {
		t.Fatalf("packet ledger leaks: %d delivered + %d dark + %d burst != %d offered",
			delivered, c.outage.dropped, c.ge.dropped, offered)
	}
	if c.outage.dropped == 0 {
		t.Fatal("no dark drops: the windows never saw traffic")
	}
	if c.ge.dropped == 0 {
		t.Fatal("no burst drops: the channel never fired")
	}
	c.checkChain(t, offered)
	c.checkLedger(t, offered)
	c.checkNoneDeliveredDark(t)
}

// TestComposedChainHoldConservation swaps in the hold policy: packets
// parked during an outage flush at window end and then still face the
// burst channel. The ledger closes with the flush path included, the
// flushed packets preserve arrival order, and nothing stays held after
// the last window.
func TestComposedChainHoldConservation(t *testing.T) {
	const offered = 200
	c := newComposedLink(7, BurstLossSpec{MeanLoss: 0.2, MeanBurstLen: 4}, true)
	// Mid-window the held packets are in the fabric's in-network term.
	var heldMid units.ByteCount
	c.eng.Schedule(60*sim.Millisecond, func() { heldMid = c.topo.InNetworkBytes() })
	c.offerEveryMs(offered)

	if heldMid == 0 {
		t.Fatal("held packets missing from InNetworkBytes while the link was dark")
	}
	if n := len(c.outage.held); n != 0 {
		t.Fatalf("%d packets still parked after the last window", n)
	}
	if c.outage.dropped != 0 {
		t.Fatalf("hold policy dropped %d packets", c.outage.dropped)
	}
	if c.flushed() == 0 {
		t.Fatal("no packets were held and flushed: the windows never saw traffic")
	}
	delivered := uint64(len(c.got))
	if delivered+c.ge.dropped != offered {
		t.Fatalf("packet ledger leaks: %d delivered + %d burst != %d offered (flushed %d)",
			delivered, c.ge.dropped, offered, c.flushed())
	}
	c.checkChain(t, offered)
	// Deliveries stay in Seq order: the flush preserves FIFO and the
	// channel never reorders.
	for i := 1; i < len(c.got); i++ {
		if c.got[i].Seq <= c.got[i-1].Seq {
			t.Fatalf("delivery %d out of order: seq %d after %d", i, c.got[i].Seq, c.got[i-1].Seq)
		}
	}
	c.checkLedger(t, offered)
	// A held packet must not be delivered before its window ends.
	c.checkNoneDeliveredDark(t)
}

// TestComposedChainDeterminism pins the composition's reproducibility:
// same seed, same schedule → bit-identical delivery sequences and
// counters, for both policies; a different seed must change the burst
// pattern (the outage schedule, being configuration, must not).
func TestComposedChainDeterminism(t *testing.T) {
	run := func(seed uint64, hold bool) ([]stageDelivery, uint64, uint64) {
		c := newComposedLink(seed, BurstLossSpec{MeanLoss: 0.1, MeanBurstLen: 4}, hold)
		c.offerEveryMs(200)
		return c.got, c.ge.dropped, c.outage.dropped + c.flushed()
	}
	for _, hold := range []bool{false, true} {
		a, aGE, aOut := run(11, hold)
		b, bGE, bOut := run(11, hold)
		if !reflect.DeepEqual(a, b) || aGE != bGE || aOut != bOut {
			t.Fatalf("hold=%v: same-seed composed runs differ", hold)
		}
		c, _, cOut := run(13, hold)
		if reflect.DeepEqual(a, c) {
			t.Fatalf("hold=%v: different seeds produced identical burst patterns", hold)
		}
		if cOut != aOut {
			t.Fatalf("hold=%v: the outage schedule changed with the seed (%d vs %d)", hold, cOut, aOut)
		}
	}
}
