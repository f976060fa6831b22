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
	outage     *Outage
	ge         *GilbertElliott
	got        []composedDelivery
	queueDrops int
}

type composedDelivery struct {
	At  sim.Time
	Seq int64
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
		func(p packet.Packet) { c.got = append(c.got, composedDelivery{eng.Now(), p.Seq}) },
		func(packet.Packet) {},
	)
	c.outage, c.ge = c.topo.links[0].outage, c.topo.links[0].burst
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
	if want := units.ByteCount(c.outage.Dropped()+c.ge.Dropped()) * wire; c.topo.DropWire() != want {
		t.Fatalf("fabric dropped %d wire bytes, stages dropped %d", c.topo.DropWire(), want)
	}
	st := c.topo.LinkStats()[0]
	if st.OutageDrops != c.outage.Dropped() || st.BurstDrops != c.ge.Dropped() || st.RandomDrops != 0 {
		t.Fatalf("LinkStat reports %d outage / %d burst / %d iid drops, stages %d / %d / 0",
			st.OutageDrops, st.BurstDrops, st.RandomDrops, c.outage.Dropped(), c.ge.Dropped())
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
		for i, w := range c.outage.cfg.Windows {
			if d.At >= w.Start && d.At < w.End {
				t.Fatalf("packet %d delivered at %v inside dark window %d", d.Seq, d.At, i)
			}
		}
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
	if delivered+c.outage.Dropped()+c.ge.Dropped() != offered {
		t.Fatalf("packet ledger leaks: %d delivered + %d dark + %d burst != %d offered",
			delivered, c.outage.Dropped(), c.ge.Dropped(), offered)
	}
	if c.outage.Dropped() == 0 {
		t.Fatal("no dark drops: the windows never saw traffic")
	}
	if c.ge.Dropped() == 0 {
		t.Fatal("no burst drops: the channel never fired")
	}
	// The outage hands exactly its survivors to the channel.
	if c.outage.Passed() != c.ge.Passed()+c.ge.Dropped() {
		t.Fatalf("chain leak between stages: outage passed %d, channel saw %d",
			c.outage.Passed(), c.ge.Passed()+c.ge.Dropped())
	}
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
	if c.outage.Held() != 0 {
		t.Fatalf("%d packets still parked after the last window", c.outage.Held())
	}
	if c.outage.Dropped() != 0 {
		t.Fatalf("hold policy without a capacity dropped %d packets", c.outage.Dropped())
	}
	if c.outage.Flushed() == 0 {
		t.Fatal("no packets were held and flushed: the windows never saw traffic")
	}
	delivered := uint64(len(c.got))
	if delivered+c.ge.Dropped() != offered {
		t.Fatalf("packet ledger leaks: %d delivered + %d burst != %d offered (flushed %d)",
			delivered, c.ge.Dropped(), offered, c.outage.Flushed())
	}
	// Up-link passes plus flushes is everything the channel saw.
	if c.outage.Passed()+c.outage.Flushed() != c.ge.Passed()+c.ge.Dropped() {
		t.Fatalf("chain leak between stages: outage forwarded %d, channel saw %d",
			c.outage.Passed()+c.outage.Flushed(), c.ge.Passed()+c.ge.Dropped())
	}
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
	run := func(seed uint64, hold bool) ([]composedDelivery, uint64, uint64) {
		c := newComposedLink(seed, BurstLossSpec{MeanLoss: 0.1, MeanBurstLen: 4}, hold)
		c.offerEveryMs(200)
		return c.got, c.ge.Dropped(), c.outage.Dropped() + c.outage.Flushed()
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
