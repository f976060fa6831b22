package netem

import (
	"math"
	"reflect"
	"testing"

	"ccatscale/internal/packet"
	"ccatscale/internal/sim"
	"ccatscale/internal/telemetry"
	"ccatscale/internal/units"
)

// oneLink is a one-link topology a→b whose link declares the stages
// under test. A fast, short link: a packet sent at t reaches the stages
// well inside the same millisecond.
type oneLink struct {
	eng  *sim.Engine
	topo *Topology
	l    *topoLink
	got  []stageDelivery
}

// stageDelivery is one packet leaving the fabric.
type stageDelivery struct {
	At  sim.Time
	Seq int64
}

func newOneLink(seed uint64, ls LinkSpec, tel telemetry.Collector) *oneLink {
	eng := sim.NewEngine()
	ls.Name, ls.From, ls.To = "ab", "a", "b"
	ls.Rate, ls.Delay, ls.Buffer = units.GbitPerSec, 100*sim.Microsecond, units.MB
	o := &oneLink{eng: eng}
	o.topo = NewTopology(eng, sim.NewRNG(seed), TopologyConfig{
		Spec: TopologySpec{Nodes: []string{"a", "b"}, Links: []LinkSpec{ls}, Paths: [][]int{{0}}},
		RTT:  []sim.Time{10 * sim.Millisecond}, Telemetry: tel,
	})
	o.topo.SetRefEndpoints(
		func(p *packet.Packet) { o.got = append(o.got, stageDelivery{eng.Now(), p.Seq}) },
		func(*packet.Packet) {},
	)
	o.l = o.topo.links[0]
	return o
}

// offer hands a packet straight to the head of the link's stage chain,
// where the propagation lane delivers it.
func (o *oneLink) offer(seq int64) {
	o.l.arrive(&packet.Packet{Seq: seq, Len: 1000})
}

// offerAt schedules one in-place offer at each time, carrying its index
// as Seq.
func (o *oneLink) offerAt(times ...sim.Time) {
	for i, at := range times {
		seq := int64(i)
		o.eng.Schedule(at, func() { o.offer(seq) })
	}
}

// TestOutageTelemetry runs a three-window flap schedule through a
// one-link topology, with the drop and the hold policy, and requires the
// collector to see exactly one link-down/link-up pair per window, in
// order, stamped with the window's bounds, A = the window index and B =
// the window length — including the middle window, which no packet
// reaches.
func TestOutageTelemetry(t *testing.T) {
	const (
		start  = 50 * sim.Millisecond
		down   = 10 * sim.Millisecond
		period = 70 * sim.Millisecond
	)
	for _, hold := range []bool{false, true} {
		var evs []telemetry.Event
		tel := telemetry.CollectorFunc(func(ev telemetry.Event) {
			if ev.Kind == telemetry.KindLinkDown || ev.Kind == telemetry.KindLinkUp {
				evs = append(evs, ev)
			}
		})
		o := newOneLink(1, LinkSpec{
			Outage: &OutageSpec{Start: start, Down: down, Period: period, Count: 3, Hold: hold},
		}, tel)
		// Traffic every millisecond over [1, 100] and [141, 250] ms: the
		// windows are [50, 60), [120, 130) and [190, 200) ms, so the
		// second one passes in silence.
		for ms := 1; ms <= 250; ms++ {
			if ms > 100 && ms <= 140 {
				continue
			}
			seq := int64(ms)
			o.eng.Schedule(sim.Time(ms)*sim.Millisecond, func() {
				o.topo.SendData(packet.Packet{Seq: seq, Len: 1000})
			})
		}
		o.eng.Run(sim.Second)

		if len(evs) != 6 {
			t.Fatalf("hold=%v: %d link events, want 3 down/up pairs: %+v", hold, len(evs), evs)
		}
		for k := 0; k < 3; k++ {
			ws := start + sim.Time(k)*period
			want := []telemetry.Event{
				{Time: ws, Kind: telemetry.KindLinkDown, Flow: -1, A: int64(k), B: int64(down)},
				{Time: ws + down, Kind: telemetry.KindLinkUp, Flow: -1, A: int64(k), B: int64(down)},
			}
			for j, w := range want {
				if got := evs[2*k+j]; got != w {
					t.Fatalf("hold=%v: event %d = %+v, want %+v", hold, 2*k+j, got, w)
				}
			}
		}
	}
}

// TestImpairmentLossRate: the iid stage drops its declared share, and
// every packet is either delivered or counted dropped.
func TestImpairmentLossRate(t *testing.T) {
	o := newOneLink(1, LinkSpec{LossRate: 0.1}, nil)
	const n = 50000
	for i := 0; i < n; i++ {
		o.offer(int64(i))
	}
	dropped := o.l.iid.dropped
	if got := float64(dropped) / n; math.Abs(got-0.1) > 0.01 {
		t.Fatalf("drop rate = %v, want ≈0.1", got)
	}
	if uint64(len(o.got))+dropped != n {
		t.Fatalf("conservation: delivered %d dropped %d of %d", len(o.got), dropped, n)
	}
}

// TestImpairmentZeroLossPassesAll: a link declaring no loss builds no
// stage, and a jitter-only stage draws no loss; both deliver everything.
func TestImpairmentZeroLossPassesAll(t *testing.T) {
	for _, jitter := range []sim.Time{0, sim.Millisecond} {
		o := newOneLink(1, LinkSpec{Jitter: jitter}, nil)
		if (o.l.iid != nil) != (jitter > 0) {
			t.Fatalf("jitter %v: iid stage built = %v", jitter, o.l.iid != nil)
		}
		for i := 0; i < 100; i++ {
			o.offer(int64(i))
		}
		o.eng.Run(sim.Second)
		if len(o.got) != 100 || o.topo.LinkStats()[0].RandomDrops != 0 {
			t.Fatalf("jitter %v: delivered %d, dropped %d", jitter, len(o.got), o.topo.LinkStats()[0].RandomDrops)
		}
	}
}

func TestImpairmentJitterRange(t *testing.T) {
	o := newOneLink(2, LinkSpec{Jitter: 10 * sim.Millisecond}, nil)
	for i := 0; i < 1000; i++ {
		o.offer(int64(i))
	}
	o.eng.Run(sim.Second)
	if len(o.got) != 1000 {
		t.Fatalf("arrivals = %d", len(o.got))
	}
	var latest sim.Time
	for _, d := range o.got {
		if d.At >= 10*sim.Millisecond {
			t.Fatalf("jitter %v outside [0, 10ms)", d.At)
		}
		latest = max(latest, d.At)
	}
	if latest < 5*sim.Millisecond {
		t.Fatalf("jitter never exceeded 5ms (max %v): not uniform", latest)
	}
}

// TestImpairmentJitterReorders documents the stage's netem-faithful
// behavior: jitter larger than the packet spacing reorders packets,
// because (like tc-netem without a reorder-correction queue) each
// packet draws an independent delay.
func TestImpairmentJitterReorders(t *testing.T) {
	o := newOneLink(4, LinkSpec{Jitter: 10 * sim.Millisecond}, nil)
	// Packets enter 1 ms apart with up to 10 ms of jitter: any packet
	// can overtake up to ~9 predecessors.
	const n = 500
	times := make([]sim.Time, n)
	for i := range times {
		times[i] = sim.Time(i) * sim.Millisecond
	}
	o.offerAt(times...)
	o.eng.Run(10 * sim.Second)
	if len(o.got) != n || o.l.iid.dropped != 0 {
		t.Fatalf("delivered %d dropped %d of %d packets", len(o.got), o.l.iid.dropped, n)
	}
	seen := make([]bool, n)
	inversions := 0
	for i, d := range o.got {
		if d.Seq < 0 || d.Seq >= n || seen[d.Seq] {
			t.Fatalf("arrival %d: bad or duplicate seq %d", i, d.Seq)
		}
		seen[d.Seq] = true
		if i > 0 && d.Seq < o.got[i-1].Seq {
			inversions++
		}
	}
	if inversions == 0 {
		t.Fatal("10ms jitter over 1ms spacing produced no reordering")
	}
	t.Logf("%d adjacent inversions across %d packets", inversions, n)
}

// TestImpairmentJitterKeepsOrderWhenSmall is the complement: jitter
// strictly smaller than the packet spacing cannot reorder.
func TestImpairmentJitterKeepsOrderWhenSmall(t *testing.T) {
	o := newOneLink(5, LinkSpec{Jitter: sim.Millisecond}, nil)
	const n = 200
	times := make([]sim.Time, n)
	for i := range times {
		times[i] = sim.Time(i) * 2 * sim.Millisecond
	}
	o.offerAt(times...)
	o.eng.Run(10 * sim.Second)
	if len(o.got) != n {
		t.Fatalf("delivered %d of %d packets", len(o.got), n)
	}
	for i, d := range o.got {
		if d.Seq != int64(i) {
			t.Fatalf("arrival %d: seq %d out of order despite sub-spacing jitter", i, d.Seq)
		}
	}
}

// TestImpairmentDropCallback: every iid drop reaches the fabric's loss
// term and the link's RandomDrops, never the queue-drop observer.
func TestImpairmentDropCallback(t *testing.T) {
	o := newOneLink(3, LinkSpec{LossRate: 0.5}, nil)
	for i := 0; i < 1000; i++ {
		o.offer(int64(i))
	}
	dropped := o.l.iid.dropped
	st := o.topo.LinkStats()[0]
	wire := (&packet.Packet{Len: 1000}).WireBytes()
	if dropped == 0 || st.RandomDrops != dropped || o.topo.DropWire() != units.ByteCount(dropped)*wire {
		t.Fatalf("stage dropped %d; LinkStat %d, fabric %d wire bytes", dropped, st.RandomDrops, o.topo.DropWire())
	}
	if st.DropWire != 0 {
		t.Fatalf("iid loss counted as %d bytes of queue drops", st.DropWire)
	}
}

// lossRuns returns the lengths of the runs of consecutive sequence
// numbers in [0, n) missing from got, which must be in order.
func lossRuns(got []stageDelivery, n int64) []int64 {
	var runs []int64
	next := int64(0)
	for _, d := range append(got, stageDelivery{Seq: n}) {
		if d.Seq > next {
			runs = append(runs, d.Seq-next)
		}
		next = d.Seq + 1
	}
	return runs
}

func TestGilbertMeanBurstLength(t *testing.T) {
	o := newOneLink(3, LinkSpec{BurstLoss: &BurstLossSpec{MeanLoss: 0.02, MeanBurstLen: 8}}, nil)
	const n = 500000
	for i := 0; i < n; i++ {
		o.offer(int64(i))
	}
	runs := lossRuns(o.got, n)
	if len(runs) == 0 {
		t.Fatal("no bursts observed")
	}
	// Every Bad-state packet is a drop, so drops per loss run estimate
	// the mean burst length 1/leave.
	dropped := o.l.burst.dropped
	if got := float64(dropped) / float64(len(runs)); math.Abs(got-8) > 1 {
		t.Fatalf("mean burst length = %v, want ≈8", got)
	}
	if got := float64(dropped) / n; math.Abs(got-0.02) > 0.004 {
		t.Fatalf("loss rate = %v, want ≈0.02", got)
	}
}

// TestGilbertBurstLenOneMatchesBernoulli: at mean burst length 1 the
// channel leaves Bad after every packet, so each loss is isolated, and
// its stationary loss is the declared rate — Bernoulli's, whose mean
// burst length at 10 % loss would be 1/0.9.
func TestGilbertBurstLenOneMatchesBernoulli(t *testing.T) {
	o := newOneLink(6, LinkSpec{BurstLoss: &BurstLossSpec{MeanLoss: 0.1, MeanBurstLen: 1}}, nil)
	b := o.l.burst
	if b.leave != 1 {
		t.Fatalf("leave = %v, want 1", b.leave)
	}
	if pi := b.enter / (b.enter + b.leave); math.Abs(pi-0.1) > 1e-12 {
		t.Fatalf("stationary loss = %v, want 0.1", pi)
	}
	const n = 100000
	for i := 0; i < n; i++ {
		o.offer(int64(i))
	}
	if got := float64(b.dropped) / n; math.Abs(got-0.1) > 0.01 {
		t.Fatalf("loss rate = %v, want ≈0.1", got)
	}
	for _, r := range lossRuns(o.got, n) {
		if r != 1 {
			t.Fatalf("a loss run of %d packets at mean burst length 1", r)
		}
	}
}

func TestGilbertDeterministicUnderFixedSeed(t *testing.T) {
	run := func(seed uint64) []stageDelivery {
		o := newOneLink(seed, LinkSpec{BurstLoss: &BurstLossSpec{MeanLoss: 0.05, MeanBurstLen: 4}}, nil)
		for i := 0; i < 100000; i++ {
			o.offer(int64(i))
		}
		return o.got
	}
	a, b := run(42), run(42)
	if !reflect.DeepEqual(a, b) {
		t.Fatalf("same seed diverged: %d vs %d deliveries", len(a), len(b))
	}
	if c := run(43); reflect.DeepEqual(a, c) {
		t.Fatalf("different seeds produced identical loss patterns (%d deliveries): RNG not consumed?", len(a))
	}
}

func TestOutageDropWindow(t *testing.T) {
	o := newOneLink(1, LinkSpec{Outage: &OutageSpec{Start: 10 * sim.Millisecond, Down: 10 * sim.Millisecond, Count: 1}}, nil)
	o.offerAt(
		5*sim.Millisecond,  // up
		10*sim.Millisecond, // dark (Start inclusive)
		15*sim.Millisecond, // dark
		20*sim.Millisecond, // up again (End exclusive)
		25*sim.Millisecond, // up
	)
	o.eng.Run(sim.Second)

	if o.l.outage.dropped != 2 {
		t.Fatalf("dropped = %d, want 2", o.l.outage.dropped)
	}
	want := []stageDelivery{{5 * sim.Millisecond, 0}, {20 * sim.Millisecond, 3}, {25 * sim.Millisecond, 4}}
	if !reflect.DeepEqual(o.got, want) {
		t.Fatalf("delivered %+v, want %+v", o.got, want)
	}
}

func TestOutageHoldFlushesInOrder(t *testing.T) {
	o := newOneLink(1, LinkSpec{Outage: &OutageSpec{Start: 10 * sim.Millisecond, Down: 20 * sim.Millisecond, Count: 1, Hold: true}}, nil)
	o.offerAt(
		12*sim.Millisecond,
		14*sim.Millisecond,
		16*sim.Millisecond,
		30*sim.Millisecond, // arrives as the link returns, after the flush
	)
	o.eng.Run(sim.Second)

	if o.l.outage.dropped != 0 || len(o.l.outage.held) != 0 {
		t.Fatalf("dropped %d held %d, want 0/0", o.l.outage.dropped, len(o.l.outage.held))
	}
	want := []stageDelivery{{30 * sim.Millisecond, 0}, {30 * sim.Millisecond, 1}, {30 * sim.Millisecond, 2}, {30 * sim.Millisecond, 3}}
	if !reflect.DeepEqual(o.got, want) {
		t.Fatalf("delivered %+v, want the three held packets at the flush, in order, then the fourth", o.got)
	}
}

// TestOutageFlapsSchedule: an OutageSpec's windows are [Start + k·Period,
// Start + k·Period + Down) for k < Count.
func TestOutageFlapsSchedule(t *testing.T) {
	o := newOneLink(1, LinkSpec{Outage: &OutageSpec{Start: 2 * sim.Second, Down: 500 * sim.Millisecond, Period: 3 * sim.Second, Count: 3}}, nil)
	ms := func(n int) sim.Time { return sim.Time(n) * sim.Millisecond }
	for _, c := range []struct {
		at   sim.Time
		dark bool
	}{
		{0, false}, {ms(1999), false}, {ms(2000), true}, {ms(2499), true}, {ms(2500), false},
		{ms(5000), true}, {ms(5500), false},
		{ms(8000), true}, {ms(8500) - 1, true}, {ms(8500), false},
		{ms(11000), false}, // no fourth window
	} {
		if got := o.l.outage.dark(c.at); got != c.dark {
			t.Fatalf("dark(%v) = %v, want %v", c.at, got, c.dark)
		}
	}
	single := newOneLink(1, LinkSpec{Outage: &OutageSpec{Start: 0, Down: sim.Second, Count: 1}}, nil).l.outage
	if !single.dark(0) || single.dark(sim.Second) || single.dark(10*sim.Second) {
		t.Fatal("a zero-period schedule should be a single outage")
	}
}

func TestOutageDeterministicDropCounts(t *testing.T) {
	run := func() uint64 {
		o := newOneLink(1, LinkSpec{Outage: &OutageSpec{Start: 5 * sim.Millisecond, Down: 2 * sim.Millisecond, Period: 10 * sim.Millisecond, Count: 4}}, nil)
		var times []sim.Time
		for at := sim.Time(0); at < 50*sim.Millisecond; at += 100 * sim.Microsecond {
			times = append(times, at)
		}
		o.offerAt(times...)
		o.eng.Run(sim.Second)
		return o.l.outage.dropped
	}
	d1, d2 := run(), run()
	if d1 != d2 {
		t.Fatalf("drop counts diverged: %d vs %d", d1, d2)
	}
	// 4 flaps × 2 ms dark × one packet per 100 µs = 80 arrivals in the
	// dark, [Start, End) inclusive-exclusive.
	if d1 != 80 {
		t.Fatalf("dropped = %d, want 80", d1)
	}
}
