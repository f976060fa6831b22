package main

import (
	"encoding/json"
	"fmt"
	"os"
	"time"
	"unsafe"

	"ccatscale/internal/cca"
	"ccatscale/internal/core"
	"ccatscale/internal/netem"
	"ccatscale/internal/packet"
	"ccatscale/internal/schema"
	"ccatscale/internal/sim"
	"ccatscale/internal/store"
	"ccatscale/internal/tcp"
	"ccatscale/internal/units"
)

// The per-layer drivers. Each calls one module's public functions with
// synthetic inputs shaped like the workload it is meant to explain and
// reports a cost per unit of that module's work. They run only in the
// traced run; README.md says which end-to-end metric each should move.

// perUnit repeats batch — which does some units of work and reports
// how many and how long they took — until budget has elapsed and at
// least three batches ran, and returns the median cost of one unit.
func perUnit(budget time.Duration, batch func() (units int, elapsed time.Duration)) float64 {
	var costs []float64
	start := time.Now()
	for len(costs) < 3 || time.Since(start) < budget {
		n, d := batch()
		if n > 0 {
			costs = append(costs, float64(d.Nanoseconds())/float64(n))
		}
	}
	return median(costs)
}

// timed adapts a batch that only counts its units.
func timed(batch func() int) func() (int, time.Duration) {
	return func() (int, time.Duration) {
		start := time.Now()
		n := batch()
		return n, time.Since(start)
	}
}

// xorshift is the drivers' private deterministic randomness.
type xorshift uint64

func (x *xorshift) next() uint64 {
	*x ^= *x << 13
	*x ^= *x >> 7
	*x ^= *x << 17
	return uint64(*x)
}

// simEvents measures the engine's cost per event with a standing
// population of self-rescheduling events: every fired event schedules
// its successor a random 0–20 ms ahead, so each costs one pop from and
// one push into a heap that stays `pending` deep. 32768 is the depth
// of core-reno-2000, 2048 that of topo-parkinglot-ecn.
func simEvents(budget time.Duration, pending int) float64 {
	eng := sim.NewEngine()
	rng := xorshift(0x2545F4914F6CDD1D)
	const spread = 20 * sim.Millisecond
	var fn func()
	fn = func() { eng.After(1+sim.Time(rng.next()%uint64(spread)), fn) }
	for i := 0; i < pending; i++ {
		eng.Schedule(sim.Time(rng.next()%uint64(spread)), fn)
	}
	eng.Run(spread)
	return perUnit(budget, timed(func() int {
		before := eng.Processed()
		eng.Run(eng.Now() + spread)
		return int(eng.Processed() - before)
	}))
}

// simTimerReset measures Timer.Reset in the RTO pattern of
// core-reno-2000: 2000 timers, each re-armed ≈200 ms ahead once per
// 5 ms round (one ACK per flow per round), so every Reset leaves a
// cancelled corpse the heap must carry or compact away.
func simTimerReset(budget time.Duration) float64 {
	const timers = 2000
	eng := sim.NewEngine()
	rng := xorshift(0x9E3779B97F4A7C15)
	ts := make([]*sim.Timer, timers)
	for i := range ts {
		ts[i] = sim.NewTimer(eng, func() {})
	}
	return perUnit(budget, timed(func() int {
		for _, t := range ts {
			t.Reset(200*sim.Millisecond + sim.Time(rng.next()%uint64(sim.Millisecond)))
		}
		eng.Run(eng.Now() + 5*sim.Millisecond)
		return timers
	}))
}

func dataPacket(flow int32, seq int64) packet.Packet {
	return packet.Packet{Flow: flow, Seq: seq, Len: int32(units.MSS), ECT: true}
}

// netemPort measures one packet through Port.Send → DropTailQueue →
// serialization → sink with the port kept saturated: every delivered
// packet is offered again.
func netemPort(budget time.Duration) float64 {
	eng := sim.NewEngine()
	var port *netem.Port
	delivered := 0
	port = netem.NewPort(eng, 10*units.GbitPerSec, netem.NewDropTailQueue(3*units.MB), func(p packet.Packet) {
		delivered++
		port.Send(p)
	}, nil)
	for i := 0; i < 64; i++ {
		port.Send(dataPacket(0, int64(i)*int64(units.MSS)))
	}
	return perUnit(budget, timed(func() int {
		before := delivered
		eng.Run(eng.Now() + sim.Millisecond)
		return delivered - before
	}))
}

// fabricLoop measures one data packet and its ACK around a fabric in a
// closed loop: every delivered segment is acknowledged at once and
// every returning ACK releases the flow's next segment, so perFlow
// packets per flow circulate forever. With perFlow × flows above the
// bandwidth-delay product the bottleneck holds a standing queue, as in
// the workloads. Packets are ECN-capable so that marking queues mark
// rather than drop; a drop would shrink the population, so the drop
// counter is returned for the caller to insist on zero.
func fabricLoop(budget time.Duration, eng *sim.Engine, fab netem.Fabric, flows, perFlow int, drops *int) (float64, error) {
	delivered := 0
	mss := int64(units.MSS)
	fab.SetEndpoints(
		func(p packet.Packet) {
			delivered++
			fab.SendAck(packet.Packet{Flow: p.Flow, Ack: true, CumAck: p.End()})
		},
		func(p packet.Packet) {
			fab.SendData(dataPacket(p.Flow, p.CumAck+int64(perFlow-1)*mss))
		})
	for f := 0; f < flows; f++ {
		for k := 0; k < perFlow; k++ {
			fab.SendData(dataPacket(int32(f), int64(k)*mss))
		}
	}
	eng.Run(eng.Now() + 100*sim.Millisecond)
	cost := perUnit(budget, timed(func() int {
		before := delivered
		eng.Run(eng.Now() + sim.Millisecond)
		return delivered - before
	}))
	if *drops > 0 {
		return 0, fmt.Errorf("closed loop lost %d packets", *drops)
	}
	return cost, nil
}

// The W1 fabric: 2000 flows at 20 ms over 10 Gbps with a 375 MB buffer.
const (
	w1Flows   = 2000
	w1PerFlow = 12 // 24000 packets > the 16.5k-packet BDP: a standing queue
)

func w1RTTs() []sim.Time {
	rtts := make([]sim.Time, w1Flows)
	for i := range rtts {
		rtts[i] = 20 * sim.Millisecond
	}
	return rtts
}

func netemDumbbell(budget time.Duration) (float64, error) {
	eng := sim.NewEngine()
	drops := 0
	fab := netem.NewDumbbell(eng, netem.DumbbellConfig{
		Rate: 10 * units.GbitPerSec, Buffer: 375 * units.MB, RTT: w1RTTs(),
		OnDrop: func(sim.Time, packet.Packet) { drops++ },
	})
	return fabricLoop(budget, eng, fab, w1Flows, w1PerFlow, &drops)
}

// netemTopo1 is the same fabric declared as a one-link Topology — the
// comparison ROADMAP item 2 needs before the dumbbell can be deleted.
// The link's delay is the dumbbell's fixed forward propagation delay.
func netemTopo1(budget time.Duration) (float64, error) {
	eng := sim.NewEngine()
	drops := 0
	paths := make([][]int, w1Flows)
	for i := range paths {
		paths[i] = []int{0}
	}
	fab := netem.NewTopology(eng, nil, netem.TopologyConfig{
		Spec: netem.TopologySpec{
			Nodes: []string{"a", "b"},
			Links: []netem.LinkSpec{{Name: "ab", From: "a", To: "b",
				Rate: 10 * units.GbitPerSec, Delay: 5 * sim.Microsecond, Buffer: 375 * units.MB}},
			Paths: paths,
		},
		RTT:    w1RTTs(),
		OnDrop: func(sim.Time, packet.Packet) { drops++ },
	})
	return fabricLoop(budget, eng, fab, w1Flows, w1PerFlow, &drops)
}

// netemTopo3 drives the topo-parkinglot-ecn graph itself, compiled
// from the workload's scenario document.
func netemTopo3(budget time.Duration) (float64, error) {
	scn, err := scenarioFor(wTopoECN, 1, false)
	if err != nil {
		return 0, err
	}
	setting, flows, err := core.CompileSpec(scn.JobSpec)
	if err != nil {
		return 0, err
	}
	rtts := make([]sim.Time, len(flows))
	for i, f := range flows {
		rtts[i] = f.RTT
	}
	eng := sim.NewEngine()
	drops := 0
	fab := netem.NewTopology(eng, nil, netem.TopologyConfig{
		Spec: *setting.Topology, RTT: rtts,
		OnDrop: func(sim.Time, packet.Packet) { drops++ },
	})
	return fabricLoop(budget, eng, fab, len(flows), 12, &drops)
}

// rwndClamp caps a controller's window the way a receive window does,
// so a lossless connection reaches a steady state instead of growing
// its window without bound.
type rwndClamp struct {
	cca.CCA
	max units.ByteCount
}

func (c rwndClamp) Cwnd() units.ByteCount {
	if w := c.CCA.Cwnd(); w < c.max {
		return w
	}
	return c.max
}

// tcpAck measures one ACK's worth of work through a whole connection —
// Sender.OnAck, the controller, the transmissions it releases, and
// Receiver.OnData for them — on a lossless path: a 100 Mbps port (so
// segments arrive spaced, as behind a bottleneck, and the receiver
// acknowledges every second one) and 10 ms pipes each way.
func tcpAck(budget time.Duration, name string) (float64, error) {
	factory, ok := cca.ByName(name)
	if !ok {
		return 0, fmt.Errorf("unknown CCA %q", name)
	}
	eng := sim.NewEngine()
	var snd *tcp.Sender
	var rcv *tcp.Receiver
	acks := 0
	fwd := netem.NewPipe(eng, 10*sim.Millisecond, func(p packet.Packet) { rcv.OnData(p) })
	rev := netem.NewPipe(eng, 10*sim.Millisecond, func(p packet.Packet) {
		acks++
		snd.OnAck(p)
	})
	port := netem.NewPort(eng, 100*units.MbitPerSec, netem.NewDropTailQueue(3*units.MB), fwd.Send, nil)
	rcv = tcp.NewReceiver(eng, 0, tcp.DefaultReceiverConfig(), rev.Send)
	snd = tcp.NewSender(eng, 0, tcp.Config{
		CCA:    rwndClamp{factory(units.MSS, sim.NewRNG(1)), 256 * units.MSS},
		Output: port.Send,
	})
	snd.Start(0)
	eng.Run(2 * sim.Second)
	cost := perUnit(budget, timed(func() int {
		before := acks
		eng.Run(eng.Now() + 250*sim.Millisecond)
		return acks - before
	}))
	if st := snd.Stats(); st.Retransmissions > 0 {
		return 0, fmt.Errorf("lossless %s connection retransmitted %d segments", name, st.Retransmissions)
	}
	return cost, nil
}

// tcpOOO measures Receiver.OnData for a segment arriving while `holes`
// out-of-order ranges stand above the cumulative point: the receiver
// re-inserts the range and emits a duplicate ACK whose SACK blocks it
// chooses from all standing ranges. The gap between the 64- and the
// 512-range cost is how SACK generation grows with the loss backlog —
// where mix-bbr-cubic-400 spends its time.
func tcpOOO(budget time.Duration, holes int) float64 {
	eng := sim.NewEngine()
	rcv := tcp.NewReceiver(eng, 0, tcp.DefaultReceiverConfig(), func(packet.Packet) {})
	mss := int64(units.MSS)
	seg := func(k int) packet.Packet { return dataPacket(0, int64(4*k+1)*mss) }
	for k := 0; k < holes; k++ {
		rcv.OnData(seg(k))
	}
	next := 0
	return perUnit(budget, timed(func() int {
		for i := 0; i < 256; i++ {
			rcv.OnData(seg(next))
			next = (next + 7) % holes
		}
		return 256
	}))
}

// fixedWindow is a controller that holds its window still, so the SACK
// driver measures the sender's scoreboard and not a window's dynamics.
// It manages recovery itself so PRR stays out of the way.
type fixedWindow struct{ cwnd units.ByteCount }

func (fixedWindow) Name() string                              { return "fixed" }
func (fixedWindow) OnAck(cca.AckEvent)                        {}
func (fixedWindow) OnEnterRecovery(sim.Time, units.ByteCount) {}
func (fixedWindow) OnExitRecovery(sim.Time)                   {}
func (fixedWindow) OnRTO(sim.Time)                            {}
func (fixedWindow) OnECNMark(sim.Time, units.ByteCount)       {}
func (w fixedWindow) Cwnd() units.ByteCount                   { return w.cwnd }
func (fixedWindow) PacingRate() units.Bandwidth               { return 0 }
func (fixedWindow) ControlsRecovery()                         {}

// tcpAckSack measures Sender.OnAck through one loss episode over a
// 512-hole scoreboard. A fixed window of segments goes out; every even
// segment of the first 1024 is lost. 512 duplicate ACKs arrive, each
// selectively acknowledging the newest odd segment and repeating the
// two before it (three SACK blocks), which marks the holes lost and
// retransmits them; then the 512 retransmissions land one by one, each
// ACK advancing the cumulative point past one hole and still carrying
// three SACK blocks. The cost is per ACK over the 1024.
func tcpAckSack(budget time.Duration) float64 {
	const holes = 512
	mss := int64(units.MSS)
	return perUnit(budget, func() (int, time.Duration) {
		eng := sim.NewEngine()
		sent := map[int64]packet.Packet{} // latest transmission of each segment
		snd := tcp.NewSender(eng, 0, tcp.Config{
			CCA:    fixedWindow{cwnd: units.ByteCount(2*holes+64) * units.MSS},
			Output: func(p packet.Packet) { sent[p.Seq/mss] = p },
		})
		snd.Start(sim.Millisecond)
		eng.Run(2 * sim.Millisecond)

		// ack builds what a receiver would send on the arrival of
		// segment echo: cumulative point cum, SACK blocks for the given
		// odd segments, echo fields from that segment's transmission.
		ack := func(cum int64, echo int64, sacked ...int64) packet.Packet {
			e := sent[echo]
			p := packet.Packet{
				Ack: true, CumAck: cum * mss,
				AckedSentAt: e.SentAt, AckedRetrans: e.Retrans,
				Delivered: e.Delivered, DeliveredAt: e.DeliveredAt,
				FirstSentAt: e.FirstSentAt, RateSentAt: e.SentAt, AppLimited: e.AppLimited,
			}
			for _, s := range sacked {
				if s >= 1 && s < 2*holes {
					p.Sack[p.NumSack] = packet.SackBlock{Start: s * mss, End: (s + 1) * mss}
					p.NumSack++
				}
			}
			return p
		}

		start := time.Now()
		for k := int64(0); k < holes; k++ {
			eng.Run(eng.Now() + 10*sim.Microsecond)
			s := 2*k + 1
			snd.OnAck(ack(0, s, s, s-2, s-4))
		}
		for k := int64(0); k < holes; k++ {
			eng.Run(eng.Now() + 10*sim.Microsecond)
			snd.OnAck(ack(2*k+2, 2*k, 2*k+3, 2*k+5, 2*k+7))
		}
		return 2 * holes, time.Since(start)
	})
}

// ccaOnAck measures a bare controller's OnAck on a synthesized ACK
// stream: 2 segments per ACK, 20 ms RTT with a little queueing jitter,
// a 100 Mbps delivery rate, a round every 50 ACKs, and a loss episode
// every 1000 ACKs so loss-based controllers keep their sawtooth.
func ccaOnAck(budget time.Duration, name string) (float64, error) {
	factory, ok := cca.ByName(name)
	if !ok {
		return 0, fmt.Errorf("unknown CCA %q", name)
	}
	c := factory(units.MSS, sim.NewRNG(1))
	rng := xorshift(0xD1B54A32D192ED03)
	var now sim.Time
	var delivered units.ByteCount
	n := 0
	return perUnit(budget, timed(func() int {
		for i := 0; i < 1000; i++ {
			n++
			now += 200 * sim.Microsecond
			delivered += 2 * units.MSS
			inflight := c.Cwnd()
			if limit := 200 * units.MSS; inflight > limit {
				inflight = limit
			}
			c.OnAck(cca.AckEvent{
				Now: now, AckedBytes: 2 * units.MSS,
				RTT:       20*sim.Millisecond + sim.Time(rng.next()%uint64(2*sim.Millisecond)),
				MinRTT:    20 * sim.Millisecond,
				Delivered: delivered, Rate: 100 * units.MbitPerSec,
				RoundStart: n%50 == 0, InFlight: inflight,
			})
			if n%1000 == 0 {
				c.OnEnterRecovery(now, inflight)
				c.OnExitRecovery(now)
			}
		}
		return 1000
	})), nil
}

// schemaParseCompile measures a scenario document's path from bytes to
// a RunConfig: parse, validate, compile. In microseconds.
func schemaParseCompile(budget time.Duration, doc []byte) (float64, error) {
	var err error
	ns := perUnit(budget, timed(func() int {
		for i := 0; i < 10; i++ {
			var scn *schema.Scenario
			scn, err = schema.ParseScenario(doc)
			if err != nil {
				return 10
			}
			var b *core.ScenarioBuilder
			b, err = core.NewScenarioBuilder(scn)
			if err != nil {
				return 10
			}
			_ = b.RunConfig()
		}
		return 10
	}))
	return ns / 1000, err
}

// storeRecordBytes is the size of the record the store drivers commit:
// a result table of 2000 flows at ≈64 bytes a row, what a served
// core-reno-2000 would store.
const storeRecordBytes = 2000 * 64

// storeLadder measures the persistence layer on the filesystem that
// holds dir: an fsync'd Put of a W1-sized record, a Get of one, one
// journal append, and one lease acquire → heartbeat → release cycle.
func storeLadder(budget time.Duration, dir string, layer map[string]float64) error {
	st, err := store.Open(dir + "/store")
	if err != nil {
		return err
	}
	payload := make([]byte, storeRecordBytes)
	rng := xorshift(0xA0761D6478BD642F)
	for i := range payload {
		payload[i] = byte(rng.next())
	}
	var keys []string
	layer["store.put_ms_p50"] = perUnit(budget, timed(func() int {
		key := fmt.Sprintf("rec-%06d", len(keys))
		if perr := st.Put(key, payload); perr != nil {
			err = perr
		}
		keys = append(keys, key)
		return 1
	})) / 1e6
	if err != nil {
		return fmt.Errorf("store put: %w", err)
	}
	next := 0
	layer["store.get_us_p50"] = perUnit(budget, timed(func() int {
		if _, gerr := st.Get(keys[next%len(keys)]); gerr != nil {
			err = gerr
		}
		next++
		return 1
	})) / 1e3
	if err != nil {
		return fmt.Errorf("store get: %w", err)
	}

	jnl, _, err := store.OpenJournal(dir, nil)
	if err != nil {
		return err
	}
	defer jnl.Close()
	detail, _ := json.Marshal(struct {
		Spec schema.JobSpec `json:"spec"`
	}{serveJob(1, 0, 0)})
	layer["store.journal_append_ms_p50"] = perUnit(budget, timed(func() int {
		if aerr := jnl.Append(store.JournalRecord{Op: store.OpQueued, Job: "j", Key: "k", Owner: "bench", Detail: detail}); aerr != nil {
			err = aerr
		}
		return 1
	})) / 1e6
	if err != nil {
		return fmt.Errorf("journal append: %w", err)
	}

	leases, err := store.NewLeases(dir, "bench", 30*time.Second)
	if err != nil {
		return err
	}
	job := 0
	layer["store.lease_cycle_ms_p50"] = perUnit(budget, timed(func() int {
		job++
		l, lerr := leases.Acquire(fmt.Sprintf("job-%d", job))
		if lerr == nil {
			lerr = l.Heartbeat()
		}
		if lerr == nil {
			lerr = l.Release()
		}
		if lerr != nil {
			err = lerr
		}
		return 1
	})) / 1e6
	if err != nil {
		return fmt.Errorf("lease cycle: %w", err)
	}
	return nil
}

// runLayerDrivers runs every workload-independent driver, one span
// each under parent, spending about budget on each measurement.
func runLayerDrivers(opt options, tr *tracer, parent int, budget time.Duration, doc []byte, layer map[string]float64) error {
	var firstErr error
	drive := func(name string, fn func() (float64, error)) {
		tr.in("layer/"+name, parent, 0, func(int) {
			v, err := fn()
			if err != nil && firstErr == nil {
				firstErr = fmt.Errorf("%s: %w", name, err)
			}
			layer[name] = v
		})
	}
	plain := func(fn func() float64) func() (float64, error) {
		return func() (float64, error) { return fn(), nil }
	}
	drive("sim.ns_per_event_deep", plain(func() float64 { return simEvents(budget, 32768) }))
	drive("sim.ns_per_event_shallow", plain(func() float64 { return simEvents(budget, 2048) }))
	drive("sim.ns_per_timer_reset", plain(func() float64 { return simTimerReset(budget) }))
	layer["packet.struct_bytes"] = float64(unsafe.Sizeof(packet.Packet{}))
	drive("netem.ns_per_pkt_port", plain(func() float64 { return netemPort(budget) }))
	drive("netem.ns_per_pkt_dumbbell", func() (float64, error) { return netemDumbbell(budget) })
	drive("netem.ns_per_pkt_topo1", func() (float64, error) { return netemTopo1(budget) })
	drive("netem.ns_per_pkt_topo3", func() (float64, error) { return netemTopo3(budget) })
	for _, name := range []string{"reno", "cubic", "bbr", "bbr2"} {
		name := name
		drive("tcp.ns_per_ack."+name, func() (float64, error) { return tcpAck(budget, name) })
		drive("cca.ns_per_onack."+name, func() (float64, error) { return ccaOnAck(budget, name) })
	}
	drive("tcp.ns_per_seg_ooo64", plain(func() float64 { return tcpOOO(budget, 64) }))
	drive("tcp.ns_per_seg_ooo512", plain(func() float64 { return tcpOOO(budget, 512) }))
	drive("tcp.ns_per_ack_sack", plain(func() float64 { return tcpAckSack(budget) }))
	drive("schema.parse_compile_us", func() (float64, error) { return schemaParseCompile(budget, doc) })

	dir, err := os.MkdirTemp(opt.tmpRoot, "store-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)
	tr.in("layer/store", parent, 0, func(int) {
		if err := storeLadder(budget, dir, layer); err != nil && firstErr == nil {
			firstErr = err
		}
	})
	return firstErr
}
