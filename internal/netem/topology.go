package netem

import (
	"fmt"

	"ccatscale/internal/audit"
	"ccatscale/internal/packet"
	"ccatscale/internal/sim"
	"ccatscale/internal/telemetry"
	"ccatscale/internal/units"
)

// LinkSpec declares one directed link of a topology graph: a
// rate-limited serializing port draining a queue discipline, a fixed
// propagation delay, and — at the far end, in front of the next hop or
// the receiver — the impairment stages the link declares: outage, then
// Gilbert–Elliott burst loss, then iid loss and jitter.
type LinkSpec struct {
	// Name labels the link in results and errors; unique per topology.
	Name string `json:"name"`
	// From and To are the endpoints, by node name.
	From string `json:"from"`
	To   string `json:"to"`
	// Rate is the line rate. A link with zero capacity can never drain
	// and is rejected at validation.
	Rate units.Bandwidth `json:"rate"`
	// Delay is the propagation delay crossed after serialization.
	Delay sim.Time `json:"delay"`
	// Buffer is the queue capacity in wire bytes.
	Buffer units.ByteCount `json:"buffer"`
	// Discipline selects the queueing discipline (default DropTail).
	Discipline AQM `json:"discipline,omitempty"`
	// ECN enables CE marking at this link's queue (threshold marking
	// for drop-tail, mark-instead-of-drop for CoDel).
	ECN bool `json:"ecn,omitempty"`
	// ECNMarkBytes overrides the drop-tail marking threshold (0 = a
	// quarter of the buffer).
	ECNMarkBytes units.ByteCount `json:"ecnMarkBytes,omitempty"`
	// LossRate is an iid per-packet loss probability in [0, 1); 0
	// disables it.
	LossRate float64 `json:"lossRate,omitempty"`
	// Jitter adds a uniform random delay in [0, Jitter) per packet;
	// large values reorder, as netem does.
	Jitter sim.Time `json:"jitter,omitempty"`
	// BurstLoss applies Gilbert–Elliott burst loss (nil = off).
	BurstLoss *BurstLossSpec `json:"burstLoss,omitempty"`
	// Outage schedules deterministic dark windows (nil = none).
	Outage *OutageSpec `json:"outage,omitempty"`
}

// TopologySpec is the serializable declaration of a topology graph:
// named nodes, directed links between them, and each flow's forward
// path as a chain of link indices. Parking-lot and other
// multi-bottleneck shapes are expressed directly; the dumbbell is the
// one-link case (DumbbellConfig.Spec).
//
// ACKs return over an uncongested reverse path: each flow's base RTT
// minus its forward propagation delays rides the return trip, so the
// sender observes exactly the configured RTT plus queueing.
type TopologySpec struct {
	// Nodes declares the vertex names.
	Nodes []string `json:"nodes"`
	// Links declares the directed edges.
	Links []LinkSpec `json:"links"`
	// Paths holds each flow's forward route as indices into Links,
	// indexed by flow ID. Consecutive links must share the intermediate
	// node (link[k].To == link[k+1].From).
	Paths [][]int `json:"paths"`
}

// Validate rejects malformed topologies with a descriptive error,
// following the netem constructor-error convention: zero-capacity
// links, unreachable nodes, dangling endpoints, and broken paths are
// all construction-time errors, not degenerate runs.
func (s TopologySpec) Validate() error {
	if len(s.Nodes) == 0 {
		return fmt.Errorf("netem: topology declares no nodes")
	}
	nodes := make(map[string]bool, len(s.Nodes))
	for i, n := range s.Nodes {
		if n == "" {
			return fmt.Errorf("netem: topology node %d has an empty name", i)
		}
		if nodes[n] {
			return fmt.Errorf("netem: duplicate topology node %q", n)
		}
		nodes[n] = true
	}
	if len(s.Links) == 0 {
		return fmt.Errorf("netem: topology declares no links")
	}
	minFrame := units.MSS + packet.HeaderBytes
	linkNames := make(map[string]bool, len(s.Links))
	for i, l := range s.Links {
		if l.Name == "" {
			return fmt.Errorf("netem: topology link %d has an empty name", i)
		}
		if linkNames[l.Name] {
			return fmt.Errorf("netem: duplicate topology link %q", l.Name)
		}
		linkNames[l.Name] = true
		if !nodes[l.From] {
			return fmt.Errorf("netem: link %q starts at undeclared node %q", l.Name, l.From)
		}
		if !nodes[l.To] {
			return fmt.Errorf("netem: link %q ends at undeclared node %q", l.Name, l.To)
		}
		if l.From == l.To {
			return fmt.Errorf("netem: link %q is a self-loop at node %q", l.Name, l.From)
		}
		if l.Rate <= 0 {
			return fmt.Errorf("netem: link %q has zero capacity (%d bits/sec); it could never drain its queue",
				l.Name, int64(l.Rate))
		}
		if l.Buffer < minFrame {
			return fmt.Errorf("netem: link %q buffer %d bytes cannot hold one full-size frame (%d bytes)",
				l.Name, int64(l.Buffer), int64(minFrame))
		}
		if l.Delay < 0 {
			return fmt.Errorf("netem: link %q has negative delay %v", l.Name, l.Delay)
		}
		if l.ECNMarkBytes < 0 {
			return fmt.Errorf("netem: link %q has negative ECN marking threshold %d", l.Name, int64(l.ECNMarkBytes))
		}
		if l.LossRate < 0 || l.LossRate >= 1 {
			return fmt.Errorf("netem: link %q loss rate %v outside [0, 1)", l.Name, l.LossRate)
		}
		if l.Jitter < 0 {
			return fmt.Errorf("netem: link %q has negative jitter %v", l.Name, l.Jitter)
		}
		if l.BurstLoss != nil {
			if err := l.BurstLoss.Validate(); err != nil {
				return fmt.Errorf("netem: link %q: %w", l.Name, err)
			}
		}
		if l.Outage != nil {
			if err := l.Outage.Validate(); err != nil {
				return fmt.Errorf("netem: link %q: %w", l.Name, err)
			}
		}
	}
	if len(s.Paths) == 0 {
		return fmt.Errorf("netem: topology declares no flow paths")
	}
	sources := map[string]bool{}
	for f, path := range s.Paths {
		if len(path) == 0 {
			return fmt.Errorf("netem: flow %d has an empty path", f)
		}
		for k, li := range path {
			if li < 0 || li >= len(s.Links) {
				return fmt.Errorf("netem: flow %d path step %d references link %d; topology has %d links",
					f, k, li, len(s.Links))
			}
			if k > 0 {
				prev := s.Links[path[k-1]]
				cur := s.Links[li]
				if prev.To != cur.From {
					return fmt.Errorf("netem: flow %d path is broken at step %d: link %q ends at node %q but link %q starts at node %q",
						f, k, prev.Name, prev.To, cur.Name, cur.From)
				}
			}
		}
		sources[s.Links[path[0]].From] = true
	}
	// Every declared node must be reachable from some flow source over
	// the directed links; an unreachable node is dead configuration the
	// author almost certainly misnamed.
	reached := make(map[string]bool, len(nodes))
	frontier := make([]string, 0, len(sources))
	for n := range sources {
		reached[n] = true
		frontier = append(frontier, n)
	}
	for len(frontier) > 0 {
		n := frontier[len(frontier)-1]
		frontier = frontier[:len(frontier)-1]
		for _, l := range s.Links {
			if l.From == n && !reached[l.To] {
				reached[l.To] = true
				frontier = append(frontier, l.To)
			}
		}
	}
	for _, n := range s.Nodes {
		if !reached[n] {
			return fmt.Errorf("netem: node %q is unreachable from every flow source; remove it or route a path through it", n)
		}
	}
	return nil
}

// ForwardDelay returns the sum of propagation delays along flow f's
// path.
func (s TopologySpec) ForwardDelay(f int) sim.Time {
	var sum sim.Time
	for _, li := range s.Paths[f] {
		sum += s.Links[li].Delay
	}
	return sum
}

// MinRate returns the lowest link rate — the topology's primary
// bottleneck — and its link index.
func (s TopologySpec) MinRate() (units.Bandwidth, int) {
	best := 0
	for i := 1; i < len(s.Links); i++ {
		if s.Links[i].Rate < s.Links[best].Rate {
			best = i
		}
	}
	return s.Links[best].Rate, best
}

// TopologyConfig describes a runtime Topology instance.
type TopologyConfig struct {
	// Spec is the validated graph declaration.
	Spec TopologySpec
	// RTT holds each flow's base round-trip time, indexed by flow ID;
	// must align with Spec.Paths. The reverse (ACK) delay is the RTT
	// minus the flow's forward propagation delays, clamped at zero.
	RTT []sim.Time
	// OnDrop observes every queue drop in the fabric (tail and AQM); may
	// be nil. Impairment loss is never a queue drop: it is reported by
	// kind in LinkStat and does not reach this observer.
	OnDrop DropFunc
	// Audit enables the per-bottleneck conservation ledgers: shadow
	// queue accounting plus the per-link port conservation check after
	// every operation. Nil disables auditing.
	Audit *audit.Auditor
	// Telemetry receives the link-down/link-up events of declared
	// outages (nil = off).
	Telemetry telemetry.Collector
}

// Validate rejects invalid runtime configurations with a descriptive
// error.
func (cfg TopologyConfig) Validate() error {
	if err := cfg.Spec.Validate(); err != nil {
		return err
	}
	if len(cfg.RTT) != len(cfg.Spec.Paths) {
		return fmt.Errorf("netem: topology has %d flow paths but %d RTTs", len(cfg.Spec.Paths), len(cfg.RTT))
	}
	for i, rtt := range cfg.RTT {
		if rtt <= 0 {
			return fmt.Errorf("netem: flow %d has non-positive base RTT %v", i, rtt)
		}
	}
	return nil
}

// Topology is the runtime instantiation of a TopologySpec: one Port and
// one propagation lane per link, per-flow next-hop routing, an ACK lane
// per distinct reverse delay, and — under audit — a conservation ledger
// per bottleneck plus the fabric-wide terms the end-to-end check closes
// against.
type Topology struct {
	eng  *sim.Engine
	spec TopologySpec

	links    []*topoLink
	next     [][]int32 // next[link][flow]: next link index, -1 = receiver
	entry    []int32   // entry[flow]: first link of the flow's path
	revDelay []sim.Time
	// rev[flow] is the ACK lane of the flow's reverse delay. Flows with
	// the same delay share one: a constant delay keeps their ACKs in
	// firing order whichever flow sent them. A lane holds ACK records,
	// not packets (see ackRecord).
	rev        []*sim.Lane[ackRecord]
	bottleneck int
	// ack is the one slot every reverse lane unpacks an arriving ACK
	// into before handing it to toSender. One slot serves them all: a
	// lane delivers only from the engine loop, never from inside
	// SendAck, so no ACK arrives while the sender still reads the last
	// one, and the sender keeps nothing it is handed (RefSink).
	ack packet.Packet

	toReceiver RefSink
	toSender   RefSink

	onDrop DropFunc
	aud    *audit.Auditor

	// Audit ledger terms (maintained only while auditing, except the
	// loss counters which are cheap and always correct). A packet is
	// propagating from the end of serialization until it leaves the
	// link's last stage: jitter-parked and outage-held bytes included.
	propBytes       units.ByteCount
	cePropBytes     units.ByteCount
	ceDeliveredWire units.ByteCount
	lossWire        units.ByteCount
	ceLossWire      units.ByteCount
}

// topoLink is one link's runtime state.
type topoLink struct {
	t    *Topology
	idx  int32
	spec LinkSpec

	port *Port
	// prop holds the packets crossing the propagation delay; it
	// delivers into arrive.
	prop *sim.Lane[packet.Packet]
	aq   *AuditedQueue
	// arrive receives a packet that finished propagation: arriveFn, or
	// the head of the stage chain that ends in it. Bound once.
	arrive RefSink
	// The declared stages (nil = not declared).
	outage *outageStage
	burst  *burstStage
	iid    *iidStage

	// queueDropWire accumulates tail + AQM drops at this link (wire
	// bytes), the per-bottleneck ledger's drop term. Maintained only
	// while auditing.
	queueDropWire units.ByteCount
}

// NewTopology wires the graph, panicking on an invalid configuration
// (call Validate first to get the error instead). Each stochastic stage
// a link declares takes one rng.Split(), links in declaration order and
// within a link iid loss/jitter before burst loss; rng may be nil when
// none does. Endpoint sinks must be attached with SetRefEndpoints before
// traffic flows.
func NewTopology(eng *sim.Engine, rng *sim.RNG, cfg TopologyConfig) *Topology {
	if err := cfg.Validate(); err != nil {
		panic(err)
	}
	t := &Topology{
		eng:      eng,
		spec:     cfg.Spec,
		revDelay: make([]sim.Time, len(cfg.RTT)),
		rev:      make([]*sim.Lane[ackRecord], len(cfg.RTT)),
		onDrop:   cfg.OnDrop,
		aud:      cfg.Audit,
	}
	lanes := map[sim.Time]*sim.Lane[ackRecord]{}
	for f, rtt := range cfg.RTT {
		rev := max(rtt-cfg.Spec.ForwardDelay(f), 0)
		if lanes[rev] == nil {
			lanes[rev] = sim.NewLane(eng, t.ackArrived)
		}
		t.revDelay[f], t.rev[f] = rev, lanes[rev]
	}
	_, t.bottleneck = cfg.Spec.MinRate()

	t.links = make([]*topoLink, len(cfg.Spec.Links))
	for i, ls := range cfg.Spec.Links {
		l := &topoLink{t: t, idx: int32(i), spec: ls}
		l.arrive = l.arriveFn
		l.buildStages(rng, cfg.Telemetry)
		l.prop = sim.NewLane[packet.Packet](eng, l.arrive)
		onDrop := t.linkOnDrop(l)
		switch ls.Discipline {
		case CoDel:
			cq := NewCoDelQueue(eng.Now, ls.Buffer, onDrop)
			if ls.ECN {
				cq.SetECN(true)
			}
			var queue Queue = cq
			if t.aud != nil {
				l.aq = NewAuditedQueue(queue, t.aud)
				queue = l.aq
			}
			l.port = newPort(eng, ls.Rate, queue, l.hopDone, nil)
		default:
			dt := NewDropTailQueue(ls.Buffer)
			if ls.ECN {
				dt.SetCEThreshold(ceThreshold(ls.ECNMarkBytes, ls.Buffer))
			}
			var queue Queue = dt
			if t.aud != nil {
				l.aq = NewAuditedQueue(queue, t.aud)
				queue = l.aq
			}
			l.port = newPort(eng, ls.Rate, queue, l.hopDone, onDrop)
		}
		if t.aud != nil {
			l.port.SetAuditCheck(l.checkConservation)
		}
		t.links[i] = l
	}

	// Routing tables: the entry link per flow and, per (link, flow),
	// the next link after finishing a hop. Paths are simple chains, so
	// the pair determines the successor uniquely.
	t.entry = make([]int32, len(cfg.Spec.Paths))
	t.next = make([][]int32, len(cfg.Spec.Links))
	for i := range t.next {
		row := make([]int32, len(cfg.Spec.Paths))
		for f := range row {
			row[f] = -1
		}
		t.next[i] = row
	}
	for f, path := range cfg.Spec.Paths {
		t.entry[f] = int32(path[0])
		for k := 0; k+1 < len(path); k++ {
			t.next[path[k]][f] = int32(path[k+1])
		}
	}
	return t
}

// linkOnDrop interposes the per-bottleneck ledger on a link's drop
// callback — so it sees every queue drop (tail and AQM) in wire bytes and
// the audited queue learns about dequeue-side drops of admitted packets —
// and forwards to the user's observer.
func (t *Topology) linkOnDrop(l *topoLink) DropFunc {
	if t.aud == nil {
		return t.onDrop
	}
	return func(now sim.Time, p packet.Packet) {
		l.queueDropWire += p.WireBytes()
		if l.aq != nil {
			l.aq.NoteDrop(p)
		}
		if t.onDrop != nil {
			t.onDrop(now, p)
		}
	}
}

// checkConservation verifies one link's conservation equation after
// every port operation — the per-bottleneck half of the audit ledger:
// every wire byte offered to the link is transmitted, dropped at its
// queue, still queued, or serializing.
func (l *topoLink) checkConservation(op string) {
	p := l.port
	accounted := p.TxBytes() + l.queueDropWire + p.Queue().Bytes() + p.SerializingBytes()
	if offered := p.OfferedBytes(); offered != accounted {
		l.t.aud.Reportf("netem/port-conservation", -1,
			"link %q after %s: offered %d bytes != tx %d + dropped %d + queued %d + serializing %d (missing %d)",
			l.spec.Name, op, offered, p.TxBytes(), l.queueDropWire, p.Queue().Bytes(), p.SerializingBytes(),
			int64(offered)-int64(accounted))
	}
}

// stageDrop is every stage's drop hook: the packet moves from the
// propagating term to the fabric's loss term. It deliberately does not
// call the queue-drop observer.
func (l *topoLink) stageDrop(p *packet.Packet) {
	t, w, ce := l.t, p.WireBytes(), units.ByteCount(0)
	if p.CE {
		ce = w
	}
	t.lossWire += w
	t.ceLossWire += ce
	if t.aud != nil {
		t.propBytes -= w
		t.cePropBytes -= ce
	}
}

// hopDone is the link port's output sink: the packet finished
// serialization and is copied from the port's tx slot into the
// propagation lane.
func (l *topoLink) hopDone(p *packet.Packet) {
	t := l.t
	if t.aud != nil {
		t.propBytes += p.WireBytes()
		if p.CE {
			t.cePropBytes += p.WireBytes()
		}
	}
	l.prop.After(l.spec.Delay, p)
}

// arriveFn completes a hop: the packet reached the link's far node,
// survived its stages, and either enters the next link on its flow's
// path or leaves the fabric, where the receiver sink gets the slot it
// arrived in.
func (l *topoLink) arriveFn(p *packet.Packet) {
	t := l.t
	if t.aud != nil {
		t.propBytes -= p.WireBytes()
		if p.CE {
			t.cePropBytes -= p.WireBytes()
		}
	}
	if next := t.next[l.idx][p.Flow]; next >= 0 {
		t.links[next].port.send(p)
		return
	}
	if t.aud != nil && p.CE {
		t.ceDeliveredWire += p.WireBytes()
	}
	t.toReceiver(p)
}

// SetEndpoints is SetRefEndpoints by value, for callers outside the
// module.
func (t *Topology) SetEndpoints(toReceiver, toSender Sink) {
	t.SetRefEndpoints(byRef(toReceiver), byRef(toSender))
}

// SetRefEndpoints attaches the demultiplexed delivery sinks: toReceiver
// gets data segments at their receiver-arrival times, toSender gets ACKs
// at their sender-arrival times, each by a pointer to the slot the
// packet arrived in. Both dispatch on Packet.Flow.
func (t *Topology) SetRefEndpoints(toReceiver, toSender RefSink) {
	t.toReceiver = toReceiver
	t.toSender = toSender
}

// Port exposes the lowest-rate link's port, the primary bottleneck
// reported in run statistics.
func (t *Topology) Port() *Port { return t.links[t.bottleneck].port }

// QueuePeak returns the primary bottleneck queue's occupancy high-water
// marks, with or without the audit shadow around it.
func (t *Topology) QueuePeak() (bytes units.ByteCount, packets int) {
	return queuePeak(t.Port())
}

// Flows returns the number of configured flows.
func (t *Topology) Flows() int { return len(t.revDelay) }

// SendData is SendDataRef by value, for callers outside the module; the
// port stages the packet in a slot of its own.
func (t *Topology) SendData(p packet.Packet) { t.links[t.entry[p.Flow]].port.Send(p) }

// SendDataRef is the sender-side entry point: the segment is copied into
// the first link of its flow's path, and p is not read after the call
// returns.
func (t *Topology) SendDataRef(p *packet.Packet) { t.links[t.entry[p.Flow]].port.send(p) }

// SendAck is the receiver-side entry point: the ACK returns over the
// uncongested reverse path after the flow's residual base-RTT delay. It
// panics on a packet with a data field set (see ackRecord).
func (t *Topology) SendAck(p packet.Packet) {
	mustBeAck(&p)
	t.rev[p.Flow].AfterSlot(t.revDelay[p.Flow]).pack(&p)
}

// ackArrived is every reverse lane's sink: the ACK reached its sender,
// which reads it from the topology's ACK slot.
func (t *Topology) ackArrived(a *ackRecord) {
	a.unpack(&t.ack)
	t.toSender(&t.ack)
}

// InNetworkBytes returns wire bytes queued, serializing, or in
// propagation flight or a link's stages inside the fabric (the last two
// are maintained only while auditing).
func (t *Topology) InNetworkBytes() units.ByteCount {
	total := t.propBytes
	for _, l := range t.links {
		total += l.port.Queue().Bytes() + l.port.SerializingBytes()
	}
	return total
}

// DropWire returns cumulative fabric drops in wire bytes: queue drops
// across all links plus impairment losses (queue terms maintained only
// while auditing).
func (t *Topology) DropWire() units.ByteCount {
	total := t.lossWire
	for _, l := range t.links {
		total += l.queueDropWire
	}
	return total
}

// ECNLedger returns the marking-conservation terms at the fabric
// boundary: wire bytes CE-marked by queues, delivered to the endpoint
// sink, dropped after marking, and still inside the fabric. Every marked
// byte must be exactly one of the other three. Delivered and in-flight
// terms are maintained only while auditing.
func (t *Topology) ECNLedger() (marked, delivered, dropped, inNetwork units.ByteCount) {
	dropped = t.ceLossWire
	inNetwork = t.cePropBytes
	for _, l := range t.links {
		m, d, q := portECNTerms(l.port)
		marked += m
		dropped += d
		inNetwork += q + l.port.CESerializingBytes()
	}
	return marked, t.ceDeliveredWire, dropped, inNetwork
}

// LinkStats reports per-link counters, one entry per declared link in
// declaration order.
func (t *Topology) LinkStats() []LinkStat {
	out := make([]LinkStat, len(t.links))
	for i, l := range t.links {
		st := linkStat(l.spec.Name, l.port)
		if l.iid != nil {
			st.RandomDrops = l.iid.dropped
		}
		if l.burst != nil {
			st.BurstDrops = l.burst.dropped
		}
		if l.outage != nil {
			st.OutageDrops = l.outage.dropped
		}
		out[i] = st
	}
	return out
}

// DrillCorruptQueue corrupts the primary bottleneck's drop-tail byte
// counter by one full-size frame, simulating a double decrement — the
// seeded accounting bug behind -audit-drill. It reports whether the
// corruption was applied (false for AQM disciplines, which have no drill
// hook).
func (t *Topology) DrillCorruptQueue() bool {
	if dt, ok := innerQueue(t.Port().Queue()).(*DropTailQueue); ok {
		dt.DrillCorrupt(units.MSS + packet.HeaderBytes)
		return true
	}
	return false
}
