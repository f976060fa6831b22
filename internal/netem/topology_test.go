package netem

import (
	"strings"
	"testing"

	"ccatscale/internal/audit"
	"ccatscale/internal/packet"
	"ccatscale/internal/sim"
	"ccatscale/internal/units"
)

// chainSpec is a valid two-bottleneck parking-lot graph: a→b→c with one
// flow crossing both links and one entering at the middle hop.
func chainSpec() TopologySpec {
	return TopologySpec{
		Nodes: []string{"a", "b", "c"},
		Links: []LinkSpec{
			{Name: "ab", From: "a", To: "b", Rate: 10 * units.MbitPerSec, Delay: 5 * sim.Millisecond, Buffer: 256 * 1518},
			{Name: "bc", From: "b", To: "c", Rate: 8 * units.MbitPerSec, Delay: 5 * sim.Millisecond, Buffer: 256 * 1518},
		},
		Paths: [][]int{{0, 1}, {1}},
	}
}

// TestTopologySpecValidationErrors pins the constructor-error contract:
// every malformed graph is rejected with a descriptive message naming
// the offending element, never a panic or a degenerate run.
func TestTopologySpecValidationErrors(t *testing.T) {
	cases := []struct {
		name string
		mut  func(*TopologySpec)
		want string
	}{
		{"no nodes", func(s *TopologySpec) { s.Nodes = nil }, "declares no nodes"},
		{"empty node name", func(s *TopologySpec) { s.Nodes[0] = "" }, "empty name"},
		{"duplicate node", func(s *TopologySpec) { s.Nodes[2] = "a" }, "duplicate topology node"},
		{"no links", func(s *TopologySpec) { s.Links = nil }, "declares no links"},
		{"empty link name", func(s *TopologySpec) { s.Links[0].Name = "" }, "empty name"},
		{"duplicate link", func(s *TopologySpec) { s.Links[1].Name = "ab" }, "duplicate topology link"},
		{"undeclared from", func(s *TopologySpec) { s.Links[0].From = "x" }, `starts at undeclared node "x"`},
		{"undeclared to", func(s *TopologySpec) { s.Links[1].To = "y" }, `ends at undeclared node "y"`},
		{"self loop", func(s *TopologySpec) { s.Links[0].To = "a" }, "self-loop"},
		{"zero capacity", func(s *TopologySpec) { s.Links[1].Rate = 0 }, "zero capacity"},
		{"negative capacity", func(s *TopologySpec) { s.Links[0].Rate = -units.MbitPerSec }, "zero capacity"},
		{"sub-frame buffer", func(s *TopologySpec) { s.Links[0].Buffer = 100 }, "cannot hold one full-size frame"},
		{"negative delay", func(s *TopologySpec) { s.Links[0].Delay = -sim.Millisecond }, "negative delay"},
		{"negative ecn threshold", func(s *TopologySpec) { s.Links[0].ECNMarkBytes = -5 }, `link "ab" has negative ECN marking threshold -5`},
		{"loss rate too high", func(s *TopologySpec) { s.Links[0].LossRate = 1 }, "outside [0, 1)"},
		{"negative loss rate", func(s *TopologySpec) { s.Links[1].LossRate = -0.1 }, `link "bc" loss rate -0.1 outside [0, 1)`},
		{"negative jitter", func(s *TopologySpec) { s.Links[1].Jitter = -sim.Millisecond }, `link "bc" has negative jitter`},
		{"burst loss out of range", func(s *TopologySpec) {
			s.Links[1].BurstLoss = &BurstLossSpec{MeanLoss: 1, MeanBurstLen: 4}
		}, `link "bc": burst mean loss 1 outside [0, 1)`},
		{"sub-packet burst", func(s *TopologySpec) {
			s.Links[0].BurstLoss = &BurstLossSpec{MeanLoss: 0.01, MeanBurstLen: 0.5}
		}, `link "ab": burst mean length 0.5 below 1 packet`},
		{"overlapping outages", func(s *TopologySpec) {
			s.Links[1].Outage = &OutageSpec{Start: sim.Second, Down: sim.Second, Period: sim.Millisecond, Count: 2}
		}, `link "bc": outage period 1ms shorter than down-time 1s`},
		{"outage count 0", func(s *TopologySpec) {
			s.Links[0].Outage = &OutageSpec{Down: sim.Second}
		}, `link "ab": outage count 0 below 1`},
		{"negative outage start", func(s *TopologySpec) {
			s.Links[0].Outage = &OutageSpec{Start: -sim.Millisecond, Down: sim.Second, Count: 1}
		}, `link "ab": outage start -1ms negative`},
		{"empty outage window", func(s *TopologySpec) {
			s.Links[1].Outage = &OutageSpec{Start: sim.Second, Count: 1}
		}, `link "bc": outage down-time 0s not positive`},
		{"negative outage window", func(s *TopologySpec) {
			s.Links[1].Outage = &OutageSpec{Start: sim.Second, Down: -sim.Second, Count: 1}
		}, `link "bc": outage down-time -1s not positive`},
		{"no paths", func(s *TopologySpec) { s.Paths = nil }, "declares no flow paths"},
		{"empty path", func(s *TopologySpec) { s.Paths[0] = nil }, "empty path"},
		{"path index out of range", func(s *TopologySpec) { s.Paths[0] = []int{0, 5} }, "topology has 2 links"},
		{"broken chain", func(s *TopologySpec) { s.Paths[1] = []int{1, 0} }, "path is broken"},
		{"unreachable node", func(s *TopologySpec) {
			s.Nodes = append(s.Nodes, "orphan")
		}, `node "orphan" is unreachable`},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			spec := chainSpec()
			tc.mut(&spec)
			err := spec.Validate()
			if err == nil {
				t.Fatal("expected a validation error")
			}
			if !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("error %q does not mention %q", err, tc.want)
			}
		})
	}
	if err := chainSpec().Validate(); err != nil {
		t.Fatalf("valid chain rejected: %v", err)
	}
}

// TestTopologyConfigValidation covers the runtime half: RTT alignment
// and positivity.
func TestTopologyConfigValidation(t *testing.T) {
	spec := chainSpec()
	if err := (TopologyConfig{Spec: spec, RTT: []sim.Time{20 * sim.Millisecond}}).Validate(); err == nil ||
		!strings.Contains(err.Error(), "2 flow paths but 1 RTTs") {
		t.Fatalf("misaligned RTTs not rejected: %v", err)
	}
	if err := (TopologyConfig{Spec: spec, RTT: []sim.Time{20 * sim.Millisecond, 0}}).Validate(); err == nil ||
		!strings.Contains(err.Error(), "non-positive base RTT") {
		t.Fatalf("zero RTT not rejected: %v", err)
	}
}

// topoHarness drives a Topology directly with hand-built packets,
// bypassing TCP: a fixed population per flow, endpoints that count
// arrivals, the auditor strict so any ledger break panics.
type topoHarness struct {
	eng       *sim.Engine
	topo      *Topology
	aud       *audit.Auditor
	delivered map[int32]int
	acks      int
	lastAt    sim.Time
}

func newTopoHarness(t *testing.T, spec TopologySpec, rtts []sim.Time) *topoHarness {
	t.Helper()
	eng := sim.NewEngine()
	aud := audit.New(audit.PolicyWarn, eng.Now)
	h := &topoHarness{eng: eng, aud: aud, delivered: map[int32]int{}}
	h.topo = NewTopology(eng, sim.NewRNG(1), TopologyConfig{Spec: spec, RTT: rtts, Audit: aud})
	h.topo.SetEndpoints(
		func(p packet.Packet) { h.delivered[p.Flow]++; h.lastAt = eng.Now() },
		func(p packet.Packet) { h.acks++ },
	)
	return h
}

// TestTopologyRoutingAndConservation pushes a known packet population
// through the two-bottleneck chain and closes every ledger: per-flow
// delivery counts, the fabric-wide byte equation, per-link transmit
// counters, and the per-bottleneck port-conservation audit (strict via
// violation count).
func TestTopologyRoutingAndConservation(t *testing.T) {
	const perFlow = 50
	spec := chainSpec()
	h := newTopoHarness(t, spec, []sim.Time{20 * sim.Millisecond, 20 * sim.Millisecond})

	var injected units.ByteCount
	for i := 0; i < perFlow; i++ {
		for flow := int32(0); flow < 2; flow++ {
			p := packet.Packet{Flow: flow, Seq: int64(i) * int64(units.MSS), Len: int32(units.MSS)}
			injected += p.WireBytes()
			fp := p
			h.eng.Schedule(sim.Time(i)*sim.Millisecond, func() { h.topo.SendData(fp) })
		}
	}
	h.eng.Run(5 * sim.Second)

	if h.delivered[0] != perFlow || h.delivered[1] != perFlow {
		t.Fatalf("delivery counts = %v, want %d per flow", h.delivered, perFlow)
	}
	// Byte conservation across the whole graph after quiescence.
	if got := h.topo.InNetworkBytes(); got != 0 {
		t.Fatalf("%d bytes still in-network after drain", got)
	}
	ref := packet.Packet{Len: int32(units.MSS)}
	wire := ref.WireBytes()
	arrived := units.ByteCount(2*perFlow) * wire
	if arrived+h.topo.DropWire() != injected {
		t.Fatalf("byte ledger leaks: arrived %d + dropped %d != injected %d",
			arrived, h.topo.DropWire(), injected)
	}
	// Per-link accounting: flow 0 crosses both links, flow 1 only bc.
	stats := h.topo.LinkStats()
	if len(stats) != 2 {
		t.Fatalf("LinkStats returned %d entries, want 2", len(stats))
	}
	if stats[0].Name != "ab" || stats[1].Name != "bc" {
		t.Fatalf("link stats out of declaration order: %q, %q", stats[0].Name, stats[1].Name)
	}
	// Buffers are sized so nothing drops; the transmit counters must
	// then be exact: flow 0 alone crosses ab, both flows cross bc.
	if h.topo.DropWire() != 0 {
		t.Fatalf("unexpected drops: %d wire bytes", h.topo.DropWire())
	}
	if stats[0].TxPackets != perFlow {
		t.Fatalf("link ab transmitted %d packets, want %d", stats[0].TxPackets, perFlow)
	}
	if stats[1].TxPackets != 2*perFlow {
		t.Fatalf("link bc transmitted %d packets, want %d", stats[1].TxPackets, 2*perFlow)
	}
	// The per-bottleneck conservation check ran after every operation
	// and found nothing.
	if n := h.aud.Total(); n != 0 {
		t.Fatalf("auditor recorded %d violations on a clean run: %+v", n, h.aud.Violations())
	}
	// Primary bottleneck is the lowest-rate link (bc at 8 Mbps).
	if rate, idx := spec.MinRate(); idx != 1 || rate != 8*units.MbitPerSec {
		t.Fatalf("MinRate = %d at index %d, want link bc", int64(rate), idx)
	}
}

// TestTopologyECNLedgerCloses floods an ECN-enabled bottleneck with ECT
// traffic past its marking threshold and requires (a) marks actually
// happen, (b) the CE ledger closes exactly — every marked byte is
// delivered, dropped, or in flight — and (c) non-ECT packets are never
// marked.
func TestTopologyECNLedgerCloses(t *testing.T) {
	spec := chainSpec()
	spec.Links[0].ECN = true
	spec.Links[0].ECNMarkBytes = 2 * 1518 // mark almost immediately under burst
	h := newTopoHarness(t, spec, []sim.Time{20 * sim.Millisecond, 20 * sim.Millisecond})

	// Flow 0 sends an ECT burst at t=0 — far faster than 10 Mbps drains —
	// so occupancy crosses the threshold. Flow 1 sends non-ECT.
	var injected int
	for i := 0; i < 80; i++ {
		p := packet.Packet{Flow: 0, Seq: int64(i) * int64(units.MSS), Len: int32(units.MSS), ECT: true}
		q := packet.Packet{Flow: 1, Seq: int64(i) * int64(units.MSS), Len: int32(units.MSS)}
		fp, fq := p, q
		h.eng.Schedule(sim.Time(i)*100*sim.Microsecond, func() { h.topo.SendData(fp); h.topo.SendData(fq) })
		injected += 2
	}
	h.eng.Run(5 * sim.Second)

	marked, delivered, dropped, inNetwork := h.topo.ECNLedger()
	if marked == 0 {
		t.Fatal("ECN burst crossed the threshold but nothing was marked")
	}
	if inNetwork != 0 {
		t.Fatalf("%d CE bytes still in-network after drain", inNetwork)
	}
	if marked != delivered+dropped {
		t.Fatalf("CE ledger leaks: marked %d != delivered %d + dropped %d", marked, delivered, dropped)
	}
	stats := h.topo.LinkStats()
	if stats[0].CEMarks == 0 {
		t.Fatal("link ab reports no CE marks despite the ledger")
	}
	if stats[1].CEMarks != 0 {
		t.Fatalf("link bc marked %d packets but has ECN disabled", stats[1].CEMarks)
	}
	if n := h.aud.Total(); n != 0 {
		t.Fatalf("auditor recorded %d violations: %+v", n, h.aud.Violations())
	}
}

// TestTopologyReverseDelay checks the ACK return path: the reverse
// delay is the base RTT minus the flow's forward propagation, so a
// lone uncontended segment's echo completes one RTT plus serialization
// after injection.
func TestTopologyReverseDelay(t *testing.T) {
	spec := chainSpec()
	h := newTopoHarness(t, spec, []sim.Time{40 * sim.Millisecond, 40 * sim.Millisecond})

	var ackAt sim.Time
	h.topo.SetEndpoints(
		func(p packet.Packet) {
			// Receiver echoes an ACK immediately.
			h.topo.SendAck(packet.Packet{Flow: p.Flow, Ack: true, CumAck: p.Seq + int64(p.Len)})
		},
		func(p packet.Packet) { ackAt = h.eng.Now() },
	)
	p := packet.Packet{Flow: 0, Len: int32(units.MSS)}
	h.eng.Schedule(0, func() { h.topo.SendData(p) })
	h.eng.Run(sim.Second)

	if ackAt == 0 {
		t.Fatal("ACK never returned")
	}
	// Serialization: once per link at 10 and 8 Mbps; everything else is
	// the configured 40 ms RTT (10 ms forward prop + 30 ms reverse).
	wire := p.WireBytes()
	ser := spec.Links[0].Rate.TransmissionTime(wire) + spec.Links[1].Rate.TransmissionTime(wire)
	want := 40*sim.Millisecond + ser
	if ackAt != want {
		t.Fatalf("ACK completed at %v, want %v (40ms RTT + %v serialization)", ackAt, want, ser)
	}
}
