package netem

import (
	"testing"

	"ccatscale/internal/audit"
	"ccatscale/internal/packet"
	"ccatscale/internal/sim"
	"ccatscale/internal/units"
)

// burstAllocs offers a burst of full-size segments through send, runs
// the engine until every packet and ACK it causes has landed, and
// returns the allocations per burst once rings and pools have grown to
// it. A burst is far above one, so a per-packet allocation cannot round
// away.
func burstAllocs(t *testing.T, eng *sim.Engine, send func(packet.Packet)) float64 {
	t.Helper()
	const burst = 64
	cycle := func() {
		for i := 0; i < burst; i++ {
			send(dataPkt(0, int64(i)*1448, 1448))
		}
		eng.Run(eng.Now() + 10*sim.Millisecond)
	}
	for i := 0; i < 10; i++ {
		cycle()
	}
	return testing.AllocsPerRun(100, cycle)
}

// TestFabricPathZeroAlloc is the allocation budget for a packet's trip
// through a Topology: SendData, the link's queue, port and propagation
// lane, the stages the link declares, the receiver sink, and the ACK's
// reverse lane back to the sender sink. The by-value entry points stage
// the packet in a slot the fabric owns; a pointer to their parameter
// handed to the Queue interface or a stage would cost a heap
// allocation per packet. Each case runs again through SendDataRef and
// SetRefEndpoints, the path core takes, with the packet built in a slot
// the sending side owns, as tcp.Sender builds it.
func TestFabricPathZeroAlloc(t *testing.T) {
	cases := []struct {
		name    string
		declare func(*LinkSpec)
		audit   bool
	}{
		{name: "plain link"},
		{name: "iid loss, jitter, burst loss and an outage", declare: func(l *LinkSpec) {
			l.LossRate = 0.01
			l.Jitter = 50 * sim.Microsecond
			l.BurstLoss = &BurstLossSpec{MeanLoss: 0.01, MeanBurstLen: 4}
			// Dark long after the measurement: every packet crosses the
			// outage stage on its pass-through path.
			l.Outage = &OutageSpec{Start: 1000 * sim.Second, Down: sim.Second, Count: 1}
		}},
		{name: "audited link", audit: true},
	}
	for _, tc := range cases {
		for _, byRef := range []bool{false, true} {
			name, entry := tc.name, "SendData"
			if byRef {
				name, entry = tc.name+" by reference", "SendDataRef"
			}
			t.Run(name, func(t *testing.T) {
				eng := sim.NewEngine()
				link := LinkSpec{Name: "ab", From: "a", To: "b",
					Rate: units.GbitPerSec, Delay: 100 * sim.Microsecond, Buffer: units.MB}
				if tc.declare != nil {
					tc.declare(&link)
				}
				cfg := TopologyConfig{
					Spec: TopologySpec{Nodes: []string{"a", "b"}, Links: []LinkSpec{link}, Paths: [][]int{{0}}},
					RTT:  []sim.Time{sim.Millisecond},
				}
				if tc.audit {
					cfg.Audit = audit.New(audit.PolicyWarn, eng.Now)
				}
				topo := NewTopology(eng, sim.NewRNG(1), cfg)
				delivered, acked := 0, 0
				send := topo.SendData
				if byRef {
					topo.SetRefEndpoints(
						func(p *packet.Packet) {
							delivered++
							topo.SendAck(packet.Packet{Flow: p.Flow, Ack: true, CumAck: p.End()})
						},
						func(*packet.Packet) { acked++ })
					var slot packet.Packet
					send = func(p packet.Packet) {
						slot = p
						topo.SendDataRef(&slot)
					}
				} else {
					topo.SetEndpoints(
						func(p packet.Packet) {
							delivered++
							topo.SendAck(packet.Packet{Flow: p.Flow, Ack: true, CumAck: p.End()})
						},
						func(packet.Packet) { acked++ })
				}
				if allocs := burstAllocs(t, eng, send); allocs != 0 {
					t.Fatalf("%s → delivery → ACK allocates %.1f objects per 64-packet burst, want 0", entry, allocs)
				}
				if delivered == 0 || acked != delivered {
					t.Fatalf("delivered %d segments and %d ACKs: the path under budget did not carry traffic", delivered, acked)
				}
				if cfg.Audit.Total() != 0 {
					t.Fatalf("%d audit violations: %v", cfg.Audit.Total(), cfg.Audit.Violations())
				}
			})
		}
	}
}

// TestByValueWrappersZeroAlloc holds the exported by-value edges to the
// same budget: Port.Send and NewPort's Sink, Pipe.Send and NewPipe's.
func TestByValueWrappersZeroAlloc(t *testing.T) {
	eng := sim.NewEngine()
	delivered := 0
	pipe := NewPipe(eng, 100*sim.Microsecond, func(packet.Packet) { delivered++ })
	port := NewPort(eng, units.GbitPerSec, NewDropTailQueue(units.MB), pipe.Send, nil)
	if allocs := burstAllocs(t, eng, port.Send); allocs != 0 {
		t.Fatalf("Port.Send → Pipe.Send → sink allocates %.1f objects per 64-packet burst, want 0", allocs)
	}
	if delivered != 64*111 {
		t.Fatalf("delivered %d, want %d", delivered, 64*111)
	}
}
