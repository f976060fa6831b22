package netem

import (
	"fmt"

	"ccatscale/internal/audit"
	"ccatscale/internal/packet"
	"ccatscale/internal/sim"
	"ccatscale/internal/units"
)

// fwdPropDelay is the fixed sender→receiver propagation component. The
// paper installs the entire base RTT with netem at the receiver side, so
// the forward path carries only a token propagation delay and the
// remainder rides the ACK return path. Where the delay sits is
// immaterial to the sender, which only ever observes the sum.
const fwdPropDelay = 5 * sim.Microsecond

// AQM selects the bottleneck queue discipline.
type AQM int

const (
	// DropTail is the paper's configuration.
	DropTail AQM = iota
	// CoDel applies RFC 8289 active queue management (an extension
	// axis beyond the paper).
	CoDel
)

// DumbbellConfig describes the experiment topology (paper Figure 1): all
// senders feed one bottleneck port; delivered segments reach per-flow
// receivers after a short forward propagation delay; ACKs return over an
// uncongested reverse path that carries the per-flow base RTT.
//
// The 25 Gbps edge links of the physical testbed exist to guarantee that
// congestion happens only at the switch; the simulation gets that
// guarantee by construction, so edge serialization is not modeled (its
// per-segment contribution at 25 Gbps, ~0.5 µs, is three orders of
// magnitude below the base RTTs studied).
type DumbbellConfig struct {
	// Rate is the bottleneck line rate.
	Rate units.Bandwidth
	// Buffer is the bottleneck queue capacity in bytes.
	Buffer units.ByteCount
	// RTT holds each flow's base round-trip time, indexed by flow ID.
	RTT []sim.Time
	// OnDrop observes bottleneck drops (tail and AQM); may be nil.
	OnDrop DropFunc
	// Discipline selects the queueing discipline (default DropTail).
	Discipline AQM
	// ECN enables CE marking at the bottleneck: a step threshold on the
	// drop-tail queue, mark-instead-of-drop on CoDel. Marking only ever
	// touches ECT packets, so enabling it under non-ECT traffic is
	// bit-identical to leaving it off.
	ECN bool
	// ECNMarkBytes is the drop-tail CE-marking threshold in wire bytes;
	// 0 defaults to a quarter of the buffer. Ignored by CoDel, whose
	// control law decides when to mark.
	ECNMarkBytes units.ByteCount
	// Audit enables the netem conservation ledger: shadow queue
	// accounting plus the port-level byte-conservation check after
	// every send and transmit completion. Nil disables auditing.
	Audit *audit.Auditor
}

// Validate rejects degenerate topologies at construction time with a
// descriptive error: a zero or negative bottleneck rate stalls the
// port forever, a zero-capacity queue silently drops everything beyond
// the packet in serialization, and a non-positive RTT breaks the ACK
// clock. All of these previously produced degenerate runs (or panics
// deep in the stack) rather than an actionable message.
func (cfg DumbbellConfig) Validate() error {
	if cfg.Rate <= 0 {
		return fmt.Errorf("netem: bottleneck rate must be positive, got %d bits/sec", int64(cfg.Rate))
	}
	if cfg.Buffer <= 0 {
		return fmt.Errorf("netem: bottleneck queue capacity must be positive, got %d bytes", int64(cfg.Buffer))
	}
	if minFrame := units.MSS + packet.HeaderBytes; cfg.Buffer < minFrame {
		return fmt.Errorf("netem: bottleneck queue capacity %d bytes cannot hold one full-size frame (%d bytes); every standing-queue packet would be tail-dropped",
			int64(cfg.Buffer), int64(minFrame))
	}
	if len(cfg.RTT) == 0 {
		return fmt.Errorf("netem: dumbbell with no flows")
	}
	for i, rtt := range cfg.RTT {
		if rtt <= 0 {
			return fmt.Errorf("netem: flow %d has non-positive base RTT %v", i, rtt)
		}
	}
	return nil
}

// Spec derives the graph a dumbbell is: one link named "bottleneck"
// between the node "senders" and the node "receivers", carrying every
// flow.
func (cfg DumbbellConfig) Spec() TopologySpec {
	only := []int{0}
	paths := make([][]int, len(cfg.RTT))
	for i := range paths {
		paths[i] = only
	}
	return TopologySpec{
		Nodes: []string{"senders", "receivers"},
		Links: []LinkSpec{{
			Name: "bottleneck", From: "senders", To: "receivers",
			Rate: cfg.Rate, Delay: fwdPropDelay, Buffer: cfg.Buffer,
			Discipline: cfg.Discipline, ECN: cfg.ECN, ECNMarkBytes: cfg.ECNMarkBytes,
		}},
		Paths: paths,
	}
}

// NewDumbbell wires the one-link topology, panicking on an invalid
// configuration (call Validate first to get the error instead).
// Endpoint sinks must be attached with SetEndpoints before traffic
// flows.
func NewDumbbell(eng *sim.Engine, cfg DumbbellConfig) *Topology {
	if err := cfg.Validate(); err != nil {
		panic(err)
	}
	// No RNG: the bottleneck declares no loss stage.
	return NewTopology(eng, nil, TopologyConfig{
		Spec: cfg.Spec(), RTT: cfg.RTT, OnDrop: cfg.OnDrop, Audit: cfg.Audit,
	})
}
